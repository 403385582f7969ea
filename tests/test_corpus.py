"""Corpus loading, the present/absent split of gold, and dataset statistics."""

import json
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg import corpus as corpus_mod
from kpagg import textnorm
from kpagg.corpus import (
    CorpusError,
    Document,
    corpus_stats,
    format_stats,
    load_corpus,
    stats_csv,
)
from kpagg.cli import main

from .conftest import TOY_CORPUS
from .oracles import normalize_oracle, phrases_oracle


def make_doc(**kw):
    base = dict(
        id="d1",
        title="A Title",
        body="Some body text.",
        gold=("one", "two"),
        domain="scientific",
    )
    base.update(kw)
    return Document(**base)


GOOD = {"id": "a", "title": "T", "abstract": "B", "keyphrases": ["k"]}


class TestLoadCorpus:
    def test_toy_corpus_loads(self, toy_docs):
        assert len(toy_docs) == 5
        assert toy_docs[0].id == "doc-001"
        assert toy_docs[0].domain == "scientific"
        assert "TDMA" in toy_docs[0].title

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_all_invalid_raises(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json\n{\n")
        with pytest.raises(CorpusError):
            load_corpus(p)

    def test_malformed_lines_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "mixed.jsonl"
        good = {"id": "a", "title": "T", "abstract": "B", "keyphrases": ["k"]}
        p.write_text("garbage\n" + json.dumps(good) + "\n{broken\n")
        with caplog.at_level(logging.WARNING):
            docs = load_corpus(p)
        assert [d.id for d in docs] == ["a"]
        messages = [r.getMessage() for r in caplog.records]
        for lineno in (1, 3):
            assert any(m.startswith(f"{p}:{lineno}: skipping malformed record") for m in messages)
        assert not any(m.startswith(f"{p}:2:") for m in messages)

    def test_record_nested_too_deep_is_skipped(self, tmp_path, caplog):
        p = tmp_path / "deep.jsonl"
        good = {"id": "a", "title": "T", "abstract": "B", "keyphrases": ["k"]}
        p.write_text("[" * 100_000 + "\n" + json.dumps(good) + "\n")
        with caplog.at_level(logging.WARNING):
            docs = load_corpus(p)
        assert [d.id for d in docs] == ["a"]
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith(f"{p}:1: skipping malformed record") for m in messages)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_raw_line_separator_in_a_string_is_no_line_break(self, tmp_path, caplog, separator):
        p = tmp_path / "sep.jsonl"
        rec = {"id": "a", "title": "T", "abstract": f"one{separator}two", "keyphrases": ["k"]}
        good = {"id": "b", "title": "T", "abstract": "B", "keyphrases": []}
        line = json.dumps(rec, ensure_ascii=False)
        assert separator in line
        p.write_text(f"{line}\n{json.dumps(good)}\n{{broken\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            docs = load_corpus(p)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].body == f"one{separator}two"
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith(f"{p}:3: skipping malformed record") for m in messages)
        assert not any(m.startswith((f"{p}:1:", f"{p}:2:", f"{p}:4:")) for m in messages)

    def test_utf8_bom_is_skipped(self, tmp_path):
        p = tmp_path / "bom.jsonl"
        recs = [{"id": i, "title": "T", "abstract": "B", "keyphrases": []} for i in "ab"]
        text = "".join(json.dumps(r) + "\n" for r in recs)
        p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert [d.id for d in load_corpus(p)] == ["a", "b"]

    def test_duplicate_ids_first_wins(self, tmp_path, caplog):
        p = tmp_path / "dup.jsonl"
        rec = {"id": "a", "title": "T", "abstract": "B", "keyphrases": []}
        rec2 = dict(rec, title="Other")
        p.write_text(json.dumps(rec) + "\n" + json.dumps(rec2) + "\n")
        with caplog.at_level(logging.WARNING):
            docs = load_corpus(p)
        assert len(docs) == 1
        assert docs[0].title == "T"

    def test_default_domain_applied(self, tmp_path):
        p = tmp_path / "c.jsonl"
        rec = {"id": "a", "title": "T", "abstract": "B", "keyphrases": []}
        p.write_text(json.dumps(rec) + "\n")
        docs = load_corpus(p, default_domain="news")
        assert docs[0].domain == "news"

    def test_bad_domain_rejected(self, tmp_path, caplog):
        p = tmp_path / "c.jsonl"
        bad = {"id": "a", "title": "T", "abstract": "B", "keyphrases": [], "domain": "legal"}
        good = {"id": "b", "title": "T", "abstract": "B", "keyphrases": []}
        p.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        with caplog.at_level(logging.WARNING):
            docs = load_corpus(p)
        assert [d.id for d in docs] == ["b"]

    @pytest.mark.parametrize(
        "record, reason",
        [
            ([1, 2], "record is not a JSON object"),
            ("a", "record is not a JSON object"),
            (None, "record is not a JSON object"),
            *[
                (bad, f"missing or non-string field {key!r}")
                for key in ("id", "title", "abstract")
                for bad in [
                    {k: v for k, v in GOOD.items() if k != key},
                    {**GOOD, key: 7},
                    {**GOOD, key: None},
                    {**GOOD, key: ["x"]},
                ]
            ],
            ({**GOOD, "id": ""}, "empty id"),
        ],
    )
    def test_bad_record_is_skipped_with_its_reason(self, tmp_path, caplog, record, reason):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(record) + "\n" + json.dumps({**GOOD, "id": "b"}) + "\n")
        with caplog.at_level(logging.WARNING):
            docs = load_corpus(p)
        assert [d.id for d in docs] == ["b"]
        messages = [r.getMessage() for r in caplog.records]
        assert f"{p}:1: skipping malformed record: {reason}" in messages

    def test_keyphrases_must_be_strings(self, tmp_path):
        p = tmp_path / "c.jsonl"
        bad = {"id": "a", "title": "T", "abstract": "B", "keyphrases": ["ok", 3]}
        good = {"id": "b", "title": "T", "abstract": "B", "keyphrases": []}
        p.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        docs = load_corpus(p)
        assert [d.id for d in docs] == ["b"]


class TestDocument:
    def test_source_text(self):
        d = make_doc(title="Hello", body="world")
        assert d.source_text == "Hello world"

    def test_immutability(self):
        d = make_doc()
        with pytest.raises(Exception):
            d.title = "changed"


def gold_split(doc):
    """A document's gold forms against its source, split into (present,
    absent) in gold order."""
    source = textnorm.NormalizedSource.from_text(doc.source_text)
    gold = source.phrases(doc.gold)
    return (
        tuple(p for p in gold if p in source.present),
        tuple(p for p in gold if p not in source.present),
    )


def form_of(surface):
    return " ".join(normalize_oracle(surface))


class TestPartitionGold:
    def test_toy_doc_partition(self, toy_docs):
        doc = toy_docs[0]
        present, absent = gold_split(doc)
        assert form_of("graph coloring") in present
        assert form_of("medium access control") in absent

    def test_disjoint_and_complete(self, toy_docs):
        for doc in toy_docs:
            present, absent = gold_split(doc)
            assert not (set(present) & set(absent))

    def test_duplicate_gold_collapses(self):
        d = make_doc(title="one thing", body="here", gold=("One Thing", "one thing", "other"))
        present, absent = gold_split(d)
        assert len(present) + len(absent) == 2

    def test_equals_fresh_normalize_and_presence_test(self, toy_docs):
        for doc in toy_docs:
            tokens = normalize_oracle(doc.source_text)
            fresh = phrases_oracle(doc.gold, tokens, normalize_oracle)
            present, absent = gold_split(doc)
            pairs = [(p, True) for p in present] + [(p, False) for p in absent]
            want = [(n, pres) for _, n, pres in fresh]
            assert pairs == [t for t in want if t[1]] + [t for t in want if not t[1]], doc.id

    def test_punctuation_only_gold_dropped(self):
        d = make_doc(title="one thing", body="here", gold=("--", "One thing", "one-thing"))
        present, absent = gold_split(d)
        assert present == (form_of("One thing"),)
        assert absent == ()

    @given(st.permutations(["alpha", "beta", "gamma", "delta"]))
    def test_partition_counts_permutation_invariant(self, order):
        d = make_doc(title="alpha beta", body="slack", gold=tuple(order))
        present, absent = gold_split(d)
        assert set(present) == {"alpha", "beta"}
        assert set(absent) == {"gamma", "delta"}


class TestStats:
    def test_single_doc_example(self):
        d = make_doc(
            title="Graph Coloring",
            body="schedules wireless",
            gold=("graph coloring", "tdma scheduling protocols"),
        )
        s = corpus_stats([d])
        assert s.num_docs == 1
        assert s.avg_input_words == pytest.approx(4.0)
        assert s.avg_present_per_doc == pytest.approx(1.0)
        assert s.avg_absent_per_doc == pytest.approx(1.0)
        assert s.avg_words_per_present_kp == pytest.approx(2.0)
        assert s.avg_words_per_absent_kp == pytest.approx(3.0)

    def test_counts_follow_the_first_surface_of_each_form(self, toy_docs):
        # "One-Thing" is one whitespace word and "one thing" two: the words
        # counted are those of the gold surface that comes first
        docs = list(toy_docs) + [
            make_doc(title="one thing", body="here", gold=("One-Thing", "one thing", "--", "x y"))
        ]
        kps = {True: 0, False: 0}
        words = {True: 0, False: 0}
        for doc in docs:
            source = normalize_oracle(doc.source_text)
            for surface, _, present in phrases_oracle(list(doc.gold), source, normalize_oracle):
                kps[present] += 1
                words[present] += len(surface.split())
        stats = corpus_stats(docs)
        assert stats.avg_present_per_doc == kps[True] / len(docs)
        assert stats.avg_absent_per_doc == kps[False] / len(docs)
        assert stats.avg_words_per_present_kp == words[True] / kps[True]
        assert stats.avg_words_per_absent_kp == words[False] / kps[False]

    def test_no_absent_yields_none(self):
        d = make_doc(title="alpha beta", body="gamma", gold=("alpha beta",))
        s = corpus_stats([d])
        assert s.avg_words_per_absent_kp is None
        assert s.avg_absent_per_doc == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            corpus_stats([])

    def test_format_stats_renders_dash_for_none(self):
        d = make_doc(gold=())
        text = format_stats(corpus_stats([d]))
        assert "-" in text
        assert "1" in text

    def test_stats_csv_shape(self):
        d = make_doc()
        out = stats_csv(corpus_stats([d]))
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "num_docs"

    def test_stats_table_and_csv_are_pinned(self, toy_docs):
        stats = corpus_stats(toy_docs)
        assert format_stats(stats) == (
            "Documents                        5\n"
            "Avg words in title + body        31.00\n"
            "Avg words per present keyphrase  1.79\n"
            "Avg words per absent keyphrase   2.50\n"
            "Avg present keyphrases per doc   2.80\n"
            "Avg absent keyphrases per doc    0.80"
        )
        assert stats_csv(stats) == (
            "num_docs,avg_input_words,avg_words_per_present_kp,"
            "avg_words_per_absent_kp,avg_present_per_doc,avg_absent_per_doc\n"
            "5,31.000000,1.785714,2.500000,2.800000,0.800000\n"
        )
        # undefined averages: a dash in the table, an empty CSV cell
        stats = corpus_stats([make_doc(title="alpha beta", body="gamma", gold=())])
        assert format_stats(stats).splitlines()[1:4] == [
            "Avg words in title + body        3.00",
            "Avg words per present keyphrase  -",
            "Avg words per absent keyphrase   -",
        ]
        assert stats_csv(stats).splitlines()[1] == "1,3.000000,,,0.000000,0.000000"

    def test_limit_takes_the_first_documents(self, toy_docs, tmp_path, caplog, capsys):
        # `kpagg stats --limit 2` describes the first two documents of the file
        assert [d.id for d in toy_docs[:2]] == ["doc-001", "doc-002"]
        code = main(["stats", "--corpus", str(TOY_CORPUS), "--limit", "2"])
        output = capsys.readouterr().out
        assert code == 0, output
        assert output == format_stats(corpus_stats(toy_docs[:2])) + "\n"
        assert output != format_stats(corpus_stats(toy_docs)) + "\n"
        # the whole file is read: a malformed record past the limit is warned on
        p = tmp_path / "c.jsonl"
        good = {"id": "a", "title": "T", "abstract": "B", "keyphrases": ["k"]}
        p.write_text(json.dumps(good) + "\ngarbage\n")
        with caplog.at_level(logging.WARNING):
            code = main(["stats", "--corpus", str(p), "--limit", "1"])
        assert code == 0, capsys.readouterr()
        assert any(f"{p}:2: skipping malformed record" in r.message for r in caplog.records)

    @given(order=st.permutations(list(range(4))))
    def test_stats_permutation_invariant(self, toy_docs, order):
        docs = [toy_docs[i] for i in order]
        assert corpus_stats(docs) == corpus_stats(toy_docs[:4])


def test_domains_constant():
    assert corpus_mod.DOMAINS == ("scientific", "news")
