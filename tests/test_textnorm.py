"""Normalization, phrase matching, and dedup behaviour."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg import aggregation, corpus, porter, textnorm

from .oracles import reference_stems, window_scan_oracle


class TestTokenize:
    def test_splits_on_punctuation_and_lowercases(self):
        assert textnorm.tokenize("Graph Coloring-based TDMA!") == [
            "graph", "coloring", "based", "tdma",
        ]

    def test_hyphens_and_digits_split(self):
        assert textnorm.tokenize("distance-2 coloring") == ["distance", "2", "coloring"]

    def test_underscore_splits(self):
        assert textnorm.tokenize("foo_bar") == ["foo", "bar"]

    def test_empty(self):
        assert textnorm.tokenize("") == []
        assert textnorm.tokenize("  --- !! ") == []


class TestNormalizeTokens:
    def test_stemmed_example(self):
        assert textnorm.normalize_tokens("Graph Coloring-based TDMA") == [
            "graph", "color", "base", "tdma",
        ]

    def test_plural(self):
        assert textnorm.normalize_tokens("networks") == ["network"]

    def test_empty(self):
        assert textnorm.normalize_tokens("") == []

    def test_digit_tokens_pass_through(self):
        assert textnorm.normalize_tokens("5 stars") == ["5", "star"]

    def test_non_ascii_tokens_not_stemmed(self):
        assert textnorm.normalize_tokens("Ümlauted words") == ["ümlauted", "word"]


class TestNormalizeTokenMemo:
    def test_memo_equals_stemmer_on_reference_vocabulary(self):
        words = list(reference_stems())
        for _ in range(2):  # the second pass answers from the memo
            mismatches = [w for w in words if textnorm.normalize_token(w) != porter.stem(w)]
            assert not mismatches, mismatches[:10]

    def test_memo_stays_bounded(self):
        for i in range(70_000):  # more distinct tokens than the memo holds
            textnorm.normalize_token(str(i))
        assert textnorm.normalize_token.cache_info().currsize <= 1 << 16


class TestNormalizePhrase:
    def test_multiword(self):
        p = textnorm.normalize_phrase("Wireless Sensor Networks")
        assert p.normalized == "wireless sensor network"
        assert p.surface == "Wireless Sensor Networks"
        assert p.is_present is None

    def test_no_suffix_rules_fire(self):
        assert textnorm.normalize_phrase("TDMA").normalized == "tdma"

    def test_punctuation_only_is_empty(self):
        assert textnorm.normalize_phrase("  ---  ").normalized == ""

    def test_tokens_roundtrip(self):
        p = textnorm.normalize_phrase("graph coloring")
        assert p.tokens == ("graph", "color")
        assert textnorm.normalize_phrase("--").tokens == ()

    def test_classified_copy(self):
        p = textnorm.normalize_phrase("tdma")
        q = p.classified(True)
        assert q.is_present is True and p.is_present is None
        assert q.normalized == p.normalized


class TestIsPresent:
    def test_contiguous_match(self):
        source = textnorm.normalize_tokens("distributed graph coloring based methods")
        assert textnorm.is_present(textnorm.normalize_phrase("graph color"), source)

    def test_empty_source(self):
        with_phrase = textnorm.normalize_phrase("anything")
        assert not textnorm.is_present(with_phrase, [])

    def test_order_matters(self):
        source = textnorm.normalize_tokens("network of sensors reversed order")
        assert not textnorm.is_present(textnorm.normalize_phrase("sensor network"), source)

    def test_token_boundaries_not_substrings(self):
        source = textnorm.normalize_tokens("the artifact was found")
        assert not textnorm.is_present(textnorm.normalize_phrase("art"), source)
        source = textnorm.NormalizedSource(["ab", "c", "d"])
        for surface, present in [("b c", False), ("ab c", True), ("c d", True), ("a", False)]:
            assert textnorm.is_present(textnorm.normalize_phrase(surface), source) is present

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            textnorm.is_present(textnorm.normalize_phrase("--"), ["a"])

    def test_stemmed_presence(self):
        source = textnorm.normalize_tokens("a network of agents")
        assert textnorm.is_present(textnorm.normalize_phrase("Networks"), source)


class TestNormalizedSource:
    def test_from_text_normalizes(self):
        source = textnorm.NormalizedSource.from_text("Graph Coloring-based TDMA")
        assert source.tokens == ("graph", "color", "base", "tdma")


def fresh_classify(surfaces, source_tokens):
    """Normalize, dedup and presence-test each surface from scratch."""
    return [
        p.classified(textnorm.is_present(p, source_tokens))
        for p in textnorm.dedup_preserve_order(
            [textnorm.normalize_phrase(s) for s in surfaces]
        )
    ]


def toy_samples(doc):
    """The phrase lists of three samples that repeat the gold phrases in
    different orders and add a source word and a phrase absent from the
    source."""
    gold = list(doc.gold)
    word = doc.source_text.split()[0]
    return [
        tuple(gold + [word]),
        tuple(reversed(gold)) + ("zzyzx quux",),
        (word, "--", word.upper()) + tuple(gold[:2]),
    ]


def source_of(doc):
    return textnorm.NormalizedSource.from_text(doc.source_text)


class TestSourcePhraseMemo:
    def test_classify_samples_equals_fresh_computation(self, toy_docs):
        for doc in toy_docs:
            source_tokens = textnorm.normalize_tokens(doc.source_text)
            samples = toy_samples(doc)
            got = aggregation.classify_samples(samples, source_of(doc))
            assert [list(c) for c in got] == [
                fresh_classify(phrases, source_tokens) for phrases in samples
            ], doc.id

    def test_empty_surface_stays_unclassified(self):
        source = textnorm.NormalizedSource.from_text("a source text")
        p = source.phrase("--")
        assert p.normalized == "" and p.is_present is None
        assert source.phrase("--") is p
        assert textnorm.dedup_preserve_order([p]) == []

    def test_same_normal_form_keeps_first_surface(self):
        source = textnorm.NormalizedSource.from_text("Neural networks learn")
        phrases = [source.phrase(s) for s in ("neural networks", "Neural-Network")]
        assert [p.surface for p in phrases] == ["neural networks", "Neural-Network"]
        kept = textnorm.dedup_preserve_order(phrases)
        assert [(p.surface, p.is_present) for p in kept] == [("neural networks", True)]
        doc = corpus.Document("d", "Neural networks learn", "", ())
        sample = ("Neural-Network", "neural networks")
        (classified,) = aggregation.classify_samples([sample], source_of(doc))
        assert [p.surface for p in classified] == ["Neural-Network"]

    def test_each_surface_normalized_once_per_source(self, toy_docs, monkeypatch):
        calls = []
        original = textnorm.normalize_phrase

        def counting(surface):
            calls.append(surface)
            return original(surface)

        monkeypatch.setattr(textnorm, "normalize_phrase", counting)
        doc = toy_docs[0]
        samples = toy_samples(doc)
        source = source_of(doc)
        aggregation.classify_samples(samples, source)
        aggregation.classify_samples(samples, source)
        corpus.partition_gold(doc, source)
        sampled = {s for phrases in samples for s in phrases}
        assert sorted(calls) == sorted(sampled | set(doc.gold))
        # a new source (the next document) starts with an empty memo
        calls.clear()
        aggregation.classify_samples(samples, source_of(doc))
        assert sorted(calls) == sorted(sampled)


class TestDedup:
    def test_first_occurrence_kept(self):
        phrases = [textnorm.normalize_phrase(s) for s in ("a", "b", "a", "c")]
        out = textnorm.dedup_preserve_order(phrases)
        assert [p.normalized for p in out] == ["a", "b", "c"]

    def test_stemming_equal_forms_collapse(self):
        phrases = [textnorm.normalize_phrase(s) for s in ("Networks", "network")]
        out = textnorm.dedup_preserve_order(phrases)
        assert len(out) == 1
        assert out[0].surface == "Networks"

    def test_empty_list(self):
        assert textnorm.dedup_preserve_order([]) == []

    def test_empty_normalized_dropped(self):
        phrases = [textnorm.normalize_phrase(s) for s in ("--", "a")]
        out = textnorm.dedup_preserve_order(phrases)
        assert [p.normalized for p in out] == ["a"]


words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
token_lists = st.lists(words, max_size=12)
# Short words over tiny alphabets, so that a phrase often nearly matches the
# source across a token boundary (phrase `b c` against source `ab c`);
# non-ASCII words pass through normalization unstemmed.
near_words = (
    words
    | st.text(alphabet="ab", min_size=1, max_size=3)
    | st.text(alphabet="aéÉß", min_size=1, max_size=3)
)


@given(st.text(max_size=40))
def test_normalized_nonempty_iff_alnum_content(surface):
    p = textnorm.normalize_phrase(surface)
    has_alnum = bool(textnorm.tokenize(surface))
    assert bool(p.normalized) == has_alnum


@given(st.lists(st.text(max_size=10), max_size=10))
def test_dedup_output_distinct_and_subsequence(surfaces):
    phrases = [textnorm.normalize_phrase(s) for s in surfaces]
    out = textnorm.dedup_preserve_order(phrases)
    normals = [p.normalized for p in out]
    assert len(set(normals)) == len(normals)
    assert all(n for n in normals)
    it = iter(phrases)
    assert all(any(p is q for q in it) for p in out)  # subsequence of input


@given(words, token_lists, token_lists, token_lists)
def test_presence_survives_context_extension(word, prefix, middle, suffix):
    phrase = textnorm.normalize_phrase(word)
    core = middle + list(phrase.tokens)
    assert textnorm.is_present(phrase, core)
    assert textnorm.is_present(phrase, prefix + core + suffix)


@given(st.lists(near_words, min_size=1, max_size=3), st.lists(near_words, max_size=12))
def test_is_present_matches_window_scan(phrase_words, source_words):
    phrase = textnorm.normalize_phrase(" ".join(phrase_words))
    source = textnorm.normalize_tokens(" ".join(source_words))
    if not phrase.tokens:
        return
    assert textnorm.is_present(phrase, source) == window_scan_oracle(
        source, list(phrase.tokens)
    )
