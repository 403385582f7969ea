"""Sample ranking, the four aggregation strategies, and dynamic selection."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg.aggregation import (
    EMPTY_PREDICTION,
    STRATEGIES,
    STRATEGY_ALIASES,
    RankedSample,
    SampleSet,
    aggregate_frequency_order,
    aggregate_union,
    aggregate_union_concat,
    aggregate_union_interleaf,
    dynamic_select,
    predict,
    rank_samples,
    resolve_strategy,
)
from kpagg.corpus import Document, partition_gold
from kpagg.llm_client import ParsedSample, parse_sample
from kpagg.textnorm import NormalizedPhrase, NormalizedSource

from .conftest import MOCK_FIXTURES
from .oracles import (
    ceil_mean_oracle,
    frequency_order_oracle,
    union_concat_oracle,
    union_interleaf_oracle,
    union_oracle,
)


def phrase(sym, present=None):
    return NormalizedPhrase(surface=sym, normalized=sym, is_present=present)


def doc_of(text):
    return Document(id="t", title=text, body="", gold=(), domain="scientific")


def sample(symbols, ppl=1.0):
    return RankedSample(
        phrases=tuple(phrase(s) for s in symbols), perplexity=ppl
    )


def sset(*symbol_lists):
    return SampleSet(
        samples=tuple(
            sample(symbols, ppl=float(i + 1))
            for i, symbols in enumerate(symbol_lists)
        )
    )


def normals(phrases):
    return [p.normalized for p in phrases]


class TestResolveStrategy:
    def test_aliases_cover_all(self):
        assert set(STRATEGY_ALIASES.values()) == set(STRATEGIES)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_strategy("median")


class TestRankSamples:
    DOC = doc_of("graph coloring uses networks")

    def test_orders_by_perplexity(self):
        parsed = [
            ParsedSample(phrases=("a",), perplexity=3.0),
            ParsedSample(phrases=("b",), perplexity=1.5),
            ParsedSample(phrases=("c",), perplexity=2.0),
        ]
        ranked = rank_samples(parsed, self.DOC)
        assert [s.perplexity for s in ranked.samples] == [1.5, 2.0, 3.0]
        assert [normals(s.phrases) for s in ranked.samples] == [["b"], ["c"], ["a"]]

    def test_unknown_perplexity_sorts_last(self):
        parsed = [
            ParsedSample(phrases=("a",), perplexity=2.0),
            ParsedSample(phrases=("b",), perplexity=None),
            ParsedSample(phrases=("c",), perplexity=1.0),
        ]
        ranked = rank_samples(parsed, self.DOC)
        assert [normals(s.phrases) for s in ranked.samples] == [["c"], ["a"], ["b"]]

    def test_nan_perplexity_sorts_last(self):
        # sorted() with a NaN key would leave 3.0 ahead of 1.0
        parsed = [
            ParsedSample(phrases=("a",), perplexity=3.0),
            ParsedSample(phrases=("b",), perplexity=math.nan),
            ParsedSample(phrases=("c",), perplexity=1.0),
        ]
        ranked = rank_samples(parsed, self.DOC)
        assert [normals(s.phrases) for s in ranked.samples] == [["c"], ["a"], ["b"]]
        assert predict(parsed, self.DOC, "single").absent[0].normalized == "c"

    def test_stable_for_ties(self):
        parsed = [
            ParsedSample(phrases=("first",), perplexity=1.0),
            ParsedSample(phrases=("second",), perplexity=1.0),
        ]
        ranked = rank_samples(parsed, self.DOC)
        assert [normals(s.phrases) for s in ranked.samples] == [["first"], ["second"]]

    def test_phrases_normalized_deduped_classified(self):
        parsed = [
            ParsedSample(
                phrases=("Graph Coloring", "graph coloring", "Unrelated Idea"),
                perplexity=1.0,
            )
        ]
        ranked = rank_samples(parsed, self.DOC)
        phrases = ranked.samples[0].phrases
        assert normals(phrases) == ["graph color", "unrel idea"]
        assert phrases[0].is_present is True
        assert phrases[1].is_present is False

    def test_present_absent_counts(self):
        s = RankedSample(
            phrases=(phrase("a", True), phrase("b", False), phrase("c", True)),
            perplexity=1.0,
        )
        assert s.present_count == 2
        assert s.absent_count == 1


WORKED = sset(["a", "b"], ["b", "c"], ["d"])


class TestStrategies:
    def test_union_sorted_lexicographically(self):
        out = aggregate_union(WORKED)
        assert normals(out) == ["a", "b", "c", "d"]

    def test_union_keeps_first_surface(self):
        s = SampleSet(
            samples=(
                RankedSample(
                    phrases=(NormalizedPhrase("Nets", "net", None),), perplexity=1.0
                ),
                RankedSample(
                    phrases=(NormalizedPhrase("net", "net", None),), perplexity=2.0
                ),
            )
        )
        out = aggregate_union(s)
        assert [p.surface for p in out] == ["Nets"]

    def test_union_concat_rank_major(self):
        out = aggregate_union_concat(WORKED)
        assert normals(out) == ["a", "b", "c", "d"]

    def test_union_concat_dedup_keeps_first(self):
        out = aggregate_union_concat(sset(["x", "y"], ["y", "z", "x"]))
        assert normals(out) == ["x", "y", "z"]

    def test_interleaf_position_major(self):
        out = aggregate_union_interleaf(WORKED)
        assert normals(out) == ["a", "b", "d", "c"]

    def test_interleaf_uneven_lengths(self):
        out = aggregate_union_interleaf(sset(["a", "b", "c"], ["d"]))
        assert normals(out) == ["a", "d", "b", "c"]

    def test_frequency_order_counts_samples(self):
        s = sset(["a", "b"], ["b", "c"], ["b", "a"])
        out = aggregate_frequency_order(s)
        assert normals(out)[0] == "b"
        assert set(normals(out)) == {"a", "b", "c"}

    def test_frequency_ties_keep_interleaf_order(self):
        s = sset(["a", "b"], ["b", "a"])
        assert normals(aggregate_frequency_order(s)) == normals(
            aggregate_union_interleaf(s)
        )

    def test_empty_sample_set(self):
        empty = SampleSet(samples=())
        for fn in (
            aggregate_union,
            aggregate_union_concat,
            aggregate_union_interleaf,
            aggregate_frequency_order,
        ):
            assert fn(empty) == []


def counted_set(present_counts, absent_counts=None):
    """SampleSet whose samples have the given per-sample phrase counts."""
    absent_counts = absent_counts or [0] * len(present_counts)
    samples = []
    for i, (np, na) in enumerate(zip(present_counts, absent_counts)):
        phrases = tuple(phrase(f"p{i}.{j}", True) for j in range(np)) + tuple(
            phrase(f"a{i}.{j}", False) for j in range(na)
        )
        samples.append(RankedSample(phrases=phrases, perplexity=float(i + 1)))
    return SampleSet(samples=tuple(samples))


class TestDynamicSelect:
    def agg(self, n_present, n_absent=0):
        return [phrase(f"k{i}", True) for i in range(n_present)] + [
            phrase(f"x{i}", False) for i in range(n_absent)
        ]

    def test_ceiling_of_mean(self):
        # present counts [3, 2, 4] -> mean 3 -> M = 3
        agg = self.agg(6)
        pred = dynamic_select(agg, counted_set([3, 2, 4]))
        assert pred.m_pre == 3
        assert list(pred.present) == agg[:3]

    def test_ceiling_rounds_up(self):
        # counts [1, 2, 2] -> mean 5/3 -> M = 2
        pred = dynamic_select(self.agg(3), counted_set([1, 2, 2]))
        assert pred.m_pre == 2
        assert len(pred.present) == 2

    def test_shorter_list_unchanged(self):
        agg = self.agg(1)
        pred = dynamic_select(agg, counted_set([4, 4]))
        assert list(pred.present) == agg

    def test_zero_counts(self):
        pred = dynamic_select(self.agg(1), counted_set([0, 0]))
        assert pred.present == ()
        assert pred.m_pre == 0

    def test_partitions_cut_independently(self):
        agg = self.agg(4, 4)
        pred = dynamic_select(agg, counted_set([2, 2], [1, 3]))
        assert pred.m_pre == 2 and pred.m_abs == 2
        assert [p.normalized for p in pred.present] == ["k0", "k1"]
        assert [p.normalized for p in pred.absent] == ["x0", "x1"]
        assert len(pred.present_full) == 4 and len(pred.absent_full) == 4

    def test_empty_sample_set(self):
        assert dynamic_select(self.agg(3), SampleSet(samples=())) == EMPTY_PREDICTION

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12))
    def test_matches_fraction_oracle(self, counts):
        pred = dynamic_select(self.agg(40), counted_set(counts))
        expected = ceil_mean_oracle(counts)
        assert pred.m_pre == expected
        assert len(pred.present) == min(40, expected)


class TestPredict:
    def test_single_uses_top_sample_only(self):
        parsed = [
            ParsedSample(phrases=("graph coloring", "zebra"), perplexity=1.0),
            ParsedSample(phrases=("networks",), perplexity=2.0),
        ]
        pred = predict(parsed, doc_of("graph coloring networks"), "single")
        assert normals(pred.present) == ["graph color"]
        assert normals(pred.absent) == ["zebra"]

    def test_prediction_lists_disjoint_by_partition(self):
        parsed = [
            ParsedSample(phrases=("graph", "zebra"), perplexity=1.0),
            ParsedSample(phrases=("coloring", "zebra"), perplexity=2.0),
        ]
        pred = predict(parsed, doc_of("graph coloring"), "frequency_order")
        assert all(p.is_present for p in pred.present_full)
        assert all(not p.is_present for p in pred.absent_full)

    def test_truncation_prefix_of_full(self):
        parsed = [
            ParsedSample(phrases=("graph", "coloring", "zebra"), perplexity=1.0),
            ParsedSample(phrases=("graph",), perplexity=2.0),
        ]
        pred = predict(parsed, doc_of("graph coloring"), "union_concat")
        assert pred.present == pred.present_full[: pred.m_pre]
        assert pred.absent == pred.absent_full[: pred.m_abs]

    def test_alias_accepted(self):
        parsed = [ParsedSample(phrases=("graph",), perplexity=1.0)]
        doc = doc_of("graph")
        assert predict(parsed, doc, "frequency") == predict(
            parsed, doc, "frequency_order"
        )

    def test_empty_input(self):
        assert predict([], doc_of("anything"), "union") == EMPTY_PREDICTION


def fixture_samples(doc):
    """The mock server's samples for a toy document, parsed. Perplexities are
    left unknown: the test only compares two runs on the same samples."""
    entries = json.loads(MOCK_FIXTURES.read_text(encoding="utf-8"))["responses"]
    entry = next(e for e in entries if e["match"] in doc.source_text)
    return [parse_sample(s["text"], had_prefill=True) for s in entry["samples"]]


def test_shared_source_gives_same_results(toy_docs):
    for doc in toy_docs:
        parsed = fixture_samples(doc)
        source = NormalizedSource.from_text(doc.source_text)
        assert partition_gold(doc, source) == partition_gold(doc)
        assert rank_samples(parsed, doc, source) == rank_samples(parsed, doc), doc.id


# Random-instance oracle equivalence ------------------------------------------

symbols = st.sampled_from([f"s{i}" for i in range(12)])
instance = st.lists(
    st.lists(symbols, max_size=6).map(
        lambda syms: list(dict.fromkeys(syms))  # per-sample dedup precondition
    ),
    min_size=1,
    max_size=6,
)

ORACLES = {
    "union": (aggregate_union, union_oracle),
    "union_concat": (aggregate_union_concat, union_concat_oracle),
    "union_interleaf": (aggregate_union_interleaf, union_interleaf_oracle),
    "frequency_order": (aggregate_frequency_order, frequency_order_oracle),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
@given(samples=instance)
def test_strategy_matches_oracle(name, samples):
    impl, oracle = ORACLES[name]
    assert normals(impl(sset(*samples))) == oracle(samples)


@given(samples=instance)
def test_all_strategies_emit_exactly_the_union(samples):
    expected = set(union_oracle(samples))
    for impl, _ in ORACLES.values():
        out = normals(impl(sset(*samples)))
        assert set(out) == expected
        assert len(out) == len(set(out))


@given(inner=st.lists(symbols, max_size=8).map(lambda s: list(dict.fromkeys(s))))
def test_single_sample_collapse(inner):
    s = sset(inner)
    assert normals(aggregate_union(s)) == sorted(inner)
    for impl in (
        aggregate_union_concat,
        aggregate_union_interleaf,
        aggregate_frequency_order,
    ):
        assert normals(impl(s)) == inner
