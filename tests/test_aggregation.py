"""Sample ranking, the four aggregation strategies, dynamic selection, and
the merge the harness runs on them."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg.aggregation import (
    EMPTY_PREDICTION,
    STRATEGIES,
    STRATEGY_ALIASES,
    aggregate_frequency_order,
    aggregate_union,
    aggregate_union_concat,
    aggregate_union_interleaf,
    predict,
    rank,
    resolve_strategy,
)
from kpagg.llm_client import parse_sample
from kpagg.textnorm import NormalizedSource

from .conftest import MOCK_FIXTURES
from .oracles import (
    ceil_mean_oracle,
    frequency_order_oracle,
    single_oracle,
    union_concat_oracle,
    union_interleaf_oracle,
    union_oracle,
)


def ranked_of(text, phrase_lists, perplexities):
    """Surface phrase lists the way the harness takes them: made into
    phrases against the source `text`, then ranked by `perplexities`; with
    the source's set of present forms."""
    source = NormalizedSource.from_text(text)
    ranked = rank([source.phrases(phrases) for phrases in phrase_lists], perplexities)
    return ranked, source.present


def sset(*symbol_lists):
    """A ranked set of the given samples, best first."""
    return tuple(tuple(symbols) for symbols in symbol_lists)


def normals(phrases):
    return list(phrases)


def frequency_order(ranked) -> list[str]:
    """`aggregate_frequency_order` of `ranked`, given the interleaf that
    `predict` makes for it."""
    return aggregate_frequency_order(ranked, aggregate_union_interleaf(ranked))


class TestResolveStrategy:
    def test_aliases_cover_all(self):
        assert set(STRATEGY_ALIASES.values()) == set(STRATEGIES)

    def test_alias_accepted(self):
        # an alias and its full name resolve to the one canonical name
        assert resolve_strategy("frequency") == resolve_strategy("frequency_order")
        for alias, name in STRATEGY_ALIASES.items():
            assert resolve_strategy(alias) == resolve_strategy(name) == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_strategy("median")


class TestRankSamples:
    """Each sample's phrases, then rank: the order and content of a ranked set."""

    TEXT = "graph coloring uses networks"

    def test_orders_by_perplexity(self):
        ranked, _ = ranked_of(self.TEXT, [("a",), ("b",), ("c",)], [3.0, 1.5, 2.0])
        assert [normals(s) for s in ranked] == [["b"], ["c"], ["a"]]

    def test_unknown_perplexity_sorts_last(self):
        ranked, _ = ranked_of(self.TEXT, [("a",), ("b",), ("c",)], [2.0, None, 1.0])
        assert [normals(s) for s in ranked] == [["c"], ["a"], ["b"]]

    def test_nan_perplexity_sorts_last(self):
        # sorted() with a NaN key would leave 3.0 ahead of 1.0
        ranked, present = ranked_of(self.TEXT, [("a",), ("b",), ("c",)], [3.0, math.nan, 1.0])
        assert [normals(s) for s in ranked] == [["c"], ["a"], ["b"]]
        [pred] = predict(ranked, present, ["single"])
        assert pred.absent_full[: pred.m_abs][0] == "c"

    def test_stable_for_ties(self):
        ranked, _ = ranked_of(self.TEXT, [("first",), ("second",)], [1.0, 1.0])
        assert [normals(s) for s in ranked] == [["first"], ["second"]]

    def test_phrases_normalized_deduped_classified(self):
        ranked, present = ranked_of(
            self.TEXT, [("Graph Coloring", "graph coloring", "Unrelated Idea")], [1.0]
        )
        phrases = ranked[0]
        assert normals(phrases) == ["graph color", "unrel idea"]
        assert (phrases[0] in present) is True
        assert (phrases[1] in present) is False

    def test_present_absent_counts(self):
        s = ("a", "b", "c")
        [pred] = predict((s,), {"a", "c"}, ["union_concat"])
        assert pred.m_pre == 2
        assert pred.m_abs == 1


WORKED = sset(["a", "b"], ["b", "c"], ["d"])


class TestDedup:
    """First-occurrence dedup, which `union_concat` is over its samples."""

    def test_first_occurrence_kept(self):
        out = aggregate_union_concat([("a", "b", "a", "c")])
        assert out == ["a", "b", "c"]

    def test_stemming_equal_forms_collapse(self):
        phrases = [NormalizedSource(()).phrases([s])[0] for s in ("Networks", "network")]
        out = aggregate_union_concat([phrases])
        assert out == ["network"]
        assert NormalizedSource(()).phrases(["Networks", "network"]) == ("network",)

    def test_empty_list(self):
        assert aggregate_union_concat([]) == []


class TestStrategies:
    def test_union_sorted_lexicographically(self):
        out = aggregate_union(WORKED)
        assert normals(out) == ["a", "b", "c", "d"]

    def test_union_collapses_equal_forms(self):
        out = aggregate_union((("net",), ("net",)))
        assert out == ["net"]

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
        out = frequency_order(s)
        assert normals(out)[0] == "b"
        assert set(normals(out)) == {"a", "b", "c"}

    def test_frequency_ties_keep_interleaf_order(self):
        s = sset(["a", "b"], ["b", "a"])
        assert normals(frequency_order(s)) == normals(
            aggregate_union_interleaf(s)
        )

    def test_empty_sample_set(self):
        empty = ()
        for fn in (
            aggregate_union,
            aggregate_union_concat,
            aggregate_union_interleaf,
            frequency_order,
        ):
            assert fn(empty) == []


def counted_set(present_counts, absent_counts=None):
    """Ranked set whose samples have the given per-sample phrase counts:
    `p...` phrases present, `a...` phrases absent."""
    absent_counts = absent_counts or [0] * len(present_counts)
    return tuple(
        tuple(f"p{i}.{j}" for j in range(np)) + tuple(f"a{i}.{j}" for j in range(na))
        for i, (np, na) in enumerate(zip(present_counts, absent_counts))
    )


def present_of(*phrase_lists):
    """The present forms among `phrase_lists`: those named `p...` or `k...`."""
    return {p for phrases in phrase_lists for p in phrases if p[0] in "pk"}


def select(ranked):
    """The `union_concat` prediction of `ranked`: its samples concatenated,
    split by presence and cut dynamically."""
    return predict(ranked, present_of(*ranked), ["union_concat"])[0]


class TestDynamicSelect:
    def test_ceiling_of_mean(self):
        # present counts [3, 2, 4] -> mean 3 -> M = 3
        ranked = counted_set([3, 2, 4])
        pred = select(ranked)
        assert pred.m_pre == 3
        assert list(pred.present_full[: pred.m_pre]) == list(ranked[0])

    def test_ceiling_rounds_up(self):
        # counts [1, 2, 2] -> mean 5/3 -> M = 2
        pred = select(counted_set([1, 2, 2]))
        assert pred.m_pre == 2
        assert len(pred.present_full[: pred.m_pre]) == 2

    def test_shorter_list_unchanged(self):
        # samples that repeat one another merge to a list no longer than
        # its cut, which keeps all of it
        pred = select(sset(["k0", "k1"], ["k1", "k0"]))
        assert pred.m_pre == 2
        assert list(pred.present_full[: pred.m_pre]) == ["k0", "k1"]

    def test_zero_counts(self):
        pred = select(counted_set([0, 0], [1, 1]))
        assert pred.present_full[: pred.m_pre] == ()
        assert pred.m_pre == 0

    def test_partitions_cut_independently(self):
        pred = select(counted_set([2, 2], [1, 3]))
        assert pred.m_pre == 2 and pred.m_abs == 2
        assert normals(pred.present_full[: pred.m_pre]) == ["p0.0", "p0.1"]
        assert normals(pred.absent_full[: pred.m_abs]) == ["a0.0", "a1.0"]
        assert len(pred.present_full) == 4 and len(pred.absent_full) == 4

    def test_empty_sample_set(self):
        assert select(()) == EMPTY_PREDICTION

    @pytest.mark.oracle
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12))
    def test_matches_fraction_oracle(self, counts):
        pred = select(counted_set(counts))
        expected = ceil_mean_oracle(counts)
        assert pred.m_pre == expected
        assert len(pred.present_full[: pred.m_pre]) == min(sum(counts), expected)


class TestPredict:
    """The per-document path the harness runs: classify, rank, merge."""

    def test_single_uses_top_sample_only(self):
        ranked, present = ranked_of(
            "graph coloring networks",
            [("graph coloring", "zebra"), ("networks",)],
            [1.0, 2.0],
        )
        [pred] = predict(ranked, present, ["single"])
        assert normals(pred.present_full[: pred.m_pre]) == ["graph color"]
        assert normals(pred.absent_full[: pred.m_abs]) == ["zebra"]

    def test_prediction_lists_disjoint_by_partition(self):
        ranked, present = ranked_of(
            "graph coloring", [("graph", "zebra"), ("coloring", "zebra")], [1.0, 2.0]
        )
        [pred] = predict(ranked, present, ["frequency_order"])
        assert all(p in present for p in pred.present_full)
        assert all(p not in present for p in pred.absent_full)

    def test_truncation_prefix_of_full(self):
        ranked, present = ranked_of(
            "graph coloring", [("graph", "coloring", "zebra"), ("networks",)], [1.0, 2.0]
        )
        [pred] = predict(ranked, present, ["union_concat"])
        # present counts 2 and 0 cut at 1; absent counts 1 and 1 cut at 1
        assert (pred.m_pre, pred.m_abs) == (1, 1)
        assert normals(pred.present_full) == ["graph", "color"]
        assert normals(pred.absent_full) == ["zebra", "network"]
        assert normals(pred.present_full[: pred.m_pre]) == ["graph"]
        assert normals(pred.absent_full[: pred.m_abs]) == ["zebra"]

    def test_empty_input(self):
        ranked, present = ranked_of("anything", [], [])
        assert predict(ranked, present, ["union"]) == [EMPTY_PREDICTION]


def fixture_samples(doc):
    """The phrase lists of the mock server's samples for a toy document."""
    entries = json.loads(MOCK_FIXTURES.read_text(encoding="utf-8"))["responses"]
    entry = next(e for e in entries if e["match"] in doc.source_text)
    return [parse_sample(s["text"], "[").phrases for s in entry["samples"]]


def test_shared_source_gives_same_results(toy_docs):
    for doc in toy_docs:
        phrase_lists = fixture_samples(doc)
        source = NormalizedSource.from_text(doc.source_text)
        gold = NormalizedSource.from_text(doc.source_text).phrases(doc.gold)
        assert source.phrases(doc.gold) == gold
        fresh = NormalizedSource.from_text(doc.source_text)
        assert [source.phrases(p) for p in phrase_lists] == [
            fresh.phrases(p) for p in phrase_lists
        ], doc.id
        classified = [[p in source.present for p in source.phrases(p)] for p in phrase_lists]
        assert classified == [
            [p in fresh.present for p in fresh.phrases(p)] for p in phrase_lists
        ], doc.id


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
    "frequency_order": (frequency_order, frequency_order_oracle),
}


@pytest.mark.oracle
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


@pytest.mark.oracle
@given(inner=st.lists(symbols, max_size=8).map(lambda s: list(dict.fromkeys(s))))
def test_single_sample_collapse(inner):
    s = sset(inner)
    assert normals(aggregate_union(s)) == sorted(inner)
    for impl in (
        aggregate_union_concat,
        aggregate_union_interleaf,
        frequency_order,
    ):
        assert normals(impl(s)) == inner


# samples of distinct symbols, and the set of symbols present in the source
classified_instance = st.tuples(
    st.lists(st.lists(symbols, max_size=6, unique=True), max_size=6),
    st.sets(symbols),
)


def split_oracle(merged, ranked, present):
    """`merged` split by presence, in order, each part cut at the ceiling
    of the mean per-sample count of its phrases in `ranked`."""
    def cut(want):
        return ceil_mean_oracle([sum(1 for p in s if (p in present) is want) for s in ranked])

    return (
        cut(True),
        cut(False),
        tuple(p for p in merged if p in present),
        tuple(p for p in merged if p not in present),
    )


@pytest.mark.oracle
@given(instance=classified_instance, strategies=st.permutations(STRATEGIES))
def test_predict_equals_each_strategy_on_its_own(instance, strategies):
    # the interleaf and the cuts predict shares equal those of each strategy
    ranked, present = sset(*instance[0]), instance[1]
    depth = {"single": 1}
    aggregate = {"single": aggregate_union_concat, **{k: v[0] for k, v in ORACLES.items()}}
    want = [
        split_oracle(aggregate[s](ranked[: depth.get(s)]), ranked[: depth.get(s)], present)
        for s in strategies
    ]
    assert predict(ranked, present, strategies) == want


@pytest.mark.oracle
@given(instance=classified_instance)
def test_single_matches_top_sample_split_oracle(instance):
    ranked, present = instance
    samples = [[(s, s in present) for s in sample] for sample in ranked]
    [pred] = predict(sset(*ranked), present, ["single"])
    got = {
        "present": normals(pred.present_full[: pred.m_pre]),
        "absent": normals(pred.absent_full[: pred.m_abs]),
        "m_pre": pred.m_pre,
        "m_abs": pred.m_abs,
        "present_full": normals(pred.present_full),
        "absent_full": normals(pred.absent_full),
    }
    assert got == single_oracle(samples)
