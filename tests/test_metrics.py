"""Scoring math, per-document score records, macro averaging, and report
serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg.aggregation import Prediction
from kpagg.metrics import (
    EMPTY_GOLD_POLICIES,
    METRICS,
    PARTITIONS,
    MetricReport,
    build_report,
    recall_at_inf,
    reports_csv,
    reports_table,
    score_at_k,
    score_at_m,
    score_document,
)

from .oracles import prf_oracle, recall_oracle


def pred_of(present=(), absent=(), present_full=None, absent_full=None):
    """A prediction cut to `present` and `absent`, prefixes of the full lists
    (which default to the cuts themselves)."""
    present_full = present if present_full is None else present_full
    absent_full = absent if absent_full is None else absent_full
    assert list(present_full[: len(present)]) == list(present)
    assert list(absent_full[: len(absent)]) == list(absent)
    return Prediction(
        m_pre=len(present),
        m_abs=len(absent),
        present_full=tuple(present_full),
        absent_full=tuple(absent_full),
    )


def gold_of(present=(), absent=()):
    """A document's gold sets: the `present` forms and the `absent` ones."""
    return set(present), set(absent)


class TestScoreAtM:
    def test_worked_example(self):
        # pred [a, b, c] vs gold {a, d}: P=1/3, R=1/2, F1=0.4
        p, r, f1 = score_at_m(["a", "b", "c"], {"a", "d"})
        assert p == pytest.approx(1 / 3)
        assert r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(0.4)

    def test_perfect(self):
        p, r, f1 = score_at_m(["a", "b"], {"a", "b"})
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_no_overlap(self):
        p, r, f1 = score_at_m(["x"], {"a"})
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_empty_prediction(self):
        p, r, f1 = score_at_m([], {"a"})
        assert (p, r, f1) == (0.0, 0.0, 0.0)


class TestScoreAtK:
    def test_truncation_example(self):
        # 10 predictions, 6 gold, first five all correct plus one later hit.
        preds = [f"g{i}" for i in range(5)] + ["miss1", "g5", "miss2", "miss3", "miss4"]
        gold = {f"g{i}" for i in range(6)}
        p, r, _ = score_at_k(preds, gold, k=5)
        assert p == pytest.approx(1.0)
        assert r == pytest.approx(5 / 6)

    def test_padding_denominator(self):
        # pred [a], gold {a, b}, k=5 with padding: P=1/5, R=1/2, F1=2/7
        p, r, f1 = score_at_k(["a"], {"a", "b"}, k=5)
        assert p == pytest.approx(1 / 5)
        assert r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(2 / 7, abs=1e-9)

    def test_recall_at_inf(self):
        assert recall_at_inf(["a", "x"], {"a", "b"}) == pytest.approx(0.5)
        assert recall_at_inf([], {"a"}) == 0.0


class TestScoreDocument:
    GOLD_P = ("gp1", "gp2")
    GOLD_A = ("ga1",)

    def rows(self, pred, gold_present=GOLD_P, gold_absent=GOLD_A, policy="exclude"):
        return score_document(pred, *gold_of(gold_present, gold_absent), empty_gold=policy)

    def test_full_grid_emitted(self):
        rows = self.rows(pred_of(present=["gp1"], absent=["ga1"]))
        assert set(rows) == {(p, m) for p in PARTITIONS for m in METRICS}

    def test_f1_at_m_uses_truncated_lists(self):
        pred = pred_of(
            present=["gp1"],
            present_full=["gp1", "gp2", "x1", "x2"],
            absent=["ga1"],
        )
        # [gp1] against {gp1, gp2}: P=1, R=1/2, F1=2/3
        assert self.rows(pred)[("present", "f1_at_m")] == pytest.approx(2 / 3)

    def test_rank_metrics_use_full_lists(self):
        pred = pred_of(
            present=["x1"],
            present_full=["x1", "gp1", "gp2"],
            absent=["ga1"],
        )
        rows = self.rows(pred)
        # F1@5: P=2/5 (padded), R=1, F1=4/7
        assert rows[("present", "f1_at_5")] == pytest.approx(4 / 7)
        assert rows[("present", "r_at_10")] == pytest.approx(1.0)
        assert rows[("present", "r_at_inf")] == pytest.approx(1.0)

    def test_r_at_10_cuts_at_ten(self):
        full = [f"x{i}" for i in range(10)] + ["gp1"]
        pred = pred_of(present=["x0"], present_full=full, absent=["ga1"])
        rows = self.rows(pred)
        assert rows[("present", "r_at_10")] == 0.0
        assert rows[("present", "r_at_inf")] == pytest.approx(0.5)

    def test_empty_gold_excluded_by_default(self):
        rows = self.rows(pred_of(present=["x"]), gold_absent=())
        assert not any(p == "absent" for p, _ in rows)
        assert any(p == "present" for p, _ in rows)

    def test_empty_gold_zero_policy(self):
        rows = self.rows(pred_of(present=["x"]), gold_absent=(), policy="zero")
        assert [rows[("absent", metric)] for metric in METRICS] == [0.0] * len(METRICS)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            score_document(pred_of(), *gold_of(("a",)), empty_gold="skip")


class TestMacroAverage:
    """build_report averages each cell over the records that have it."""

    def test_simple_mean(self):
        records = [{("present", "f1_at_m"): v} for v in (0.5, 1.0, 0.0)]
        report = build_report("c", "v", "s", records)
        assert report.table[("present", "f1_at_m")] == pytest.approx(0.5)
        assert report.counts[("present", "f1_at_m")] == 3

    def test_empty_is_none(self):
        report = build_report("c", "v", "s", [])
        assert set(report.table) == {(p, m) for p in PARTITIONS for m in METRICS}
        assert all(value is None for value in report.table.values())
        assert all(count == 0 for count in report.counts.values())

    def test_reports_share_no_dict(self):
        first = build_report("c", "v", "s", [])
        second = build_report("c", "v", "s", [{("present", "f1_at_m"): 1.0}])
        assert first.table is not second.table
        assert first.counts is not second.counts
        assert first.table[("present", "f1_at_m")] is None
        assert first.counts[("present", "f1_at_m")] == 0


def toy_report():
    docs = [
        (pred_of(present=["a", "x"]), gold_of(("a", "b"), ("z",))),
        (pred_of(present=["b"]), gold_of(("b",), ())),
    ]
    scores = [score_document(pred, *gold, empty_gold="exclude") for pred, gold in docs]
    return build_report("toy", "baseline", "union", scores)


class TestReport:
    def test_counts_respect_exclusion(self):
        report = toy_report()
        assert report.counts[("present", "f1_at_m")] == 2
        assert report.counts[("absent", "f1_at_m")] == 1

    def test_macro_value(self):
        report = toy_report()
        # d1 present F1@M: P=1/2 R=1/2 F1=1/2; d2: perfect 1.0 -> mean 0.75
        assert report.table[("present", "f1_at_m")] == pytest.approx(0.75)
        assert report.table[("absent", "f1_at_m")] == 0.0

    def test_values_in_unit_interval(self):
        report = toy_report()
        for value in report.table.values():
            if value is not None:
                assert 0.0 <= value <= 1.0

    def test_csv_shape_and_determinism(self):
        report = toy_report()
        text = reports_csv([report])
        lines = text.strip().split("\n")
        assert lines[0] == "corpus,variant,strategy,partition,metric,value,count"
        assert len(lines) == 1 + len(PARTITIONS) * len(METRICS)
        assert reports_csv([report]) == text

    def test_csv_none_rendered_na(self):
        report = MetricReport(
            corpus="c",
            variant="v",
            strategy="s",
            table={(p, m): None for p in PARTITIONS for m in METRICS},
            counts={(p, m): 0 for p in PARTITIONS for m in METRICS},
        )
        text = reports_csv([report])
        assert "n/a" in text

    def test_table_renders(self):
        text = reports_table([toy_report()])
        assert "P-F1@M" in text
        assert "A-F1@M" in text
        assert "toy" in text


# Oracle equivalence -----------------------------------------------------------

syms = st.sampled_from([f"k{i}" for i in range(15)])
pred_lists = st.lists(syms, max_size=10, unique=True)
gold_sets = st.sets(syms, min_size=1, max_size=8)


@given(pred_lists, gold_sets)
def test_score_at_m_matches_oracle(pred, gold):
    assert score_at_m(pred, gold) == pytest.approx(prf_oracle(pred, gold))


@given(pred_lists, gold_sets, st.integers(min_value=1, max_value=12))
def test_score_at_k_matches_oracle(pred, gold, k):
    got = score_at_k(pred, gold, k=k)
    assert got == pytest.approx(prf_oracle(pred, gold, k=k, pad=True))


@given(pred_lists, gold_sets)
def test_recall_matches_oracle(pred, gold):
    assert recall_at_inf(pred, gold) == pytest.approx(recall_oracle(pred, set(gold)))


@given(pred_lists, gold_sets)
def test_recall_monotone_in_prefix_length(pred, gold):
    values = [recall_at_inf(pred[:i], gold) for i in range(len(pred) + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == recall_at_inf(pred, gold)


@pytest.mark.oracle
@given(
    present_full=pred_lists,
    absent_full=pred_lists,
    m_pre=st.integers(min_value=0, max_value=12),
    m_abs=st.integers(min_value=0, max_value=12),
    gold_present=st.sets(syms, max_size=8),
    gold_absent=st.sets(syms, max_size=8),
    policy=st.sampled_from(EMPTY_GOLD_POLICIES),
)
def test_score_document_matches_oracle(
    present_full, absent_full, m_pre, m_abs, gold_present, gold_absent, policy
):
    pred = Prediction(
        m_pre=m_pre,
        m_abs=m_abs,
        present_full=tuple(present_full),
        absent_full=tuple(absent_full),
    )
    want = {}
    for partition, full, m, gold_set in (
        ("present", present_full, m_pre, gold_present),
        ("absent", absent_full, m_abs, gold_absent),
    ):
        if not gold_set:
            if policy == "zero":
                want.update({(partition, metric): 0.0 for metric in METRICS})
            continue
        want[(partition, "f1_at_m")] = prf_oracle(full[:m], gold_set)[2]
        want[(partition, "f1_at_5")] = prf_oracle(full, gold_set, k=5, pad=True)[2]
        want[(partition, "r_at_10")] = recall_oracle(full[:10], gold_set)
        want[(partition, "r_at_inf")] = recall_oracle(full, gold_set)
    got = score_document(pred, gold_present, gold_absent, empty_gold=policy)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12, key
