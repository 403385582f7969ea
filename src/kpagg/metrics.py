"""Present/absent keyphrase metrics and macro-averaged reports.

Per document and partition (present / absent gold):

- F1@M: F1 of the dynamically truncated prediction against gold;
- F1@5: F1 of the top 5 of the untruncated partition list, padding the
  precision denominator to 5 with never-matching dummies when shorter;
- R@10: recall of the top 10 of the untruncated partition list;
- R@Inf: recall of the whole untruncated list (perfect-selector bound).

Documents whose gold partition is empty are excluded from that partition's
macro averages by default (or scored zero under the "zero" policy). All
matching is on normalized forms.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .aggregation import Prediction
from .corpus import GoldPartition

PARTITIONS = ("present", "absent")
METRICS = ("f1_at_m", "f1_at_5", "r_at_10", "r_at_inf")
# How a document with no gold in a partition enters that partition's averages.
EMPTY_GOLD_POLICIES = ("exclude", "zero")


@dataclass(frozen=True)
class DocScore:
    doc_id: str
    partition: str
    metric: str
    precision: float | None
    recall: float
    f1: float | None

    @property
    def value(self) -> float:
        """The reported number: F1 for F1 metrics, recall for recall ones."""
        return self.f1 if self.f1 is not None else self.recall


@dataclass
class MetricReport:
    corpus: str
    variant: str
    strategy: str
    table: dict[tuple[str, str], float | None] = field(default_factory=dict)
    counts: dict[tuple[str, str], int] = field(default_factory=dict)


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def score_at_m(pred: list[str], gold: set[str]) -> tuple[float, float, float]:
    """P/R/F1 of a duplicate-free prediction list against nonempty gold."""
    matches = sum(1 for p in pred if p in gold)
    precision = matches / len(pred) if pred else 0.0
    recall = matches / len(gold)
    return precision, recall, _f1(precision, recall)


def score_at_k(pred: list[str], gold: set[str], k: int, pad: bool) -> tuple[float, float, float]:
    """P/R/F1 of the first k predictions. With pad=True the precision
    denominator stays k even when fewer than k predictions exist."""
    top = pred[:k]
    matches = sum(1 for p in top if p in gold)
    denom = k if pad else len(top)
    precision = matches / denom if denom else 0.0
    recall = matches / len(gold)
    return precision, recall, _f1(precision, recall)


def recall_at_inf(all_phrases: list[str], gold: set[str]) -> float:
    """Recall of the untruncated list: what a perfect selector could reach."""
    matches = sum(1 for p in all_phrases if p in gold)
    return matches / len(gold)


def score_document(
    doc_id: str,
    prediction: Prediction,
    gold: GoldPartition,
    empty_gold: str = "exclude",
) -> list[DocScore]:
    """All DocScores for one document. Empty-gold partitions either produce
    no rows ("exclude") or all-zero rows ("zero")."""
    if empty_gold not in EMPTY_GOLD_POLICIES:
        raise ValueError(f"unknown empty-gold policy {empty_gold!r}")
    rows: list[DocScore] = []
    for partition in PARTITIONS:
        gold_set = {p.normalized for p in getattr(gold, partition)}
        if not gold_set:
            if empty_gold == "zero":
                for metric in METRICS:
                    f1 = 0.0 if metric.startswith("f1_") else None
                    rows.append(DocScore(doc_id, partition, metric, f1, 0.0, f1))
            continue
        pred_m = [p.normalized for p in getattr(prediction, partition)]
        pred_full = [p.normalized for p in getattr(prediction, f"{partition}_full")]
        p, r, f = score_at_m(pred_m, gold_set)
        rows.append(DocScore(doc_id, partition, "f1_at_m", p, r, f))
        p, r, f = score_at_k(pred_full, gold_set, 5, pad=True)
        rows.append(DocScore(doc_id, partition, "f1_at_5", p, r, f))
        _, r, _ = score_at_k(pred_full, gold_set, 10, pad=False)
        rows.append(DocScore(doc_id, partition, "r_at_10", None, r, None))
        r = recall_at_inf(pred_full, gold_set)
        rows.append(DocScore(doc_id, partition, "r_at_inf", None, r, None))
    return rows


def macro_average(scores: list[DocScore]) -> tuple[float | None, int]:
    """Mean reported value over the given per-document scores; (None, 0)
    when no document contributed."""
    if not scores:
        return None, 0
    return sum(s.value for s in scores) / len(scores), len(scores)


def build_report(
    corpus: str, variant: str, strategy: str, scores: list[DocScore]
) -> MetricReport:
    report = MetricReport(corpus=corpus, variant=variant, strategy=strategy)
    cells: dict[tuple[str, str], list[DocScore]] = {
        (partition, metric): [] for partition in PARTITIONS for metric in METRICS
    }
    for s in scores:
        cells[(s.partition, s.metric)].append(s)
    for key, cell in cells.items():
        report.table[key], report.counts[key] = macro_average(cell)
    return report


def reports_csv(reports: list[MetricReport]) -> str:
    """Machine-readable CSV, one row per (partition, metric) cell, in a
    fixed order so identical runs produce identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["corpus", "variant", "strategy", "partition", "metric", "value", "count"])
    for report in reports:
        for partition in PARTITIONS:
            for metric in METRICS:
                value = report.table.get((partition, metric))
                writer.writerow(
                    [
                        report.corpus,
                        report.variant,
                        report.strategy,
                        partition,
                        metric,
                        "n/a" if value is None else f"{value:.6f}",
                        report.counts.get((partition, metric), 0),
                    ]
                )
    return buf.getvalue()


_COLUMN_LABELS = {
    "f1_at_m": "F1@M",
    "f1_at_5": "F1@5",
    "r_at_10": "R@10",
    "r_at_inf": "R@Inf",
}


def reports_table(reports: list[MetricReport]) -> str:
    """Aligned text table: one row per run, present and absent metric
    columns side by side, values in [0, 1]."""
    headers = ["corpus", "variant", "strategy"] + [
        f"{'P' if part == 'present' else 'A'}-{_COLUMN_LABELS[m]}"
        for part in PARTITIONS
        for m in METRICS
    ]
    rows = []
    for report in reports:
        row = [report.corpus, report.variant, report.strategy]
        for partition in PARTITIONS:
            for metric in METRICS:
                value = report.table.get((partition, metric))
                row.append("n/a" if value is None else f"{value:.4f}")
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
