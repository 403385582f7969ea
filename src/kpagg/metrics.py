"""Present/absent keyphrase metrics and macro-averaged reports.

Each metric is defined once, in `_METRIC_TABLE`: its column label and its
value function, which takes a partition's untruncated normalized list, its
cut M and its gold set:

- F1@M: F1 of the first M phrases (the dynamically truncated prediction);
- F1@5: F1 of the top 5, padding the precision denominator to 5 with
  never-matching dummies when the list is shorter;
- R@10: recall of the top 10;
- R@Inf: recall of the whole list (perfect-selector bound).

`score_document` gives one flat record per document, the reported value of
each (partition, metric) cell. It takes the document's gold as two sets of
normalized forms, present and absent, which the caller makes once per
document and shares between configs. A partition whose gold is empty has
no cells by default ("exclude"), or 0.0 cells under the "zero" policy; a
report averages each cell over the documents that have it. All matching is
on normalized forms, one set lookup per predicted phrase.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from typing import NamedTuple

from .aggregation import Prediction

PARTITIONS = ("present", "absent")
# How a document with no gold in a partition enters that partition's averages.
EMPTY_GOLD_POLICIES = ("exclude", "zero")


class MetricReport(NamedTuple):
    corpus: str
    variant: str
    strategy: str
    table: dict[tuple[str, str], float | None]
    counts: dict[tuple[str, str], int]


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def score_at_m(pred: Sequence[str], gold: set[str]) -> tuple[float, float, float]:
    """P/R/F1 of a duplicate-free prediction list against nonempty gold."""
    matches = sum(map(gold.__contains__, pred))
    precision = matches / len(pred) if pred else 0.0
    recall = matches / len(gold)
    return precision, recall, _f1(precision, recall)


def score_at_k(pred: Sequence[str], gold: set[str], k: int) -> tuple[float, float, float]:
    """P/R/F1 of the first k predictions; the precision denominator stays k
    even when fewer than k predictions exist."""
    matches = sum(map(gold.__contains__, pred[:k]))
    precision = matches / k
    recall = matches / len(gold)
    return precision, recall, _f1(precision, recall)


def recall_at_inf(all_phrases: Sequence[str], gold: set[str]) -> float:
    """Recall of the untruncated list: what a perfect selector could reach."""
    matches = sum(map(gold.__contains__, all_phrases))
    return matches / len(gold)


# name -> (column label, value of (untruncated list, M, gold set))
_METRIC_TABLE = {
    "f1_at_m": ("F1@M", lambda full, m, gold: score_at_m(full[:m], gold)[2]),
    "f1_at_5": ("F1@5", lambda full, m, gold: score_at_k(full, gold, 5)[2]),
    "r_at_10": ("R@10", lambda full, m, gold: score_at_m(full[:10], gold)[1]),
    "r_at_inf": ("R@Inf", lambda full, m, gold: recall_at_inf(full, gold)),
}
METRICS = tuple(_METRIC_TABLE)
# every (partition, metric) cell of a report, in CSV and table order
CELLS = tuple((partition, metric) for partition in PARTITIONS for metric in METRICS)


def score_document(
    prediction: Prediction,
    gold_present: set[str],
    gold_absent: set[str],
    empty_gold: str = "exclude",
) -> dict[tuple[str, str], float]:
    """One document's reported value per (partition, metric) cell, against
    its present and absent gold forms. A partition without gold has no
    cells ("exclude") or 0.0 cells ("zero")."""
    if empty_gold not in EMPTY_GOLD_POLICIES:
        raise ValueError(f"unknown empty-gold policy {empty_gold!r}")
    scores: dict[tuple[str, str], float] = {}
    fulls = (prediction.present_full, prediction.absent_full)
    cuts = (prediction.m_pre, prediction.m_abs)
    for partition, full, m, gold in zip(PARTITIONS, fulls, cuts, (gold_present, gold_absent)):
        if not gold:
            if empty_gold == "zero":
                scores.update(((partition, metric), 0.0) for metric in METRICS)
            continue
        for metric, (_, value) in _METRIC_TABLE.items():
            scores[(partition, metric)] = value(full, m, gold)
    return scores


def build_report(
    corpus: str,
    variant: str,
    strategy: str,
    scores: list[dict[tuple[str, str], float]],
) -> MetricReport:
    """Macro-average each cell over the per-document records that have it,
    in their order; a cell no document has is None with count 0."""
    table: dict[tuple[str, str], float | None] = {}
    counts: dict[tuple[str, str], int] = {}
    for cell in CELLS:
        values = [record[cell] for record in scores if cell in record]
        table[cell] = sum(values) / len(values) if values else None
        counts[cell] = len(values)
    return MetricReport(corpus, variant, strategy, table, counts)


def reports_csv(reports: list[MetricReport]) -> str:
    """Machine-readable CSV, one row per (partition, metric) cell, in a
    fixed order so identical runs produce identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["corpus", "variant", "strategy", "partition", "metric", "value", "count"])
    for report in reports:
        for cell in CELLS:
            value = report.table.get(cell)
            writer.writerow(
                [
                    report.corpus,
                    report.variant,
                    report.strategy,
                    *cell,
                    "n/a" if value is None else f"{value:.6f}",
                    report.counts.get(cell, 0),
                ]
            )
    return buf.getvalue()


def reports_table(reports: list[MetricReport], labels: dict[str, list] | None = None) -> str:
    """Aligned text table: one row per run, present and absent metric
    columns side by side, values in [0, 1]. `labels` adds a column after
    corpus, variant and strategy for each of its names, holding its
    values, one per report."""
    labels = labels or {}
    headers = ["corpus", "variant", "strategy", *labels] + [
        f"{partition[0].upper()}-{_METRIC_TABLE[metric][0]}" for partition, metric in CELLS
    ]
    rows = [
        [report.corpus, report.variant, report.strategy, *(str(v[i]) for v in labels.values())]
        + ["n/a" if v is None else f"{v:.4f}" for v in map(report.table.get, CELLS)]
        for i, report in enumerate(reports)
    ]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = [headers, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in lines)
