"""Multi-sample aggregation and dynamic keyphrase-number selection.

A sample is a tuple of normalized, deduplicated, presence-classified
phrases (`NormalizedSource.phrases` of its phrase list); a ranked set is a
tuple of samples by ascending perplexity, unknown last (`rank`). It is
merged by one of four strategies:

- union: set union, emitted in lexicographic order of normalized form;
- union_concat: concatenation in rank order, first-occurrence dedup;
- union_interleaf: round-robin by position across ranked samples, dedup;
- frequency_order: phrases sorted by how many samples contain them,
  ties broken by interleaf position.

The merged list is split by presence into a `Prediction`: each part whole
and its cut M, the ceiling of the per-sample average count of present (and,
separately, absent) phrases; the prediction proper is each part's first M
phrases. The `single` strategy merges the top-ranked sample alone by
union_concat, so its cut keeps all of it. Each strategy is one
`_STRATEGIES` entry: its CLI alias, its aggregator, and how many ranked
samples it merges.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .textnorm import NormalizedPhrase

# One sample's phrases, normalized, deduplicated and presence-classified.
Sample = tuple[NormalizedPhrase, ...]


def resolve_strategy(name: str) -> str:
    if name in STRATEGY_ALIASES:
        return STRATEGY_ALIASES[name]
    if name in _STRATEGIES:
        return name
    raise ValueError(f"unknown aggregation strategy {name!r}")


class Prediction(NamedTuple):
    """Final ranked prediction: the aggregated list split by presence, whole,
    and each part's cut M. The prediction proper is `present_full[:m_pre]`
    and `absent_full[:m_abs]`; the @k and @Inf metrics read the whole lists."""

    m_pre: int
    m_abs: int
    present_full: tuple[NormalizedPhrase, ...]
    absent_full: tuple[NormalizedPhrase, ...]


EMPTY_PREDICTION = Prediction(m_pre=0, m_abs=0, present_full=(), absent_full=())


def _rank_key(pair: tuple[float | None, Sample]) -> tuple[bool, float]:
    """Ascending perplexity; unknown (None or NaN) after every known value."""
    ppl = pair[0]
    if ppl is None or math.isnan(ppl):
        return (True, 0.0)
    return (False, ppl)


def rank(
    samples: Sequence[Sample], perplexities: Sequence[float | None]
) -> tuple[Sample, ...]:
    """The samples sorted by their perplexities, ascending (unknown last,
    original order kept among equals). A NaN perplexity counts as unknown."""
    pairs = sorted(zip(perplexities, samples, strict=True), key=_rank_key)
    return tuple(sample for _, sample in pairs)


def aggregate_union(ranked: Sequence[Sample]) -> list[NormalizedPhrase]:
    """Set union of all samples, in lexicographic order of normalized form.

    The union destroys sample order, so a deterministic emission order is
    imposed; the surface form kept is the first one seen in rank order.
    """
    first: dict[str, NormalizedPhrase] = {}
    for sample in ranked:
        for p in sample:
            first.setdefault(p.normalized, p)
    return [first[key] for key in sorted(first)]


def dedup_preserve_order(phrases: list[NormalizedPhrase]) -> list[NormalizedPhrase]:
    """Keep the first phrase for each distinct normalized form."""
    seen: set[str] = set()
    out: list[NormalizedPhrase] = []
    for p in phrases:
        if p.normalized not in seen:
            seen.add(p.normalized)
            out.append(p)
    return out


def aggregate_union_concat(ranked: Sequence[Sample]) -> list[NormalizedPhrase]:
    """Concatenate samples in rank order, keep first occurrences."""
    return dedup_preserve_order([p for sample in ranked for p in sample])


def aggregate_union_interleaf(ranked: Sequence[Sample]) -> list[NormalizedPhrase]:
    """Round-robin across ranked samples: every sample's first phrase,
    then every second phrase, and so on; then first-occurrence dedup."""
    merged: list[NormalizedPhrase] = []
    position = 0
    while True:
        found = False
        for sample in ranked:
            if position < len(sample):
                merged.append(sample[position])
                found = True
        if not found:
            break
        position += 1
    return dedup_preserve_order(merged)


def aggregate_frequency_order(ranked: Sequence[Sample]) -> list[NormalizedPhrase]:
    """Sort by the number of samples containing each phrase, descending;
    phrases tied on frequency keep their interleaf order."""
    counts: Counter[str] = Counter()
    for sample in ranked:
        for p in sample:  # samples are already deduplicated
            counts[p.normalized] += 1
    interleaf = aggregate_union_interleaf(ranked)
    return sorted(interleaf, key=lambda p: -counts[p.normalized])


# canonical name -> (short CLI alias, aggregator, how many of the ranked
# samples it merges: None for all)
_STRATEGIES = {
    "single": ("single", aggregate_union_concat, 1),
    "union": ("union", aggregate_union, None),
    "union_concat": ("union-concat", aggregate_union_concat, None),
    "union_interleaf": ("union-interleaf", aggregate_union_interleaf, None),
    "frequency_order": ("frequency", aggregate_frequency_order, None),
}
STRATEGY_ALIASES = {alias: name for name, (alias, _, _) in _STRATEGIES.items()}
STRATEGIES = tuple(_STRATEGIES)


def _ceil_div(total: int, n: int) -> int:
    return -(-total // n)


def dynamic_select(
    aggregated: list[NormalizedPhrase], ranked: Sequence[Sample]
) -> Prediction:
    """Split the aggregated list by presence, preserving order, and set each
    part's cut to the ceiling of the mean per-sample count of such phrases."""
    n = len(ranked)
    if n == 0:
        return EMPTY_PREDICTION
    present = sum(1 for sample in ranked for p in sample if p.is_present)
    absent = sum(map(len, ranked)) - present
    return Prediction(
        m_pre=_ceil_div(present, n),
        m_abs=_ceil_div(absent, n),
        present_full=tuple(p for p in aggregated if p.is_present),
        absent_full=tuple(p for p in aggregated if not p.is_present),
    )


def merge(ranked: Sequence[Sample], strategy: str) -> Prediction:
    """Aggregate ranked samples by `strategy`, then dynamically select."""
    _, aggregate, depth = _STRATEGIES[resolve_strategy(strategy)]
    ranked = ranked[:depth]
    return dynamic_select(aggregate(ranked), ranked)
