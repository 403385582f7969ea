"""Multi-sample aggregation and dynamic keyphrase-number selection.

Samples are ranked by ascending perplexity (unknown last), individually
normalized and deduplicated, then merged by one of four strategies:

- union: set union, emitted in lexicographic order of normalized form;
- union_concat: concatenation in rank order, first-occurrence dedup;
- union_interleaf: round-robin by position across ranked samples, dedup;
- frequency_order: phrases sorted by how many samples contain them,
  ties broken by interleaf position.

The merged list is then cut to the ceiling of the per-sample average count
of present (and, separately, absent) phrases. The `single` strategy skips
all of that and returns the top-ranked sample split by presence.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from . import textnorm
from .corpus import Document
from .llm_client import ParsedSample
from .textnorm import NormalizedPhrase

# short CLI aliases
STRATEGY_ALIASES = {
    "single": "single",
    "union": "union",
    "union-concat": "union_concat",
    "union-interleaf": "union_interleaf",
    "frequency": "frequency_order",
}
STRATEGIES = tuple(STRATEGY_ALIASES.values())


def resolve_strategy(name: str) -> str:
    if name in STRATEGY_ALIASES:
        return STRATEGY_ALIASES[name]
    if name in STRATEGIES:
        return name
    raise ValueError(f"unknown aggregation strategy {name!r}")


@dataclass(frozen=True)
class RankedSample:
    """One sample after normalization, dedup, and presence classification."""

    phrases: tuple[NormalizedPhrase, ...]
    perplexity: float | None

    @property
    def present_count(self) -> int:
        return sum(1 for p in self.phrases if p.is_present)

    @property
    def absent_count(self) -> int:
        return len(self.phrases) - self.present_count


@dataclass(frozen=True)
class SampleSet:
    """Samples in rank order (ascending perplexity, unknown last)."""

    samples: tuple[RankedSample, ...]

    @property
    def n(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class Prediction:
    """Final ranked prediction, with the untruncated per-partition lists
    kept alongside for the @k and @Inf metrics."""

    present: tuple[NormalizedPhrase, ...]
    absent: tuple[NormalizedPhrase, ...]
    m_pre: int
    m_abs: int
    present_full: tuple[NormalizedPhrase, ...]
    absent_full: tuple[NormalizedPhrase, ...]


EMPTY_PREDICTION = Prediction(
    present=(), absent=(), m_pre=0, m_abs=0, present_full=(), absent_full=()
)


def _rank_key(sample: RankedSample) -> tuple[bool, float]:
    """Ascending perplexity; unknown (None or NaN) after every known value."""
    ppl = sample.perplexity
    if ppl is None or math.isnan(ppl):
        return (True, 0.0)
    return (False, ppl)


def classify_samples(
    parsed: list[ParsedSample],
    doc: Document,
    source: textnorm.NormalizedSource | None = None,
) -> list[RankedSample]:
    """Normalize, dedup, and presence-classify each sample, in input order.

    `source` is the document's normalized source text; it is built from
    `doc` when not given.
    """
    if source is None:
        source = textnorm.NormalizedSource.from_text(doc.source_text)
    phrase = source.phrase
    return [
        RankedSample(
            phrases=tuple(textnorm.dedup_preserve_order(list(map(phrase, ps.phrases)))),
            perplexity=ps.perplexity,
        )
        for ps in parsed
    ]


def rank(samples: Iterable[RankedSample]) -> SampleSet:
    """Sort classified samples by ascending perplexity (unknown last,
    original order kept among equals). A NaN perplexity counts as unknown."""
    return SampleSet(samples=tuple(sorted(samples, key=_rank_key)))


def rank_samples(
    parsed: list[ParsedSample],
    doc: Document,
    source: textnorm.NormalizedSource | None = None,
) -> SampleSet:
    """Classify each sample, then rank the samples by perplexity; see
    `classify_samples` and `rank`."""
    return rank(classify_samples(parsed, doc, source))


def aggregate_union(ss: SampleSet) -> list[NormalizedPhrase]:
    """Set union of all samples, in lexicographic order of normalized form.

    The union destroys sample order, so a deterministic emission order is
    imposed; the surface form kept is the first one seen in rank order.
    """
    first: dict[str, NormalizedPhrase] = {}
    for sample in ss.samples:
        for p in sample.phrases:
            first.setdefault(p.normalized, p)
    return [first[key] for key in sorted(first)]


def aggregate_union_concat(ss: SampleSet) -> list[NormalizedPhrase]:
    """Concatenate samples in rank order, keep first occurrences."""
    return textnorm.dedup_preserve_order(
        [p for sample in ss.samples for p in sample.phrases]
    )


def aggregate_union_interleaf(ss: SampleSet) -> list[NormalizedPhrase]:
    """Round-robin across ranked samples: every sample's first phrase,
    then every second phrase, and so on; then first-occurrence dedup."""
    merged: list[NormalizedPhrase] = []
    position = 0
    while True:
        found = False
        for sample in ss.samples:
            if position < len(sample.phrases):
                merged.append(sample.phrases[position])
                found = True
        if not found:
            break
        position += 1
    return textnorm.dedup_preserve_order(merged)


def aggregate_frequency_order(ss: SampleSet) -> list[NormalizedPhrase]:
    """Sort by the number of samples containing each phrase, descending;
    phrases tied on frequency keep their interleaf order."""
    counts: Counter[str] = Counter()
    for sample in ss.samples:
        for p in sample.phrases:  # samples are already deduplicated
            counts[p.normalized] += 1
    interleaf = aggregate_union_interleaf(ss)
    return sorted(interleaf, key=lambda p: -counts[p.normalized])


_AGGREGATORS = {
    "union": aggregate_union,
    "union_concat": aggregate_union_concat,
    "union_interleaf": aggregate_union_interleaf,
    "frequency_order": aggregate_frequency_order,
}


def _ceil_div(total: int, n: int) -> int:
    return -(-total // n)


def dynamic_select(aggregated: list[NormalizedPhrase], ss: SampleSet) -> Prediction:
    """Cut the aggregated list to the ceiling of the mean per-sample count,
    separately for present and absent phrases, preserving order."""
    if ss.n == 0:
        return EMPTY_PREDICTION
    m_pre = _ceil_div(sum(s.present_count for s in ss.samples), ss.n)
    m_abs = _ceil_div(sum(s.absent_count for s in ss.samples), ss.n)
    present_full = tuple(p for p in aggregated if p.is_present)
    absent_full = tuple(p for p in aggregated if not p.is_present)
    return Prediction(
        present=present_full[:m_pre],
        absent=absent_full[:m_abs],
        m_pre=m_pre,
        m_abs=m_abs,
        present_full=present_full,
        absent_full=absent_full,
    )


def merge(ss: SampleSet, strategy: str) -> Prediction:
    """Aggregate ranked samples by `strategy`, then dynamically select."""
    strategy = resolve_strategy(strategy)
    if strategy == "single":
        if ss.n == 0:
            return EMPTY_PREDICTION
        top = ss.samples[0]
        present = tuple(p for p in top.phrases if p.is_present)
        absent = tuple(p for p in top.phrases if not p.is_present)
        return Prediction(
            present=present,
            absent=absent,
            m_pre=len(present),
            m_abs=len(absent),
            present_full=present,
            absent_full=absent,
        )
    aggregated = _AGGREGATORS[strategy](ss)
    return dynamic_select(aggregated, ss)


def predict(parsed: list[ParsedSample], doc: Document, strategy: str) -> Prediction:
    """Full per-document pipeline: rank, aggregate, dynamically select."""
    return merge(rank_samples(parsed, doc), strategy)
