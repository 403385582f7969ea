"""Multi-sample aggregation and dynamic keyphrase-number selection.

A phrase is its normalized form, a string, and it is present when it is in
the document's set of present forms (`NormalizedSource.present`). A sample
is a tuple of distinct phrases (`NormalizedSource.phrases`); a ranked set
is a tuple of samples by ascending perplexity, unknown last (`rank`). It
is merged by one of four strategies, each made of builtins:

- union: set union, in lexicographic order;
- union_concat: concatenation in rank order, first occurrences kept;
- union_interleaf: round-robin by position across samples, first kept;
- frequency_order: phrases sorted by how many samples contain them,
  descending; `sorted` is stable under `reverse`, so ties keep their
  interleaf order.

The merged list is split by presence into a `Prediction`: each part whole
and its cut M, the ceiling of the per-sample average count of present (and,
separately, absent) phrases; the prediction proper is each part's first M
phrases. The `single` strategy merges the top-ranked sample alone, so its
cut keeps all of it. Each strategy is one `_STRATEGIES` entry: its CLI
alias, how many ranked samples it merges, and its merge. `predict` serves
several strategies from one ranking, making the interleaf and the cuts once.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Iterable, Sequence
from itertools import chain, filterfalse, zip_longest
from typing import NamedTuple

# One sample's distinct normalized phrases.
Sample = tuple[str, ...]


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
    present_full: tuple[str, ...]
    absent_full: tuple[str, ...]


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


def aggregate_union(ranked: Sequence[Sample]) -> list[str]:
    """Set union of all samples, in lexicographic order: the union destroys
    sample order, so a deterministic one is imposed."""
    return sorted(set().union(*ranked))


def aggregate_union_concat(ranked: Sequence[Sample]) -> list[str]:
    """Concatenate samples in rank order, keep first occurrences."""
    return list(dict.fromkeys(chain.from_iterable(ranked)))


def aggregate_union_interleaf(ranked: Sequence[Sample]) -> list[str]:
    """Round-robin across ranked samples: every sample's first phrase,
    then every second phrase, and so on; first occurrences kept."""
    merged = dict.fromkeys(chain.from_iterable(zip_longest(*ranked)))
    merged.pop(None, None)  # the fill of samples shorter than the longest
    return list(merged)


def aggregate_frequency_order(ranked: Sequence[Sample], interleaf: list[str]) -> list[str]:
    """Sort by the number of samples containing each phrase, descending;
    phrases tied on frequency keep their order in `interleaf`, which is
    `aggregate_union_interleaf(ranked)`."""
    return sorted(interleaf, key=Counter(chain.from_iterable(ranked)).__getitem__, reverse=True)


# canonical name -> (short CLI alias, how many of the ranked samples it
# merges (None for all), its merged list from those samples and their
# interleaf)
_STRATEGIES = {
    "single": ("single", 1, lambda ranked, interleaf: interleaf),
    "union": ("union", None, lambda ranked, _: aggregate_union(ranked)),
    "union_concat": ("union-concat", None, lambda ranked, _: aggregate_union_concat(ranked)),
    "union_interleaf": ("union-interleaf", None, lambda ranked, interleaf: interleaf),
    "frequency_order": ("frequency", None, aggregate_frequency_order),
}
STRATEGY_ALIASES = {alias: name for name, (alias, _, _) in _STRATEGIES.items()}
STRATEGIES = tuple(_STRATEGIES)


def _ceil_div(total: int, n: int) -> int:
    return -(-total // n)


def _cuts(ranked: Sequence[Sample], present: Collection[str]) -> tuple[int, int]:
    """The ceiling of the mean per-sample count of present, and of absent,
    phrases in a nonempty ranked set."""
    n = len(ranked)
    n_present = sum(map(present.__contains__, chain.from_iterable(ranked)))
    return _ceil_div(n_present, n), _ceil_div(sum(map(len, ranked)) - n_present, n)


def _split(merged: list[str], present: Collection[str], m_pre: int, m_abs: int) -> Prediction:
    pres = present.__contains__
    return Prediction(m_pre, m_abs, tuple(filter(pres, merged)), tuple(filterfalse(pres, merged)))


def predict(
    ranked: Sequence[Sample], present: Collection[str], strategies: Iterable[str]
) -> list[Prediction]:
    """The prediction of each of `strategies` (canonical names) from one
    ranked set: its merge, dynamically selected. The interleaf and the cuts
    are made once per number of samples merged: once over the whole set,
    and once over the top sample for `single`."""
    if not ranked:
        return [EMPTY_PREDICTION for _ in strategies]
    shared: dict[int | None, tuple] = {}
    predictions = []
    for strategy in strategies:
        _, depth, merge_of = _STRATEGIES[strategy]
        if depth not in shared:
            merged_from = ranked[:depth]
            interleaf = aggregate_union_interleaf(merged_from)
            shared[depth] = (merged_from, interleaf, _cuts(merged_from, present))
        merged_from, interleaf, cuts = shared[depth]
        predictions.append(_split(merge_of(merged_from, interleaf), present, *cuts))
    return predictions

