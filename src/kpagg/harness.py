"""End-to-end run orchestration: corpus in, metric report out.

A `RunConfig` checks its own values when it is made and keeps the canonical
variant and strategy names, so nothing downstream resolves an alias again.
`grid` groups its configs by every field except the evaluation-only ones
(strategy, sample count, perplexity mode, empty-gold policy, output path),
so a group is the configs that read one cache file with one prompt and one
endpoint; `run` is a one-config grid. Before any group runs, `grid` reads
every group's inputs (documents, prompt strings, endpoint), each corpus and
prompt file once, so a missing input fails before anything is fetched or
written. For each group each document's prompt is rendered and the samples
of the largest n among its configs fetched or replayed (cache first,
network for the misses, one cache append per document). The thread pool
serves only runs with an endpoint: a bounded pool does that fetching, the
only threaded work. An offline group has nothing to wait for, so it reads
the cache on the calling thread. The calling thread evaluates each document
as its samples arrive, for every config of the group at once: it parses
the samples, makes each distinct phrase's normalized form and presence and
the two gold sets once, sorts once per sample count and perplexity mode
(a config at n sees the samples in slots below n), makes one prediction
per (n, mode, strategy) and scores it per config, one score record per
document and config. The metric fold averages those records in corpus
order, so a warm cache replays to byte-identical reports. A grid's merged
CSV has a `meta.json` too, listing each row block's provenance. The pool
is handed at most `max_in_flight` documents at a time, and one more each
time the calling thread has collected one, a failed one included, so a
fatal endpoint error leaves no queued document to cancel: it caches the
samples its document had already received, the documents in flight
finish, and no other starts. A sample the endpoint did not return is
absent, never cached and never averaged, so rerunning an interrupted or
partly failed run fetches only the samples still missing; a group warns
once how many are absent. The cache file's name carries the sampling settings (temperature
and max_tokens), so a replay never belongs to other settings than the
run's.

A group loads only the cache lines of its own documents: the load skips
those of documents outside a `limit`/`seed` subset unparsed.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import os
import random
import re
import time
from pathlib import Path
from typing import NamedTuple

from . import aggregation, corpus, metrics, prompting, textnorm
from .llm_client import (
    PPL_MODES,
    REQUEST_MODES,
    AuthenticationError,
    LLMClient,
    RequestError,
    SampleCache,
    parse_sample,
    perplexity,
)

log = logging.getLogger(__name__)

ENDPOINT_ENV = "KPAGG_ENDPOINT"
API_KEY_ENV = "KPAGG_API_KEY"


class HarnessError(Exception):
    """Fatal configuration problem; aborts before or instead of a run."""


# Errors that end a run: no other document can fare better. An OSError is a
# cache that cannot be written (a full disk, say).
_FATAL = (AuthenticationError, RequestError, HarnessError, OSError)


class _RunFields(NamedTuple):
    corpus_path: str
    variant: str = "baseline"
    strategy: str = "frequency_order"
    n_samples: int = 10
    temperature: float = 0.8
    max_tokens: int = 500
    model: str = "default"
    endpoint: str | None = None
    limit: int | None = None
    seed: int | None = None
    cache_dir: str = "cache"
    empty_gold: str = "exclude"
    out: str | None = None
    prompt_config: str | None = None
    prefill: bool = True
    request_mode: str = "choices"
    ppl_mode: str = "mean"
    offline: bool = False
    default_domain: str = "scientific"
    max_in_flight: int = 4


class RunConfig(_RunFields):
    """One run's settings, checked when made (HarnessError) against what
    `kpagg run` accepts; a copy made by `_replace` is checked too. The
    variant and strategy are kept by their canonical names, so an alias and
    its full name make equal configs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        optional = ("out", "prompt_config", "endpoint")
        for name in ("corpus_path", "variant", "strategy", "model", "cache_dir", *optional):
            value = getattr(self, name)
            if not (isinstance(value, str) or (value is None and name in optional)):
                raise HarnessError(f"{name} must be a string, got {value!r}")
        try:
            variant = prompting.resolve_variant(self.variant)
            strategy = aggregation.resolve_strategy(self.strategy)
        except (prompting.PromptConfigError, ValueError) as exc:
            raise HarnessError(str(exc)) from exc
        choices = (
            ("perplexity mode", self.ppl_mode, PPL_MODES),
            ("empty-gold policy", self.empty_gold, metrics.EMPTY_GOLD_POLICIES),
            ("request mode", self.request_mode, REQUEST_MODES),
            ("default domain", self.default_domain, corpus.DOMAINS),
        )
        for what, value, allowed in choices:
            if value not in allowed:
                raise HarnessError(f"unknown {what} {value!r}")
        t = self.temperature
        try:
            # bool is an int subclass, but `temperature: true` is no number;
            # NaN compares False with everything, so it is tested on its own
            number = type(t) in (int, float) and math.isfinite(t) and t >= 0
        except OverflowError:  # an int too large for a float
            number = False
        if not number:
            raise HarnessError(f"temperature must be a finite number >= 0, got {t!r}")
        for name in ("n_samples", "max_tokens", "max_in_flight", "limit"):
            value = getattr(self, name)
            # `limit: true` and `max_tokens: 2.9` are no counts
            if not (type(value) is int and value >= 1 or value is None and name == "limit"):
                raise HarnessError(f"{name} must be an integer >= 1, got {value!r}")
        if not (self.seed is None or type(self.seed) is int):
            raise HarnessError(f"seed must be an integer, got {self.seed!r}")
        for name in ("prefill", "offline"):
            # a quoted 'no' is truthy, so only a YAML boolean will do
            if type(getattr(self, name)) is not bool:
                raise HarnessError(f"{name} must be true or false, got {getattr(self, name)!r}")
        # a tuple's fields are fixed once made, so the canonical names make a new one
        fields = {**self._asdict(), "variant": variant, "strategy": strategy}
        return super().__new__(cls, **fields)

    @classmethod
    def _make(cls, iterable) -> RunConfig:
        # `_replace` makes its copy here; the base class would skip the checks
        return cls(*iterable)


class RunSummary(NamedTuple):
    processed: int
    errored: int
    parse_fallbacks: int
    truncated: int  # samples cut by the token limit or a content filter
    cache_hits: int
    cache_misses: int
    wall_time: float
    report: metrics.MetricReport | None = None


def select_documents(
    docs: list[corpus.Document], limit: int | None, seed: int | None
) -> list[corpus.Document]:
    """First `limit` docs, or a seeded random subset kept in corpus order."""
    if limit is None or limit >= len(docs):
        return list(docs)
    if seed is None:
        return list(docs[:limit])
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(docs)), limit))
    return [docs[i] for i in chosen]


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "_"


def cache_path(config: RunConfig) -> Path:
    """`<cache_dir>/<corpus>/<variant>/<model>.t<T>.m<M>.jsonl`.

    T and M are the temperature and max_tokens, which change what the
    endpoint samples but are in no prompt hash; the temperature is taken as
    a float first, so 1 and 1.0 name one file. n_samples and request_mode
    stay out, so a larger or resumed run replays what is there.
    """
    stem = Path(config.corpus_path).stem
    temperature = float(config.temperature) + 0.0  # -0.0 becomes 0.0
    sampling = f"t{temperature!r}.m{config.max_tokens}"
    return (
        Path(config.cache_dir)
        / _sanitize(stem)
        / _sanitize(config.variant)
        / f"{_sanitize(config.model)}.{_sanitize(sampling)}.jsonl"
    )


def _fetch(doc, pcfg, cache, client, config) -> tuple[list, int]:
    """Build one document's prompt and collect its samples, cache first.

    Returns the samples present in index order and how many of the
    `config.n_samples` were cached. A sample neither cached nor fetched is
    absent.
    """
    prompt = prompting.build_prompt(doc, config.variant, pcfg, config.prefill)
    slots = [cache.get(doc.id, prompt.prompt_hash, i) for i in range(config.n_samples)]
    missing = [i for i, s in enumerate(slots) if s is None]
    if missing and client is not None:
        try:
            for s in client.sample_completions(
                prompt, doc.id, missing, config.temperature, config.max_tokens
            ):
                slots[s.sample_index] = s
        finally:
            # one append of what arrived, before a fatal answer too
            cache.put(*[slots[i] for i in missing if slots[i] is not None])
    ordered = [s for s in slots if s is not None]
    return ordered, config.n_samples - len(missing)


def _evaluate(doc, raw, configs) -> tuple[list, int, int]:
    """Score one document under every config of a group.

    The gold and each sample's phrases are made once against the source,
    tokenized once (`NormalizedSource.phrases`), and so are the two gold
    sets. A config at n sees the samples of `raw` (in slot order) whose
    slot is below n. Each (n, perplexity mode) sorts those samples once,
    and each (n, mode, strategy) makes one prediction, which configs that
    differ only in their empty-gold policy share. Returns one score record
    per config (None for a config that sees no sample), the parse fallback
    count and the count of samples cut short (`RawSample.truncated`).
    """
    if not raw:
        return [None] * len(configs), 0, 0
    # `prefill` is in the group key, and `build_prompt` prefills exactly when it is set
    had_prefill = configs[0].prefill
    parsed = [
        parse_sample(s.text, had_prefill=had_prefill, truncated=s.truncated) for s in raw
    ]
    source = textnorm.NormalizedSource.from_text(doc.source_text)
    gold = source.phrases(doc.gold)
    samples = [source.phrases(ps.phrases) for ps in parsed]
    present = source.present
    gold_sets = (present.intersection(gold), set(gold).difference(present))
    predictions = {}
    for n, mode in dict.fromkeys((c.n_samples, c.ppl_mode) for c in configs):
        seen = sum(s.sample_index < n for s in raw)
        if not seen:
            continue
        ranked = aggregation.rank(samples[:seen], [perplexity(s, mode) for s in raw[:seen]])
        strategies = list(dict.fromkeys(
            c.strategy for c in configs if (c.n_samples, c.ppl_mode) == (n, mode)
        ))
        made = aggregation.predict(ranked, present, strategies)
        predictions.update(zip([(n, mode, strategy) for strategy in strategies], made))
    scores = [
        metrics.score_document(predictions[key], *gold_sets, empty_gold=c.empty_gold)
        if (key := (c.n_samples, c.ppl_mode, c.strategy)) in predictions
        else None
        for c in configs
    ]
    return scores, sum(ps.fallback for ps in parsed), sum(s.truncated for s in raw)


# config fields that identify a run's results; paths and transport details
# are deliberately left out so replayed runs serialize identically.
_PROVENANCE_FIELDS = (
    "variant",
    "strategy",
    "n_samples",
    "temperature",
    "max_tokens",
    "model",
    "limit",
    "seed",
    "empty_gold",
    "prefill",
    "request_mode",
    "ppl_mode",
    "default_domain",
)


def provenance(config: RunConfig) -> dict:
    data = {name: getattr(config, name) for name in _PROVENANCE_FIELDS}
    data["corpus"] = Path(config.corpus_path).name
    return data


def _write_report(out: str, reports: list[metrics.MetricReport], meta: dict | list) -> None:
    """The CSV of `reports` at `out`, and `meta` as JSON at `<out>.meta.json`."""
    out = Path(out)
    out.write_text(metrics.reports_csv(reports), encoding="utf-8")
    meta_path = out.with_suffix(out.suffix + ".meta.json")
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def run(config: RunConfig) -> RunSummary:
    """Execute one run; returns the summary with its MetricReport."""
    return grid([config])[0]


def _prepare(head: RunConfig, load_corpus, load_prompts) -> tuple:
    """A group's documents, prompt strings, client (None offline; it opens no
    connection before its first request) and the seconds reading them took,
    through the grid's memoised loaders."""
    t0 = time.monotonic()
    pcfg = load_prompts(head.prompt_config)
    docs = load_corpus(head.corpus_path, default_domain=head.default_domain)
    docs = select_documents(docs, head.limit, head.seed)
    if head.offline:
        return docs, pcfg, None, time.monotonic() - t0
    endpoint = head.endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise HarnessError(
            f"no endpoint configured: pass --endpoint, set {ENDPOINT_ENV}, "
            "or use --offline with a warm cache"
        )
    client = LLMClient(
        endpoint,
        head.model,
        api_key=os.environ.get(API_KEY_ENV),
        request_mode=head.request_mode,
    )
    return docs, pcfg, client, time.monotonic() - t0


def _run_group(head, configs: list[RunConfig], docs, pcfg, client, read_s) -> list[RunSummary]:
    """Fetch once for configs that differ only in evaluation fields, then
    evaluate every document for all of them as its samples arrive. `head`
    is the config fetched for, at the largest n among `configs`; the other
    arguments are the group's `_prepare`d inputs."""
    t0 = time.monotonic()
    path = cache_path(head)
    # where a cache was kept before its name carried the sampling settings
    legacy = path.with_name(f"{_sanitize(head.model)}.jsonl")
    if not path.exists() and legacy.exists():
        log.warning(
            "%s holds samples in an older cache format without sampling "
            "settings; it is not replayed (move it aside to silence this)",
            legacy,
        )
    cache = SampleCache(path, doc_ids={doc.id for doc in docs})

    hits = misses = fallbacks = truncated = 0
    results: list[list | None] = [None] * len(docs)
    unavailable: dict[int, int] = {}  # document index -> absent sample count

    def collect(i: int, fetched) -> None:
        """Evaluate document i from `fetched()`, its _fetch result. A fatal
        endpoint error propagates; any other failure costs this document
        only."""
        nonlocal hits, misses, fallbacks, truncated
        try:
            raw, cached = fetched()
            hits += cached
            misses += head.n_samples - cached
            if len(raw) < head.n_samples:
                unavailable[i] = head.n_samples - len(raw)
            results[i], doc_fallbacks, doc_truncated = _evaluate(docs[i], raw, configs)
            fallbacks += doc_fallbacks
            truncated += doc_truncated
        except _FATAL:
            raise
        except Exception:
            log.exception("document %s failed; continuing", docs[i].id)

    if client is None:
        for i, doc in enumerate(docs):
            collect(i, lambda: _fetch(doc, pcfg, cache, None, head))
    else:
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        queued = iter(enumerate(docs))
        window = {}  # each submitted, uncollected document's future -> its index
        try:
            with ThreadPoolExecutor(max_workers=head.max_in_flight) as pool:
                # A document is submitted only into a free slot, so a fatal
                # error (or an interrupt) leaves none queued: the pool drains
                # just the documents in flight.
                while True:
                    for i, doc in itertools.islice(queued, head.max_in_flight - len(window)):
                        window[pool.submit(_fetch, doc, pcfg, cache, client, head)] = i
                    if not window:
                        break
                    for fut in wait(window, return_when=FIRST_COMPLETED).done:
                        collect(window.pop(fut), fut.result)
        finally:
            # the pool has shut down, so no fetch thread holds a connection
            client.close()

    if unavailable:
        log.warning(
            "%d sample(s) unavailable in %d document(s) (their fetch failed, "
            "or offline without a warm cache), first: %s",
            sum(unavailable.values()),
            len(unavailable),
            ", ".join(docs[i].id for i in sorted(unavailable)[:5]),
        )
    wall_time = read_s + time.monotonic() - t0
    summaries = []
    for k, config in enumerate(configs):
        scores = [r[k] for r in results if r is not None and r[k] is not None]
        report = metrics.build_report(
            Path(config.corpus_path).stem, config.variant, config.strategy, scores
        )
        if config.out:
            _write_report(config.out, [report], provenance(config))
        summaries.append(RunSummary(
            len(scores), len(docs) - len(scores), fallbacks, truncated, hits, misses, wall_time,
            report,
        ))
    return summaries


_GRID_ALIASES = {"corpus": "corpus_path", "aggregate": "strategy"}
# fields that only change how fetched samples are scored, not which are fetched
_EVALUATION_FIELDS = ("strategy", "n_samples", "ppl_mode", "empty_gold", "out")


def _to_run_config(entry: dict, context: str) -> RunConfig:
    kwargs = {}
    for key, value in entry.items():
        name = _GRID_ALIASES.get(key, key)
        if name not in RunConfig._fields:
            raise HarnessError(f"{context}: unknown config key {key!r}")
        kwargs[name] = value
    if "corpus_path" not in kwargs:
        raise HarnessError(f"{context}: missing 'corpus' path")
    try:
        return RunConfig(**kwargs)
    except HarnessError as exc:
        raise HarnessError(f"{context}: {exc}") from exc


def load_grid_config(path: str | Path) -> tuple[list[RunConfig], str | None]:
    """Parse a grid YAML file: shared keys at the top level, per-run
    overrides under `runs`, optional merged-CSV path under `out`."""
    import yaml  # only grid files need it; an offline replay never loads it

    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise HarnessError(f"cannot read grid config {path}: {exc}") from exc
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nested too deep
        raise HarnessError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise HarnessError(f"{path}: grid config must be a mapping")
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        raise HarnessError(f"{path}: 'runs' must be a nonempty list")
    shared = {k: v for k, v in data.items() if k not in ("runs", "out")}
    configs = []
    for i, entry in enumerate(runs):
        if not isinstance(entry, dict):
            raise HarnessError(f"{path}: run #{i + 1} must be a mapping")
        configs.append(_to_run_config({**shared, **entry}, f"{path}: run #{i + 1}"))
    return configs, data.get("out")


def fetch_groups(configs: list[RunConfig]) -> list[list[int]]:
    """The indices of `configs` grouped by one fetch: configs that differ
    only in evaluation fields share one. Groups come in the order of their
    first config, and indices ascend within each."""
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        key = tuple(v for k, v in c._asdict().items() if k not in _EVALUATION_FIELDS)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def grid(configs: list[RunConfig], out: str | None = None) -> list[RunSummary]:
    """Run several configs and optionally write one merged CSV, one block of
    rows per config, and beside it `<out>.meta.json`: the list of each
    block's `provenance`, in row order.

    Configs that differ only in strategy, sample count, perplexity mode,
    empty-gold policy or output path, or name one variant by alias and full
    name, share one fetch, at the largest n among them, and one evaluation
    pass. Each summary counts its own processed and errored documents: a
    document with no sample in a slot below a config's n is errored for
    that config alone. Their cache, parse-fallback and truncation counts
    are the pass's, at the largest n.
    """
    if not configs:
        raise HarnessError("grid needs at least one run config")
    if not (out is None or isinstance(out, str)):
        raise HarnessError(f"out must be a string, got {out!r}")
    # one file reached by two spellings (r.csv, ./r.csv) is one output
    outs = [Path(p).resolve() for p in [*(c.out for c in configs), out] if p]
    written = outs + [p.with_suffix(p.suffix + ".meta.json") for p in outs]
    duplicates = {str(p) for p in written if written.count(p) > 1}
    if duplicates:
        raise HarnessError(f"conflicting output paths: {sorted(duplicates)}")
    groups = fetch_groups(configs)
    # Every group's inputs are read before the first group fetches or
    # writes anything; each corpus and prompt file is read once per grid.
    load_corpus = functools.cache(corpus.load_corpus)
    load_prompts = functools.cache(prompting.load_prompt_config)
    heads = [
        configs[m[0]]._replace(n_samples=max(configs[i].n_samples for i in m)) for m in groups
    ]
    inputs = [_prepare(head, load_corpus, load_prompts) for head in heads]
    # An output directory, or an online group's cache directory, that
    # cannot be made ends the grid before anything is fetched.
    online = [head for head, (_, _, client, _) in zip(heads, inputs) if client]
    for p in [*(p.parent for p in outs), *(cache_path(c).parent for c in online)]:
        p.mkdir(parents=True, exist_ok=True)
    summaries: list[RunSummary | None] = [None] * len(configs)
    for head, members, prepared in zip(heads, groups, inputs):
        group = _run_group(head, [configs[i] for i in members], *prepared)
        for i, summary in zip(members, group):
            summaries[i] = summary
    if out:
        _write_report(out, [s.report for s in summaries], [provenance(c) for c in configs])
    return summaries
