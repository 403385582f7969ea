"""End-to-end run orchestration: corpus in, metric report out.

For each document: render the prompt, fetch or replay the n samples
(cache first, network for the misses), parse, aggregate, score; the
document's source text is normalized once for both gold partitioning and
sample ranking. Per-doc work fans out over a bounded thread pool; the metric
fold is a deterministic reduce in corpus order, so a warm cache replays to
byte-identical reports. A fatal endpoint error cancels the documents still
queued. Failed samples are never cached, which makes an interrupted run
resumable by simply rerunning it.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import aggregation, corpus, metrics, prompting, textnorm
from .llm_client import (
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


@dataclass
class RunConfig:
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


@dataclass
class RunSummary:
    processed: int = 0
    errored: int = 0
    parse_fallbacks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0
    report: metrics.MetricReport | None = None


@dataclass
class _DocResult:
    scores: list = field(default_factory=list)
    errored: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    parse_fallbacks: int = 0


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
    stem = Path(config.corpus_path).stem
    variant = prompting.resolve_variant(config.variant)
    return (
        Path(config.cache_dir)
        / _sanitize(stem)
        / _sanitize(variant)
        / f"{_sanitize(config.model)}.jsonl"
    )


def _gather_samples(doc, prompt, cache, client, config) -> tuple[list, int, int]:
    """Cache-first sample collection for one document."""
    samples = {}
    missing = []
    for i in range(config.n_samples):
        cached = cache.get(doc.id, prompt.prompt_hash, i)
        if cached is None:
            missing.append(i)
        else:
            samples[i] = cached
    if missing and client is not None:
        fetched = client.sample_completions(
            prompt,
            doc.id,
            config.n_samples,
            config.temperature,
            config.max_tokens,
            indices=missing,
        )
        for s in fetched:
            samples[s.sample_index] = s
            if not s.failed:
                cache.put(s)
    ordered = []
    for i in range(config.n_samples):
        if i in samples:
            ordered.append(samples[i])
    absent_count = config.n_samples - len(ordered)
    if absent_count:
        log.warning(
            "document %s: %d sample(s) unavailable (offline without warm cache?)",
            doc.id,
            absent_count,
        )
    return ordered, config.n_samples - len(missing), len(missing)


def _process_document(doc, variant, strategy, pcfg, cache, client, config) -> _DocResult:
    result = _DocResult()
    try:
        prompt = prompting.build_prompt(doc, variant, pcfg, config.prefill)
        raw, result.cache_hits, result.cache_misses = _gather_samples(
            doc, prompt, cache, client, config
        )
        successful = [s for s in raw if not s.failed]
        if not successful:
            result.errored = True
            return result
        parsed = []
        for s in successful:
            ps = parse_sample(s.text, had_prefill=bool(prompt.assistant_prefill))
            if ps.fallback:
                result.parse_fallbacks += 1
            parsed.append(
                dataclasses.replace(ps, perplexity=perplexity(s, config.ppl_mode))
            )
        source = textnorm.NormalizedSource.from_text(doc.source_text)
        prediction = aggregation.predict(parsed, doc, strategy, source)
        gold = corpus.partition_gold(doc, source)
        result.scores = metrics.score_document(
            doc.id, prediction, gold, empty_gold=config.empty_gold
        )
    except (AuthenticationError, RequestError, HarnessError):
        raise
    except Exception:
        log.exception("document %s failed; continuing", doc.id)
        result.errored = True
    return result


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
    data["variant"] = prompting.resolve_variant(config.variant)
    data["strategy"] = aggregation.resolve_strategy(config.strategy)
    return data


def _write_report(config: RunConfig, reports: list[metrics.MetricReport]) -> None:
    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(metrics.reports_csv(reports), encoding="utf-8")
    meta = out.with_suffix(out.suffix + ".meta.json")
    meta.write_text(
        json.dumps(provenance(config), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def run(config: RunConfig) -> RunSummary:
    """Execute one run; returns the summary with its MetricReport."""
    t0 = time.monotonic()
    variant = prompting.resolve_variant(config.variant)
    try:
        strategy = aggregation.resolve_strategy(config.strategy)
    except ValueError as exc:
        raise HarnessError(str(exc)) from exc
    if config.empty_gold not in ("exclude", "zero"):
        raise HarnessError(f"unknown empty-gold policy {config.empty_gold!r}")
    pcfg = prompting.load_prompt_config(config.prompt_config)
    docs = corpus.load_corpus(config.corpus_path, default_domain=config.default_domain)
    docs = select_documents(docs, config.limit, config.seed)

    client = None
    if not config.offline:
        endpoint = config.endpoint or os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise HarnessError(
                f"no endpoint configured: pass --endpoint, set {ENDPOINT_ENV}, "
                "or use --offline with a warm cache"
            )
        client = LLMClient(
            endpoint,
            config.model,
            api_key=os.environ.get(API_KEY_ENV),
            request_mode=config.request_mode,
            ppl_mode=config.ppl_mode,
        )
    cache = SampleCache(cache_path(config))

    results: list[_DocResult | None] = [None] * len(docs)
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        futures = {
            pool.submit(
                _process_document, doc, variant, strategy, pcfg, cache, client, config
            ): i
            for i, doc in enumerate(docs)
        }
        try:
            for fut in as_completed(futures):
                results[futures[fut]] = fut.result()
        except BaseException:
            # A fatal endpoint error (or an interrupt) ends the run: drop the
            # queued documents instead of letting the pool drain them.
            pool.shutdown(cancel_futures=True)
            raise

    summary = RunSummary()
    scores = []
    for result in results:
        if result.errored:
            summary.errored += 1
        else:
            summary.processed += 1
            scores.extend(result.scores)
        summary.cache_hits += result.cache_hits
        summary.cache_misses += result.cache_misses
        summary.parse_fallbacks += result.parse_fallbacks
    summary.report = metrics.build_report(
        Path(config.corpus_path).stem, variant, strategy, scores
    )
    if config.out:
        _write_report(config, [summary.report])
    summary.wall_time = time.monotonic() - t0
    return summary


_GRID_ALIASES = {"corpus": "corpus_path", "aggregate": "strategy"}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _to_run_config(entry: dict, context: str) -> RunConfig:
    kwargs = {}
    for key, value in entry.items():
        name = _GRID_ALIASES.get(key, key)
        if name not in _CONFIG_FIELDS:
            raise HarnessError(f"{context}: unknown config key {key!r}")
        kwargs[name] = value
    if "corpus_path" not in kwargs:
        raise HarnessError(f"{context}: missing 'corpus' path")
    return RunConfig(**kwargs)


def load_grid_config(path: str | Path) -> tuple[list[RunConfig], str | None]:
    """Parse a grid YAML file: shared keys at the top level, per-run
    overrides under `runs`, optional merged-CSV path under `out`."""
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise HarnessError(f"cannot read grid config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
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


def grid(configs: list[RunConfig], out: str | None = None) -> list[RunSummary]:
    """Run several configs and optionally write one merged CSV."""
    if not configs:
        raise HarnessError("grid needs at least one run config")
    outs = [c.out for c in configs if c.out]
    if out:
        outs.append(out)
    duplicates = {p for p in outs if outs.count(p) > 1}
    if duplicates:
        raise HarnessError(f"conflicting output paths: {sorted(duplicates)}")
    summaries = [run(c) for c in configs]
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            metrics.reports_csv([s.report for s in summaries]), encoding="utf-8"
        )
    return summaries
