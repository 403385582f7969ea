"""End-to-end run orchestration: corpus in, metric report out.

A `RunConfig` checks its own values when it is made and keeps them
canonical, so an alias and its full name, or 1 and 1.0, make equal configs.
`FIELD_ROLES` says of each field whether it names the cache file, splits
fetch groups and goes in the provenance. `grid` groups its configs by the
fields that split groups: the configs of a group read one cache file, in
their endpoint's origin's directory, with one prompt and one endpoint
(`$KPAGG_ENDPOINT` if they name none). `run` is a one-config grid. Before
any group runs, `grid` reads every group's inputs (documents, prompt strings,
endpoint), each corpus and prompt file once, so a missing input fails
before anything is fetched or written; `check_outputs` refuses an output
that cannot be written as named before that. A group's fetchers take its
documents one at a time, in corpus order. A fetcher renders a document's prompt,
fetches or replays the samples of the largest n among the group's configs
(cache first, network for the misses, one cache append per document),
then evaluates the document for every config at once: it parses the
samples, makes each distinct phrase's normalized form and presence and
the two gold sets once, sorts once per sample count and perplexity mode (a
config at n sees the samples in slots below n), makes one prediction per
(n, mode, strategy) and scores it per config, one score record per
document and config. An offline group has nothing to wait for: the
calling thread is its one fetcher. Online, `max_in_flight - 1` threads
join the calling thread, so at most `max_in_flight` documents, and
connections, are in flight, and 1 starts no thread. The metric fold
averages the score records in corpus order, so a warm cache replays to
byte-identical reports. A grid's merged CSV has a `meta.json` too,
listing each row block's provenance. A fatal endpoint answer caches the
samples its document had already received, and the client sends no
request after it: the documents in flight end before their next request,
the fetchers stop taking documents, and the error is raised on the
calling thread. A sample the endpoint did not return is absent, never
cached and never averaged, so rerunning an interrupted or partly failed
run fetches only the samples still missing; a group warns once how many
are absent, and how many came without logprobs to rank them by. The
group's cache load keeps where its documents' lines are; a fetcher decodes
a document's cached samples when it takes the document, so a run holds
the samples of the documents in flight, not the cache.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import random
import re
import threading
import time
from pathlib import Path
from typing import NamedTuple

from . import aggregation, corpus, metrics, prompting, textnorm
from .cache import SampleCache
from .llm_client import (
    API_KEY_ENV,
    PPL_MODES,
    REQUEST_MODES,
    AuthenticationError,
    LLMClient,
    RequestError,
    parse_sample,
    perplexity,
    post_url,
)

log = logging.getLogger(__name__)

ENDPOINT_ENV = "KPAGG_ENDPOINT"


class HarnessError(Exception):
    """Fatal configuration problem; aborts before or instead of a run."""


# Errors that end a run: no other document can fare better. An OSError is a
# cache that cannot be written (a full disk, say).
_FATAL = (AuthenticationError, RequestError, OSError)


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
    """One run's settings, checked when made (HarnessError) and nowhere
    else: `kpagg run` and `kpagg stats` build theirs here. A copy made by
    `_replace` is checked too. The variant and strategy are kept by their
    canonical names and the temperature as a float (-0.0 as 0.0), so an
    alias and its full name, or 1 and 1.0, make equal configs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        optional = ("out", "prompt_config", "endpoint")
        for name in ("corpus_path", "variant", "strategy", "model", "cache_dir", *optional):
            value = getattr(self, name)
            # an empty endpoint or cache_dir would quietly mean $KPAGG_ENDPOINT or "."
            if not (isinstance(value, str) and value or value is None and name in optional):
                raise HarnessError(f"{name} must be a nonempty string, got {value!r}")
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
        # a tuple's fields are fixed once made, so the canonical values make
        # a new one; 1, 1.0 and -0.0 + 0.0 are one float temperature
        fields = dict(self._asdict(), variant=variant, strategy=strategy, temperature=t + 0.0)
        return super().__new__(cls, **fields)

    @classmethod
    def _make(cls, iterable) -> RunConfig:
        # `_replace` makes its copy here; the base class would skip the checks
        return cls(*iterable)


# Each RunConfig field's one role. A role answers three questions: does the
# field name the cache file (`cache_path`), split fetch groups
# (`fetch_groups`) and go in the provenance (`provenance`)?
#
#   role    file group provenance  the fields say
#   cache   yes  yes   yes         what is sampled: the prompt variant, model and sampling
#   place   yes  yes   no          where the samples are read and kept: the cache root, the
#                                  corpus (the provenance names it by its file name) and
#                                  the endpoint, whose origin is a directory of the cache
#   sample  no   yes   yes         which documents, and what their prompts hold
#   source  no   yes   no          where the prompt strings come from, and whether the
#                                  samples may be fetched
#   score   no   no    yes         how the fetched samples are scored
#   run     no   no    no          where a report goes, and how a run asks for its samples
#
# n_samples stays out of the file name, so a larger or resumed run replays
# what is there; request_mode changes only how many requests carry the
# samples, not which are cached. A fetch group fetches at its largest n with
# its first config's other settings, max_in_flight and request_mode among them.
FIELD_ROLES = {
    **dict.fromkeys(("variant", "model", "temperature", "max_tokens"), "cache"),
    **dict.fromkeys(("corpus_path", "cache_dir", "endpoint"), "place"),
    **dict.fromkeys(("prefill", "default_domain", "limit", "seed"), "sample"),
    **dict.fromkeys(("prompt_config", "offline"), "source"),
    **dict.fromkeys(("strategy", "n_samples", "ppl_mode", "empty_gold"), "score"),
    **dict.fromkeys(("out", "max_in_flight", "request_mode"), "run"),
}
_FETCH_ROLES = ("cache", "place", "sample", "source")
_PROVENANCE_ROLES = ("cache", "sample", "score")


class RunSummary(NamedTuple):
    processed: int
    errored: int
    parse_fallbacks: int
    restarted: int  # samples that opened their own list after the prefill
    truncated: int  # samples cut by the token limit or a content filter
    unranked: int  # samples without logprobs, so without a perplexity to rank by
    cache_hits: int
    cache_misses: int
    wall_time: float
    report: metrics.MetricReport


def select_documents(
    docs: list[corpus.Document], limit: int | None, seed: int | None
) -> list[corpus.Document]:
    """First `limit` docs, or a seeded random subset kept in corpus order."""
    if seed is None or limit is None or limit >= len(docs):
        return docs[:limit]
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(docs)), limit))
    return [docs[i] for i in chosen]


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "_"


def cache_path(config: RunConfig) -> Path:
    """`<cache_dir>/<origin>/<corpus>/<variant>/<model>.t<T>.m<M>.jsonl`: the
    fields whose `FIELD_ROLES` role (cache or place) names the file, the
    origin being the endpoint's URL as `post_url` shows it, sanitized. With
    no endpoint it is the origin that holds the file (an offline replay),
    HarnessError if several do, `_` if none does."""
    sampling = f"t{config.temperature!r}.m{config.max_tokens}"
    corpus, variant = _sanitize(Path(config.corpus_path).stem), _sanitize(config.variant)
    name = Path(corpus, variant, f"{_sanitize(config.model)}.{_sanitize(sampling)}.jsonl")
    root = Path(config.cache_dir)
    if config.endpoint:
        return root / _sanitize(post_url(config.endpoint)[1].replace("://", "_", 1)) / name
    held = sorted(p for d in (root.iterdir() if root.is_dir() else ()) if (p := d / name).is_file())
    if len(held) > 1:
        origins = ", ".join(p.parts[-4] for p in held)
        raise HarnessError(f"{name} is cached from several endpoints in {root}: {origins}; "
                           f"name one with --endpoint or ${ENDPOINT_ENV}")
    return held[0] if held else root / "_" / name


def _fetch(doc, pcfg, cache, client, config) -> tuple[list, int, str]:
    """Build one document's prompt and collect its samples, cache first.

    Returns the samples present in index order, how many of the
    `config.n_samples` were cached, and the prompt's assistant prefill that
    the samples continue. A sample neither cached nor fetched is absent.
    """
    prompt = prompting.build_prompt(doc, config.variant, pcfg, config.prefill)
    cached = cache.take(doc.id)
    slots = [cached.get((prompt.prompt_hash, i)) for i in range(config.n_samples)]
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
    return ordered, config.n_samples - len(missing), prompt.assistant_prefill


def _evaluate(doc, raw, prefill, configs) -> tuple[list, int, int, int, int]:
    """Score one document under every config of a group.

    Each sample of `raw` continues `prefill`. The gold and each sample's
    phrases are made once against the source, tokenized once, and so are
    the two gold sets. A config at n sees the samples of `raw` (in slot
    order) whose slot is below n. Each (n, perplexity mode) sorts those
    samples once, and each (n, mode, strategy) makes one prediction, which
    configs that differ only in their empty-gold policy share. Returns one
    score record per config (None for a config that sees no sample), and
    the counts of parse fallbacks, of samples that restarted their list
    after the prefill, of samples cut short (`truncated`) and of those
    without logprobs (`unranked`).
    """
    if not raw:
        return [None] * len(configs), 0, 0, 0, 0
    parsed = [parse_sample(s.text, prefill, s.truncated) for s in raw]
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
    fallbacks = sum(ps.fallback for ps in parsed)
    restarted = sum(ps.restarted for ps in parsed)
    return scores, fallbacks, restarted, sum(s.truncated for s in raw), sum(not s.lp_n for s in raw)


def provenance(config: RunConfig) -> dict:
    data = {k: v for k, v in config._asdict().items() if FIELD_ROLES[k] in _PROVENANCE_ROLES}
    data["corpus"] = Path(config.corpus_path).name
    return data


def report_files(out: str | Path) -> tuple[Path, Path]:
    """The files of a report at `out`: the CSV and `<out>.meta.json`."""
    out = Path(out)
    return out, out.with_suffix(out.suffix + ".meta.json")


def check_outputs(outs: list, reads: list, meta: bool = True) -> None:
    """Refuse (HarnessError), before a command reads anything, each out (with
    its `report_files` if `meta`) that is no nonempty string, is named twice
    (`r.csv`, `./r.csv`), is a directory or is in `reads`: (path, "a corpus")."""
    for p in outs:
        if not (isinstance(p, str) and p):
            raise HarnessError(f"output path must be a nonempty string, got {p!r}")
    written = [Path(f).resolve() for p in outs for f in (report_files(p) if meta else [p])]
    duplicates = {str(p) for p in written if written.count(p) > 1}
    if duplicates:
        raise HarnessError(f"conflicting output paths: {sorted(duplicates)}")
    read = {Path(p).resolve(): what for p, what in reads if p}
    for p in written:
        if p.is_dir():
            raise HarnessError(f"output path {p} is a directory")
        if p in read:
            raise HarnessError(f"output path {p} is {read[p]} file the run reads")


def _write_report(out: str, reports: list[metrics.MetricReport], meta: dict | list) -> None:
    """The CSV of `reports`, and `meta` as JSON, at `report_files(out)`."""
    csv_path, meta_path = report_files(out)
    csv_path.write_text(metrics.reports_csv(reports), encoding="utf-8")
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
    if not head.endpoint:
        raise HarnessError(
            f"no endpoint configured: pass --endpoint, set {ENDPOINT_ENV}, "
            "or use --offline with a warm cache"
        )
    client = LLMClient(
        head.endpoint,
        head.model,
        api_key=os.environ.get(API_KEY_ENV),
        request_mode=head.request_mode,
    )
    return docs, pcfg, client, time.monotonic() - t0


def _run_group(head, configs, path: Path, docs, pcfg, client, read_s) -> list[RunSummary]:
    """Fetch once for configs that differ only in evaluation fields; the
    fetcher of each document evaluates it for all of them. `head` is the
    config fetched for, at the largest n among `configs`, `path` its cache
    file; the other arguments are the group's `_prepare`d inputs."""
    t0 = time.monotonic()
    # indexes the lines of the group's documents; a fetcher decodes a
    # document's lines when it takes the document
    cache = SampleCache(path, doc_ids={doc.id for doc in docs})

    queued = enumerate(docs)
    lock = threading.Lock()
    # per document: (cached, missed, absent) sample counts, and `_evaluate`'s result
    fetched, results = [None] * len(docs), [None] * len(docs)
    errors = []  # fatal errors and interrupts, in the order they were raised

    def fetcher(helpers=()) -> None:
        # Start `helpers`, then take documents until none is left or a
        # fetcher has raised a fatal error or been interrupted; any other
        # failure costs its document only.
        try:
            for helper in helpers:
                helper.start()
            while True:
                with lock:
                    i, doc = (None, None) if errors else next(queued, (None, None))
                if doc is None:
                    return
                try:
                    raw, cached, prefill = _fetch(doc, pcfg, cache, client, head)
                    fetched[i] = cached, head.n_samples - cached, head.n_samples - len(raw)
                    results[i] = _evaluate(doc, raw, prefill, configs)
                except _FATAL:
                    raise
                except Exception:
                    log.exception("document %s failed; continuing", doc.id)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    # Offline the calling thread fetches alone; online it is one of the
    # `max_in_flight` fetchers.
    n_helpers = head.max_in_flight - 1 if client else 0
    helpers = [threading.Thread(target=fetcher) for _ in range(n_helpers)]
    try:
        fetcher(helpers)
    finally:
        for helper in filter(threading.Thread.is_alive, helpers):
            helper.join()
        if client is not None:
            client.close()  # no fetcher is left to hold a connection
        cache.close()
    if errors:
        raise errors[0]

    hits, misses = (sum(f[j] for f in fetched if f) for j in (0, 1))
    unavailable = {i: f[2] for i, f in enumerate(fetched) if f and f[2]}
    fallbacks, restarted, truncated, unranked = (
        sum(r[j] for r in results if r) for j in (1, 2, 3, 4)
    )
    if unavailable:
        log.warning(
            "%d sample(s) unavailable in %d document(s) (not returned by the "
            "endpoint, or offline without a warm cache), first: %s",
            sum(unavailable.values()),
            len(unavailable),
            ", ".join(docs[i].id for i in sorted(unavailable)[:5]),
        )
    if restarted:
        log.warning(
            "%d sample(s) restarted their list after the prefill and were read alone; "
            "if the endpoint does not continue an assistant turn, use --no-prefill",
            restarted,
        )
    if unranked:
        log.warning(
            "%d sample(s) have no logprobs, so no perplexity: they rank last, in slot order",
            unranked,
        )
    wall_time = read_s + time.monotonic() - t0
    summaries = []
    for k, config in enumerate(configs):
        scores = [r[0][k] for r in results if r and r[0][k] is not None]
        report = metrics.build_report(
            Path(config.corpus_path).stem, config.variant, config.strategy, scores
        )
        if config.out:
            _write_report(config.out, [report], provenance(config))
        summaries.append(RunSummary(
            len(scores), len(docs) - len(scores), fallbacks, restarted, truncated, unranked,
            hits, misses, wall_time, report,
        ))
    return summaries


_GRID_ALIASES = {"corpus": "corpus_path", "aggregate": "strategy"}


def _named(entry: dict, context: str) -> dict:
    """`entry` with each alias (`_GRID_ALIASES`) replaced by its `RunConfig`
    field name. An unknown key, or two keys that name one field (`aggregate`
    and `strategy`), is refused."""
    keys = {}  # field name -> the key of `entry` that names it
    for key in entry:
        name = _GRID_ALIASES.get(key, key)
        if name not in RunConfig._fields:
            raise HarnessError(f"{context}: unknown config key {key!r}")
        if name in keys:
            raise HarnessError(f"{context}: {keys[name]!r} and {key!r} both name {name}")
        keys[name] = key
    return {name: entry[key] for name, key in keys.items()}


def _to_run_config(kwargs: dict, context: str) -> RunConfig:
    if "corpus_path" not in kwargs:
        raise HarnessError(f"{context}: missing 'corpus' path")
    try:
        return RunConfig(**kwargs)
    except HarnessError as exc:
        raise HarnessError(f"{context}: {exc}") from exc


def load_grid_config(path: str | Path) -> tuple[list[RunConfig], str | None]:
    """Parse a grid YAML file: shared keys at the top level, per-run
    overrides under `runs`, optional merged-CSV path under `out`. A run's
    key overrides the shared one for its field, whichever alias either uses."""
    data = prompting.load_yaml_mapping(path, "grid config", HarnessError)
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        raise HarnessError(f"{path}: 'runs' must be a nonempty list")
    shared = {k: v for k, v in data.items() if k not in ("runs", "out")}
    shared = _named(shared, f"{path}: top level")
    configs = []
    for i, entry in enumerate(runs):
        context = f"{path}: run #{i + 1}"
        if not isinstance(entry, dict):
            raise HarnessError(f"{context} must be a mapping")
        configs.append(_to_run_config({**shared, **_named(entry, context)}, context))
    return configs, data.get("out")


def fetch_groups(configs: list[RunConfig]) -> list[list[int]]:
    """The indices of `configs` grouped by one fetch: configs that differ
    only in score and run fields (`FIELD_ROLES`) share one. Groups come in
    the order of their first config, and indices ascend within each."""
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        key = tuple(v for k, v in c._asdict().items() if FIELD_ROLES[k] in _FETCH_ROLES)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def grid(configs: list[RunConfig], out: str | None = None, reads=()) -> list[RunSummary]:
    """Run several configs and optionally write one merged CSV, one block of
    rows per config, and beside it `<out>.meta.json`: the list of each
    block's `provenance`, in row order. `reads` names the other files the
    caller read (`kpagg grid` its grid file), which no output may be.

    The configs of one fetch group (`fetch_groups`) share one fetch, at the
    largest n among them, and one evaluation pass. Each summary counts its
    own processed and errored documents: a document with no sample in a
    slot below a config's n is errored for that config alone. Their cache,
    parse-fallback, truncation and unranked counts are the pass's, at the
    largest n.
    """
    if not configs:
        raise HarnessError("grid needs at least one run config")
    groups = fetch_groups(configs)
    # each group's fetch: at its largest n, from $KPAGG_ENDPOINT if it names no endpoint
    heads = [configs[m[0]]._replace(n_samples=max(configs[i].n_samples for i in m)) for m in groups]
    heads = [h._replace(endpoint=h.endpoint or os.environ.get(ENDPOINT_ENV) or None) for h in heads]
    paths = [cache_path(head) for head in heads]  # each group's one cache file
    # the file of each group without one of its own, in the layout without
    # the origin, and in the one also without the sampling settings
    before = [(h, Path(h.cache_dir, *p.parts[-3:])) for h, p in zip(heads, paths) if not p.exists()]
    older = [p for _, p in before] + [p.with_name(f"{_sanitize(h.model)}.jsonl") for h, p in before]
    for old in filter(Path.exists, dict.fromkeys(older)):
        log.warning(
            "%s holds samples in an older cache layout, without the endpoint or the sampling "
            "settings in its path; it is not replayed (move it aside to silence this)", old
        )
    outs = [p for p in [*(c.out for c in configs), out] if p is not None]
    check_outputs(outs, [
        *[(c.corpus_path, "a corpus") for c in configs],
        *[(c.prompt_config, "a prompt config") for c in configs],
        *[(p, "a cache") for p in paths], *[(p, "an input") for p in reads],
    ])
    # Every group's inputs are read before the first group fetches or
    # writes anything; each corpus and prompt file is read once per grid.
    load_corpus = functools.cache(corpus.load_corpus)
    load_prompts = functools.cache(prompting.load_prompt_config)
    inputs = [_prepare(head, load_corpus, load_prompts) for head in heads]
    # An output directory, or an online group's cache directory, that
    # cannot be made ends the grid before anything is fetched.
    online = [path for path, (_, _, client, _) in zip(paths, inputs) if client]
    for p in [*(Path(p).parent for p in outs), *(p.parent for p in online)]:
        p.mkdir(parents=True, exist_ok=True)
    summaries: list[RunSummary | None] = [None] * len(configs)
    for head, members, path, prepared in zip(heads, groups, paths, inputs):
        group = _run_group(head, [configs[i] for i in members], path, *prepared)
        for i, summary in zip(members, group):
            summaries[i] = summary
    if out:
        _write_report(out, [s.report for s in summaries], [provenance(c) for c in configs])
    return summaries
