"""Per-layer tracing of kpagg from outside the package.

Each traced layer is reached by replacing a public name where the caller
looks it up (`porter.stem`, `textnorm.normalize_tokens`,
`harness.parse_sample`, `harness.SampleCache`, ...) with a wrapper that
records a span; `Tracer.__exit__` puts every original back. HTTP is counted
at `requests.sessions.Session.request` and
`urllib3.connection.HTTPConnection.connect`, below the client, so a switch
from `requests.post` to a shared `Session` stays visible.

Spans nest on a per-thread stack: document work runs on pool threads, where
a profiler attached to the main thread would only see lock waits. Each span
reads two clocks. Wall time counts waiting: for the server, and, with two
pool threads, for the interpreter lock, which a thread hands over whenever
it hashes a prompt or reads a file. Thread CPU time counts only the work
the layer did. A layer's self time is its span's time minus that of the
spans it directly encloses. Spans are folded into per-thread tables while
the run executes (a run makes tens of thousands of stem calls, too many to
keep one record each) and merged when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time

from kpagg import aggregation, corpus, harness, metrics, porter, prompting, textnorm

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}

# Table row fields.
CALLS, WALL, WALL_SELF, CPU, CPU_SELF = range(5)


class _ThreadState:
    def __init__(self):
        self.stack: list[list[float]] = []  # [child wall, child cpu] per open span
        self.table: dict[str, list] = {}
        self.latencies: list[float] = []
        self.stem_words: set[str] = set()

    def row(self, name: str) -> list:
        row = self.table.get(name)
        if row is None:
            row = self.table[name] = [0, 0.0, 0.0, 0.0, 0.0]
        return row


class Tracer:
    """Collects spans and counts; a context manager that undoes its patches."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str) -> None:
        self.state().row(name)[CALLS] += 1

    def span(self, name: str, fn):
        """Wrap `fn` so that each call records a span called `name`."""
        state_of = self.state
        wall, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append([0.0, 0.0])
            w0, c0 = wall(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                dw, dc = wall() - w0, cpu() - c0
                child_wall, child_cpu = stack.pop()
                if stack:
                    stack[-1][0] += dw
                    stack[-1][1] += dc
                row = state.row(name)
                row[CALLS] += 1
                row[WALL] += dw
                row[WALL_SELF] += dw - child_wall
                row[CPU] += dc
                row[CPU_SELF] += dc - child_cpu

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` with `make(original)`; absent names are noted."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, lambda fn: self.span(name, fn))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def merged(self) -> dict[str, list]:
        out: dict[str, list] = {}
        with self._lock:
            for state in self._states:
                for name, row in state.table.items():
                    total = out.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
                    for i, value in enumerate(row):
                        total[i] += value
        return out

    def latencies(self) -> list[float]:
        with self._lock:
            return [x for state in self._states for x in state.latencies]

    def distinct_stems(self) -> int:
        with self._lock:
            return len(set().union(*(s.stem_words for s in self._states)))


def install(tracer: Tracer) -> None:
    """Patch every traced layer."""
    import requests.sessions
    import urllib3.connection

    def traced_stem(stem):
        timed = tracer.span("porter.stem", stem)

        def wrapper(word, *args, **kwargs):
            tracer.state().stem_words.add(word)
            return timed(word, *args, **kwargs)

        return wrapper

    tracer.patch(porter, "stem", traced_stem)
    for name in ("normalize_tokens", "normalize_phrase", "is_present"):
        tracer.wrap(textnorm, name, f"textnorm.{name}")
    for name in ("load_corpus", "partition_gold"):
        tracer.wrap(corpus, name, f"corpus.{name}")
    tracer.wrap(prompting, "build_prompt", "prompting.build_prompt")
    for name in ("rank_samples", "predict"):
        tracer.wrap(aggregation, name, f"aggregation.{name}")
    for name in ("score_document", "build_report", "reports_csv"):
        tracer.wrap(metrics, name, f"metrics.{name}")
    tracer.wrap(harness, "perplexity", "llm_client.perplexity")

    def traced_parse(parse):
        timed = tracer.span("llm_client.parse_sample", parse)

        def wrapper(*args, **kwargs):
            parsed = timed(*args, **kwargs)
            if parsed.fallback:
                tracer.count("llm_client.parse_fallbacks")
            return parsed

        return wrapper

    tracer.patch(harness, "parse_sample", traced_parse)

    def traced_cache(base):
        def get(self, *args, **kwargs):
            sample = base.get(self, *args, **kwargs)
            tracer.count("llm_client.SampleCache.gets")
            if sample is not None:
                tracer.count("llm_client.SampleCache.hits")
            return sample

        return type(base.__name__, (base,), {
            "__init__": tracer.span("llm_client.SampleCache.load", base.__init__),
            "put": tracer.span("llm_client.SampleCache.put", base.put),
            "get": get,
        })

    tracer.patch(harness, "SampleCache", traced_cache)
    tracer.patch(harness, "LLMClient", lambda base: type(base.__name__, (base,), {
        "sample_completions": tracer.span(
            "llm_client.sample_completions", base.sample_completions
        ),
    }))

    def traced_pool(base):
        def submit(self, fn, *args, **kwargs):
            return base.submit(self, tracer.span("harness.task", fn), *args, **kwargs)

        return type(base.__name__, (base,), {"submit": submit})

    tracer.patch(harness, "ThreadPoolExecutor", traced_pool)
    # harness.grid calls harness.run through its module globals.
    for name in ("run", "grid"):
        tracer.wrap(harness, name, f"harness.{name}")

    def traced_request(request):
        timed = tracer.span("http.request", request)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                resp = timed(*args, **kwargs)
            except Exception:
                tracer.count("http.retryable")
                raise
            finally:
                tracer.state().latencies.append(time.perf_counter() - t0)
            if resp.status_code in _RETRYABLE_STATUS:
                tracer.count("http.retryable")
            return resp

        return wrapper

    tracer.patch(requests.sessions.Session, "request", traced_request)

    def counted_connect(connect):
        def wrapper(*args, **kwargs):
            tracer.count("http.connects")
            return connect(*args, **kwargs)

        return wrapper

    tracer.patch(urllib3.connection.HTTPConnection, "connect", counted_connect)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer figures of one traced run.

    A `.s` figure is the layer's self CPU time, except `http.request.s`,
    whose self wall time includes the wait for the server.
    """
    table = tracer.merged()

    def get(name, field):
        return table.get(name, [0, 0.0, 0.0, 0.0, 0.0])[field]

    out = {}
    for name in (
        "porter.stem",
        "textnorm.normalize_tokens",
        "textnorm.is_present",
        "corpus.partition_gold",
        "prompting.build_prompt",
        "llm_client.SampleCache.put",
        "aggregation.predict",
    ):
        out[f"{name}.calls"] = get(name, CALLS)
    for name in (
        "porter.stem",
        "textnorm.normalize_tokens",
        "textnorm.normalize_phrase",
        "textnorm.is_present",
        "corpus.load_corpus",
        "corpus.partition_gold",
        "prompting.build_prompt",
        "llm_client.SampleCache.put",
        "llm_client.sample_completions",
        "llm_client.parse_sample",
        "llm_client.perplexity",
        "aggregation.rank_samples",
        "aggregation.predict",
        "metrics.score_document",
        "metrics.build_report",
        "metrics.reports_csv",
    ):
        out[f"{name}.s"] = get(name, CPU_SELF)
    stems = get("porter.stem", CALLS)
    out["porter.stem.repeat_ratio"] = 1 - tracer.distinct_stems() / stems if stems else 0.0
    out["llm_client.SampleCache.load_s"] = get("llm_client.SampleCache.load", CPU_SELF)
    out["llm_client.SampleCache.loads"] = get("llm_client.SampleCache.load", CALLS)
    gets = get("llm_client.SampleCache.gets", CALLS)
    hits = get("llm_client.SampleCache.hits", CALLS)
    out["llm_client.cache_hit_ratio"] = hits / gets if gets else 0.0
    out["llm_client.parse_fallbacks"] = get("llm_client.parse_fallbacks", CALLS)
    requests_made = get("http.request", CALLS)
    connects = get("http.connects", CALLS)
    out["http.requests"] = requests_made
    out["http.connects"] = connects
    out["http.connect_ratio"] = connects / requests_made if requests_made else 0.0
    out["http.request.s"] = get("http.request", WALL_SELF)
    latencies = tracer.latencies()
    out["http.request.p50_ms"] = _percentile(latencies, 50) * 1000
    out["http.request.p99_ms"] = _percentile(latencies, 99) * 1000
    out["http.retries"] = get("http.retryable", CALLS)
    out["harness.self_s"] = sum(
        get(name, CPU_SELF) for name in ("harness.run", "harness.grid", "harness.task")
    )
    busy = get("harness.task", WALL)
    out["harness.worker_busy_s"] = busy
    out["harness.parallelism"] = busy / run_s if run_s > 0 else 0.0
    return out
