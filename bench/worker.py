"""One timed repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

The parent (`bench/run.py`) writes SPEC, starts this process and reads the
JSON result it writes to `spec["result"]`. Nothing from kpagg is imported
before the set-up clock stops, so `imported_at` (CLOCK_MONOTONIC, shared by
all processes on the host) marks the end of interpreter start plus
`import kpagg.harness`, the cost every `kpagg` command pays.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kpagg.harness as harness  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402

import layers  # noqa: E402  (bench/ is on sys.path as the script's directory)

STRATEGIES = ("single", "union", "union_concat", "union_interleaf", "frequency_order")


def _config(spec: dict, **overrides) -> harness.RunConfig:
    fields = {
        "corpus_path": spec["corpus"],
        "variant": "baseline",
        "strategy": "frequency_order",
        "n_samples": spec["n_samples"],
        "cache_dir": spec["cache_dir"],
        "max_in_flight": spec["max_in_flight"],
        "offline": True,
    }
    fields.update(overrides)
    return harness.RunConfig(**fields)


def _measured_call(spec: dict):
    """The timed work: a callable returning the run summaries."""
    workload = spec["workload"]
    if workload == "strategy-grid":
        configs = [_config(spec, strategy=s, limit=spec["limit"]) for s in STRATEGIES]
        return lambda: harness.grid(configs, out=spec["out"])
    if workload == "cold-fetch":
        cfg = _config(
            spec,
            offline=False,
            endpoint=spec["endpoint"],
            request_mode="per-request",
            out=spec["out"],
        )
    else:
        cfg = _config(spec, out=spec["out"])
    return lambda: [harness.run(cfg)]


def _peak_rss_mb() -> float:
    """Peak resident set of this process since exec.

    `ru_maxrss` is not used: when the parent starts this process with vfork,
    the kernel folds the parent's own peak into the child's `ru_maxrss`.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    call = _measured_call(spec)
    tracer = layers.Tracer() if spec["trace"] else None
    with tracer or contextlib.nullcontext():
        if tracer is not None:
            layers.install(tracer)
        t0 = time.perf_counter()
        summaries = call()
        run_s = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()

    evaluations = sum(s.processed + s.errored for s in summaries)
    errored = sum(s.errored for s in summaries)
    report = Path(spec["out"]).read_bytes()
    result = {
        "imported_at": IMPORTED_AT,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "evaluations": evaluations,
        "errored": errored,
        "sha256": hashlib.sha256(report).hexdigest(),
    }
    if spec["workload"] == "cold-fetch":
        # Untimed: the report must replay byte for byte from the cache the
        # cold run just wrote; samples that failed were never cached.
        replay = harness.run(_config(spec, out=spec["replay_out"]))
        result["replay_sha256"] = hashlib.sha256(
            Path(spec["replay_out"]).read_bytes()
        ).hexdigest()
        result["unavailable"] = replay.cache_misses
    else:
        result["unavailable"] = sum(s.cache_misses for s in summaries)
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, run_s)
        result["missing"] = tracer.missing
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
