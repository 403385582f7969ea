"""Offline, deterministic benchmark of the kpagg harness.

Usage (from the repository root):

    python3 bench/run.py --workload warm-replay --seed 0 --seconds 30 --trace 0

Workloads:

- warm-replay: every sample cached, one config (baseline x frequency_order),
  offline. The pure CPU path: cache load, parse, normalise/stem, presence,
  aggregate, score; no network.
- cold-fetch: empty cache, one HTTP request per sample (per-request mode)
  against `kpagg.mock_server` in its own process. Stresses transport and
  cache writes; evaluation is a minor share.
- strategy-grid: `harness.grid` over all five strategies on one warm cache
  and a document subset. The only workload that runs union, union_concat,
  union_interleaf and single, and that repeats cache loads per config.

Inputs are generated from `--seed` and the in-repo vocabulary (see
`gen.py`); generation, the warm-cache fill and every correctness check are
set-up and untimed. Each timed repetition runs in a fresh interpreter
(`worker.py`), because a user's `kpagg run` starts with empty in-process
state, and repetitions continue until `--seconds` have passed. Figures are
medians over repetitions. All processes run on one CPU, and every reported
time is scaled to a reference machine speed measured around each
repetition (see `Reference`); raw wall-clock medians are printed too.

With `--trace 0` the end-to-end metrics are reported: setup_s, run_s,
docs_per_s and peak_rss_mb. With `--trace 1`, traced and untraced
repetitions alternate, and the per-layer metrics of `layers.py` are
reported, with `trace.overhead_frac` (traced over untraced run_s, minus 1).

Correctness, checked on every invocation; any failure exits with status 1:

- the toy corpus run through the mock server reproduces
  tests/data/expected_report.csv byte for byte;
- every repetition writes the same report, and its sha256 equals the
  committed digest in digests.json when one exists for the seed;
- each cold-fetch report equals an offline replay of the cache it wrote.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen  # bench/ is on sys.path as the script's directory

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
TOY_CORPUS = ROOT / "tests" / "data" / "toy_corpus.jsonl"
EXPECTED_REPORT = ROOT / "tests" / "data" / "expected_report.csv"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 0
N_SAMPLES = 10
MIN_REPS = 3
REP_TIMEOUT_S = 150
# Threads and connections stay within the cores of a 2-core machine; the
# program's own default (4) is left alone.
MAX_IN_FLIGHT = max(1, min(2, len(os.sched_getaffinity(0))))

# docs: corpus size; limit: documents each grid config evaluates.
WORKLOADS = {
    "warm-replay": {"docs": 100},
    "cold-fetch": {"docs": 30},
    "strategy-grid": {"docs": 120, "limit": 30},
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "docs_per_s": "1/s", "peak_rss_mb": "MB"}


# Seconds the reference job takes on an idle 2-core Xeon machine with
# Python 3.11; see `Reference`.
REFERENCE_NOMINAL_S = 0.010


class BenchError(Exception):
    """The benchmark could not be set up; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class MockServer:
    """`kpagg.mock_server` in its own process, ready once its port accepts.

    Readiness is polled on the port: the server's "listening" line is
    block-buffered when stdout is a pipe and may never arrive.
    """

    def __init__(self, fixtures: Path, log_path: Path):
        self.proc = None
        self._log = open(log_path, "wb")
        for _ in range(3):
            port = _free_port()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "kpagg.mock_server",
                 "--fixtures", str(fixtures), "--port", str(port)],
                stdout=subprocess.DEVNULL, stderr=self._log, env=_env(), cwd=ROOT,
            )
            if self._wait_ready(port):
                self.endpoint = f"http://127.0.0.1:{port}/v1"
                return
            self.stop()
        self._log.close()
        raise BenchError(f"mock server did not start; see {log_path}")

    def _wait_ready(self, port: int, timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
                return True
            except OSError:
                time.sleep(0.02)
        return False

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server process has used."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def close(self) -> None:
        self.stop()
        self._log.close()


def _run(**fields):
    """One in-process `harness.run` with the benchmark's fixed settings."""
    from kpagg import harness

    base = {"variant": "baseline", "strategy": "frequency_order",
            "n_samples": N_SAMPLES, "max_in_flight": MAX_IN_FLIGHT}
    return harness.run(harness.RunConfig(**{**base, **fields}))


def check_toy(endpoint: str, work: Path) -> list[str]:
    out = work / "toy.csv"
    _run(corpus_path=str(TOY_CORPUS), cache_dir=str(work / "toy-cache"),
         endpoint=endpoint, out=str(out))
    if out.read_bytes() != EXPECTED_REPORT.read_bytes():
        return ["toy corpus report differs from tests/data/expected_report.csv"]
    return []


def fill_cache(endpoint: str, corpus: Path, cache_dir: Path) -> None:
    """Fetch every sample once (one request per document) into the cache."""
    summary = _run(corpus_path=str(corpus), cache_dir=str(cache_dir), endpoint=endpoint)
    if summary.errored:
        raise BenchError(f"filling the warm cache: {summary.errored} document(s) errored")


class Reference:
    """The machine's speed at this moment: best of three timings of a fixed
    job of the benchmark's own (20000 Zipf word draws and string building,
    pure Python like most of kpagg's hot path).

    On a shared host the same interpreter work runs up to 2x slower when
    neighbours are busy, in spells of seconds to minutes, so raw medians of
    whole runs moved by 30% between runs. Every time the benchmark reports
    is therefore scaled by REFERENCE_NOMINAL_S / seconds(), measured in
    this process (never in kpagg's) right before and after each repetition,
    on the CPU the repetition ran on: seconds at the reference speed. This
    job slows down with neighbours in nearly the same proportion as the
    workloads (a small dict-and-string loop overcorrected by 11%). Raw
    wall-clock medians are printed as well.
    """

    def __init__(self, vocabulary: list[str]):
        self.zipf = gen.Zipf(vocabulary, random.Random(0), gen.ZIPF_EXPONENT)

    def _job(self) -> str:
        rng = self.zipf.rng = random.Random(0)
        words = [self.zipf.draw() for _ in range(20000)]
        return " ".join(w.capitalize() if rng.random() < 0.1 else w for w in words)

    def seconds(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._job()
            best = min(best, time.perf_counter() - t0)
        return best


def run_rep(spec: dict, index: int, traced: bool, work: Path, server: MockServer,
            reference: Reference) -> dict:
    """One repetition in a fresh interpreter; returns the worker's result."""
    spec = dict(spec, trace=traced, out=str(work / f"rep{index}.csv"),
                replay_out=str(work / f"rep{index}.replay.csv"),
                result=str(work / f"rep{index}.json"))
    if spec["workload"] == "cold-fetch":
        spec["cache_dir"] = str(work / f"cold{index}")
    spec_path = work / f"rep{index}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    ref_before = reference.seconds()
    cpu0 = server.cpu_s()
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
        timeout=REP_TIMEOUT_S,
    )
    server_cpu = server.cpu_s() - cpu0
    ref_s = (ref_before + reference.seconds()) / 2
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-4000:])
        raise BenchError(f"repetition {index} exited with status {proc.returncode}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    result.update(traced=traced, setup_s=result["imported_at"] - spawned_at,
                  server_cpu_s=server_cpu, reference_s=ref_s,
                  scale=REFERENCE_NOMINAL_S / ref_s)
    if spec["workload"] == "cold-fetch":
        shutil.rmtree(spec["cache_dir"], ignore_errors=True)
    return result


def measure(spec: dict, seconds: float, trace: bool, work: Path, server: MockServer,
            reference: Reference) -> list[dict]:
    reps: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(spec, len(reps), traced, work, server, reference))
        plain = sum(not r["traced"] for r in reps)
        enough = plain >= MIN_REPS and (not trace or len(reps) - plain >= MIN_REPS)
        if enough and time.monotonic() >= deadline:
            return reps


def check_reps(workload: str, seed: int, reps: list[dict]) -> list[str]:
    problems = []
    digests = {r["sha256"] for r in reps}
    sha = reps[0]["sha256"]
    print(f"report sha256: {sha}")
    if len(digests) > 1:
        problems.append(f"repetitions wrote {len(digests)} different reports")
    committed = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if committed is None:
        print(f"no committed digest for {workload} seed {seed}")
    elif committed != sha:
        problems.append(f"report sha256 {sha} != committed digest {committed}")
    else:
        print(f"matches the committed digest for {workload} seed {seed}")
    for i, rep in enumerate(reps):
        if "replay_sha256" in rep and rep["replay_sha256"] != rep["sha256"]:
            problems.append(f"repetition {i}: cold report differs from its offline replay")
    return problems


def _median(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def summarise(reps: list[dict], trace: bool) -> dict:
    """Medians over repetitions, every time scaled to the reference speed."""
    plain = [r for r in reps if not r["traced"]]
    print(
        f"raw wall-clock medians over {len(plain)} untraced repetitions: "
        f"setup_s={_median(plain, lambda r: r['setup_s']):.4f} "
        f"run_s={_median(plain, lambda r: r['run_s']):.4f}; reference job "
        f"{_median(reps, lambda r: r['reference_s']):.4f} s "
        f"(nominal {REFERENCE_NOMINAL_S} s)"
    )
    if not trace:
        values = {
            "setup_s": _median(plain, lambda r: r["setup_s"] * r["scale"]),
            "run_s": _median(plain, lambda r: r["run_s"] * r["scale"]),
            "docs_per_s": _median(
                plain, lambda r: r["evaluations"] / (r["run_s"] * r["scale"])
            ),
            "peak_rss_mb": _median(plain, lambda r: r["peak_rss_mb"]),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    traced = [r for r in reps if r["traced"]]
    if traced[0]["missing"]:
        print(f"not traced (names absent): {', '.join(traced[0]['missing'])}")
    metrics = {}
    for name in traced[0]["layers"]:
        unit = layer_unit(name)
        metrics[name] = _median(
            traced,
            lambda r: r["layers"][name] * (r["scale"] if unit in ("s", "ms") else 1),
        )
    metrics["mock_server.cpu_s"] = _median(traced, lambda r: r["server_cpu_s"] * r["scale"])
    attempted = sum(r["evaluations"] for r in reps)
    metrics["failed_frac"] = sum(r["errored"] + r["unavailable"] for r in reps) / attempted
    metrics["trace.overhead_frac"] = (
        _median(traced, lambda r: r["run_s"] * r["scale"])
        / _median(plain, lambda r: r["run_s"] * r["scale"])
        - 1
    )
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_frac", "parallelism")):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for path in (SRC / "kpagg" / "harness.py", TOY_CORPUS, EXPECTED_REPORT):
        if not path.is_file():
            print(f"bench: {path} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    # A terminated benchmark still stops the mock server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Every process of the benchmark shares one CPU, so the speed the
    # reference job measures is the speed the repetition and the mock
    # server saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    size = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    server = None
    try:
        work.mkdir(parents=True)
        corpus = work / "corpus" / f"bench_s{args.seed}.jsonl"
        fixtures = work / "fixtures.json"
        gen.write_inputs(ROOT, args.seed, size["docs"], corpus, fixtures)
        server = MockServer(fixtures, work / "mock_server.log")
        problems = check_toy(server.endpoint, work)
        spec = {
            "workload": args.workload, "corpus": str(corpus), "n_samples": N_SAMPLES,
            "cache_dir": str(work / "cache"), "max_in_flight": MAX_IN_FLIGHT,
            "endpoint": server.endpoint, "limit": size.get("limit"),
        }
        if args.workload != "cold-fetch":
            fill_cache(server.endpoint, corpus, work / "cache")
        reference = Reference(gen.load_vocabulary(ROOT))
        reps = measure(spec, args.seconds, bool(args.trace), work, server, reference)
        problems += check_reps(args.workload, args.seed, reps)
        metrics = summarise(reps, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["evaluations"] for r in reps)
    failed = min(attempted, sum(r["errored"] + r["unavailable"] for r in reps))
    for problem in problems:
        print(f"CORRECTNESS FAILURE: {problem}")
    if problems:
        failed = attempted
    print(f"{args.workload}: {len(reps)} repetitions, seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
