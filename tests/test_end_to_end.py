"""The whole report against a naive evaluator composed from the stage oracles.

Each stage has its own oracle test; these check how the stages are joined:
which ranking, cut and gold a config's scores come from, and under which
config its record is filed, and which samples a config at n sees: those
in slots below n. The fixed test's inputs are the benchmark's
(`bench/gen.py`, seed 0, 30 documents), their samples written to a warm
cache straight from the fixtures, as the mock server would serve them. The
first property test draws small corpora, one or two prompt variants (one
fetch group each) and each variant's cache lines; the online one draws an
endpoint's answers and faults, and checks a run against what its cache
holds afterwards.
"""

import importlib.util
import itertools
import json
import tempfile
import threading
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg import corpus, harness, llm_client, metrics, prompting
from kpagg.aggregation import STRATEGIES
from kpagg.cache import SampleCache
from kpagg.llm_client import (
    PPL_MODES,
    REQUEST_MODES,
    AuthenticationError,
    RawSample,
)
from kpagg.metrics import CELLS, EMPTY_GOLD_POLICIES

from . import oracles
from .conftest import TOY_CORPUS

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
N_DOCS = 30


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """(base config, oracle documents): the corpus on disk and every
    fixture sample in the config's cache file."""
    tmp = tmp_path_factory.mktemp("e2e")
    records, responses = _bench_gen().make_inputs(ROOT, SEED, N_DOCS)
    corpus_path = tmp / f"bench_s{SEED}.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    base = harness.RunConfig(
        corpus_path=str(corpus_path), cache_dir=str(tmp / "cache"), n_samples=10, offline=True
    )
    pcfg = prompting.load_prompt_config()
    path = harness.cache_path(base)
    path.parent.mkdir(parents=True)
    cache = SampleCache(path)
    documents = []
    for doc, record, response in zip(corpus.load_corpus(corpus_path), records, responses):
        assert doc.id == record["id"]
        prompt = prompting.build_prompt(doc, base.variant, pcfg, base.prefill)
        samples = response["samples"][: base.n_samples]
        cache.put(*(
            RawSample(
                doc.id,
                prompt.prompt_hash,
                i,
                s["text"],
                sum(s["logprobs"]) if s.get("logprobs") else None,
                len(s.get("logprobs") or ()),
                "stop",
            )
            for i, s in enumerate(samples)
        ))
        documents.append({
            "source": f"{record['title']} {record['abstract']}",
            "gold": record["keyphrases"],
            "had_prefill": base.prefill,
            "samples": [
                {"slot": i, "text": s["text"], "logprobs": s.get("logprobs"), "truncated": False}
                for i, s in enumerate(samples)
            ],
        })
    cache.close()
    return base, documents


# every config that only changes how samples are scored
EVALUATIONS = list(itertools.product(STRATEGIES, PPL_MODES, EMPTY_GOLD_POLICIES))


def seen_at(documents, n):
    """The oracle documents as a config at n sees them: each keeps the
    samples whose slot is below n."""
    return [
        {**document, "samples": [s for s in document["samples"] if s["slot"] < n]}
        for document in documents
    ]


def assert_reports_match_the_oracle(configs, summaries, documents):
    """Each config's report against the oracle's over the samples it sees,
    and its processed and errored documents counted on their own."""
    for config, summary in zip(configs, summaries):
        seen = seen_at(documents, config.n_samples)
        table, counts = oracles.report_oracle(
            seen, config.strategy, config.ppl_mode, config.empty_gold
        )
        label = (config.n_samples, config.strategy, config.ppl_mode, config.empty_gold)
        processed = sum(1 for d in seen if d["samples"])
        assert (summary.processed, summary.errored) == (processed, len(seen) - processed), label
        assert summary.report.counts == counts, label
        for cell in CELLS:
            got, want = summary.report.table[cell], table[cell]
            if want is None:
                assert got is None, (label, cell)
            else:
                assert got == pytest.approx(want, abs=1e-12, rel=0), (label, cell)


@pytest.mark.oracle
def test_grid_reports_match_the_composed_oracle(bench_inputs):
    base, documents = bench_inputs
    configs = [
        base._replace(n_samples=n, strategy=strategy, ppl_mode=mode, empty_gold=policy)
        for n in (1, 3, 5, 10)
        for strategy, mode, policy in EVALUATIONS
    ]
    assert len(configs) == 80
    summaries = harness.grid(configs)
    for summary in summaries:
        assert (summary.processed, summary.errored, summary.cache_misses) == (N_DOCS, 0, 0)
    assert_reports_match_the_oracle(configs, summaries, documents)


# Words of the phrases; `parkinson's` puts an apostrophe inside an item.
WORDS = ["graph", "graphs", "neural", "network", "parkinson's", "disease"]
PHRASES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)
# A document's source, gold and samples pick their phrases from a pool of
# a few, so that predictions often hit the gold, present and absent; a pick
# is an index into the pool, taken modulo its size.
POOLS = st.lists(PHRASES, min_size=2, max_size=5, unique=True)
PICKS = st.lists(st.integers(0, 59), max_size=4)


def sometimes_none(values):
    """None one time in four, else a value of `values`."""
    return st.tuples(st.integers(0, 3), values).map(lambda t: t[1] if t[0] else None)


# A sample slot, None where the sample is absent: the picks of its list
# items; how the list is written (quote, separator, what comes before the
# items and what after; with no items and neither `[` nor `]` the text is
# empty); its logprobs, of few distinct values so that the two perplexity
# modes often rank differently; and its finish reason.
SLOTS = sometimes_none(st.tuples(
    st.lists(st.integers(0, 59), max_size=5),
    st.sampled_from(['"', "'", ""]),
    st.sampled_from([", ", ",", "\n"]),
    st.sampled_from(["", "[", "Keyphrases: ["]),
    st.sampled_from(["]", "", "] and more"]),
    sometimes_none(st.lists(st.sampled_from([-0.25, -1.0, -2.5, -4.0]), min_size=1, max_size=6)),
    st.sampled_from(["stop", "length", "content_filter"]),
))


# How a document id starts: an id holding a quote or a backslash is escaped
# in its cache lines, which the cache's fast prefix match then misses.
ID_STARTS = ["d", 'd"', "d\\", "é"]


@st.composite
def drawn_corpora(draw):
    """(n_samples, prefill, records, slots by variant): 1-6 documents and
    one or two prompt variants; each variant gives each document its own
    n_samples (2-5) slots. A slot holds a sample's text, logprobs and
    finish reason, or None where the sample is absent, so a document may
    have one sample or none. An id may hold a quote, a backslash or a
    non-ASCII letter."""
    n_samples = draw(st.integers(2, 5))
    variants = draw(
        st.lists(st.sampled_from(prompting.VARIANTS), min_size=1, max_size=2, unique=True)
    )
    records, slots = [], {variant: [] for variant in variants}
    for j in range(draw(st.integers(1, 6))):
        pool = draw(POOLS)
        records.append({
            "id": f"{draw(st.sampled_from(ID_STARTS))}{j}",
            "title": draw(PHRASES),
            "abstract": ". ".join(pool[i % len(pool)] for i in draw(PICKS)),
            "keyphrases": [pool[i % len(pool)] for i in draw(PICKS)],
        })
        for variant in variants:
            samples = []
            for slot in draw(st.lists(SLOTS, min_size=n_samples, max_size=n_samples)):
                if slot is not None:
                    picks, quote, separator, opener, closer, logprobs, finish_reason = slot
                    items = separator.join(quote + pool[i % len(pool)] + quote for i in picks)
                    slot = {
                        "text": opener + items + closer,
                        "logprobs": logprobs,
                        "finish_reason": finish_reason,
                    }
                samples.append(slot)
            slots[variant].append(samples)
    return n_samples, draw(st.booleans()), records, slots


PROMPTS = prompting.load_prompt_config()


@pytest.mark.oracle
@given(
    drawn_corpora(),
    # a grid over some strategies, one or both perplexity modes and one or
    # both policies
    st.tuples(
        st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from(PPL_MODES), min_size=1, unique=True),
        st.lists(st.sampled_from(EMPTY_GOLD_POLICIES), min_size=1, unique=True),
    ).map(lambda factors: list(itertools.product(*factors))),
    st.data(),
)
def test_drawn_grid_reports_match_the_composed_oracle(drawn, evaluations, data):
    """Each variant is a fetch group of its own, with its own cache file,
    and each of its configs is checked against the oracle over that
    variant's samples. A replay with each cache file's lines shuffled
    writes the same CSV, with the same counts."""
    n_samples, prefill, records, slots = drawn
    # each config's own sample count, from 1 up to the slot count
    counts = {
        variant: data.draw(st.lists(
            st.integers(1, n_samples), min_size=len(evaluations), max_size=len(evaluations)
        ))
        for variant in slots
    }
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "drawn.jsonl"
        corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        base = harness.RunConfig(
            corpus_path=str(corpus_path),
            cache_dir=str(Path(tmp) / "cache"),
            n_samples=n_samples,
            prefill=prefill,
            offline=True,
        )
        configs, paths = [], []
        for variant, variant_slots in slots.items():
            path = harness.cache_path(base._replace(variant=variant))
            paths.append(path)
            path.parent.mkdir(parents=True)
            cache = SampleCache(path)
            for doc, doc_slots in zip(corpus.load_corpus(corpus_path), variant_slots):
                prompt = prompting.build_prompt(doc, variant, PROMPTS, prefill)
                cache.put(*(
                    RawSample(
                        doc.id,
                        prompt.prompt_hash,
                        i,
                        s["text"],
                        sum(s["logprobs"]) if s["logprobs"] else None,
                        len(s["logprobs"] or ()),
                        s["finish_reason"],
                    )
                    for i, s in enumerate(doc_slots)
                    if s is not None
                ))
            cache.close()
            configs += [
                base._replace(
                    variant=variant, n_samples=n, strategy=strategy, ppl_mode=mode,
                    empty_gold=policy,
                )
                for n, (strategy, mode, policy) in zip(counts[variant], evaluations)
            ]
        assert len(harness.fetch_groups(configs)) == len(slots)
        out = Path(tmp) / "grid.csv"
        summaries = harness.grid(configs, out=str(out))
        report = out.read_bytes()
        for path in filter(Path.exists, paths):  # a variant without samples has no file
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(data.draw(st.permutations(lines))))
        replay = harness.grid(configs, out=str(out))
        assert out.read_bytes() == report
        assert [s._replace(wall_time=0) for s in replay] == [
            s._replace(wall_time=0) for s in summaries
        ]
    for variant, variant_slots in slots.items():
        documents = [
            {
                "source": f"{record['title']} {record['abstract']}",
                "gold": record["keyphrases"],
                "had_prefill": prefill,
                "samples": [
                    {
                        "slot": i,
                        "text": s["text"],
                        "logprobs": s["logprobs"],
                        "truncated": s["finish_reason"] != "stop",
                    }
                    for i, s in enumerate(doc_slots)
                    if s is not None
                ],
            }
            for record, doc_slots in zip(records, variant_slots)
        ]
        mine = [k for k, c in enumerate(configs) if c.variant == variant]
        assert_reports_match_the_oracle(
            [configs[k] for k in mine], [summaries[k] for k in mine], documents
        )


# ---- the online run against a drawn faulty endpoint ----

TOY_RECORDS = [json.loads(line) for line in TOY_CORPUS.read_text(encoding="utf-8").splitlines()]
# The answers of one request, by the fault drawn for it: a full 200; a 200
# with one choice fewer than asked; a 200 whose body is no JSON; a 200 whose
# first choice has the wrong shape; a 429 asking for no wait; a 500; the
# connection closed before any answer; a full 200 cut by the token limit or
# a content filter; and a 401.
FAULTS = (
    "full", "fewer", "not json", "wrong shape", "429", "500", "drop", "length", "content_filter"
)
# Two phrases beside each document's gold: `parkinson's disease` puts an
# apostrophe inside an item, and neither is in any toy source.
EXTRA_PHRASES = ["parkinson's disease", "neural network"]
# How a choice's list is written, as in SLOTS; the logprobs are binary
# fractions, whose sums are exact in any order.
CHOICES = st.tuples(
    st.lists(st.integers(0, 59), max_size=5),
    st.sampled_from(['"', "'", ""]),
    st.sampled_from([", ", ",", "\n"]),
    st.sampled_from(["", "[", "Keyphrases: ["]),
    st.sampled_from(["]", "", "] and more"]),
    sometimes_none(st.lists(st.sampled_from([-0.25, -1.0, -2.5, -4.0]), min_size=1, max_size=6)),
)


@st.composite
def online_cases(draw):
    """(document count, n, request mode, prefill, max_in_flight, pools,
    schedule): the first 1-4 toy documents; each one's pool of 1-3 choices
    (text, logprobs), which its k-th request serves from the k-th on,
    cycling; and the fault of each (document, request number) drawn, the
    rest answered in full, with at most one 401."""
    n_docs = draw(st.integers(1, 4))
    pools = []
    for record in TOY_RECORDS[:n_docs]:
        phrases = record["keyphrases"] + EXTRA_PHRASES
        pool = []
        for picks, quote, separator, opener, closer, logprobs in draw(
            st.lists(CHOICES, min_size=1, max_size=3)
        ):
            items = separator.join(quote + phrases[i % len(phrases)] + quote for i in picks)
            pool.append((opener + items + closer, logprobs))
        pools.append(pool)
    schedule = {
        (j, k): fault
        for j in range(n_docs)
        for k, fault in enumerate(draw(st.lists(st.sampled_from(FAULTS), max_size=5)))
    }
    unauthorized = draw(st.none() | st.tuples(st.integers(0, n_docs - 1), st.integers(0, 2)))
    if unauthorized is not None:
        schedule[unauthorized] = "401"
    return (
        n_docs,
        draw(st.integers(1, 4)),
        draw(st.sampled_from(REQUEST_MODES)),
        draw(st.booleans()),
        draw(st.sampled_from([1, 3])),
        pools,
        schedule,
    )


class FaultyEndpoint:
    """What the endpoint answers, and what it was asked and sent. A
    document's k-th request gets the fault `schedule[(document, k)]`, or a
    full answer. Each request, in arrival order, is in `requests` as
    (document index, choices asked for); each choice of a 200 sent is in
    `sent` as (document index, text, finish reason, logprobs). Once the 401
    is sent, every later answer waits until `raised` is set, which the test
    does when the client raises the AuthenticationError. Without that wait
    another fetcher could be answered and send again while the 401 is
    still on its way to the client, which has not yet kept the refusal."""

    def __init__(self, pools, schedule):
        self.pools, self.schedule = pools, schedule
        self.lock = threading.Lock()
        self.requests, self.sent = [], set()
        self.unauthorized_at = None  # the index of the 401's request
        self.raised = threading.Event()
        self.stuck = False

    def answer(self, handler, payload) -> None:
        user = next(m["content"] for m in payload["messages"] if m["role"] == "user")
        doc = next(
            j for j, record in enumerate(TOY_RECORDS) if f"Title: {record['title']}\n" in user
        )
        n = payload["n"]
        with self.lock:
            k = sum(d == doc for d, _ in self.requests)
            self.requests.append((doc, n))
            fault = self.schedule.get((doc, k), "full")
            after_401 = self.unauthorized_at is not None
            if fault == "401":
                self.unauthorized_at = len(self.requests) - 1
        # a fetcher given no answer 10 s after the 401 was never stopped
        if after_401 and not self.raised.wait(10):
            self.stuck = True
        if fault == "drop":
            handler.close_connection = True
            return
        status, headers, body = 200, {}, None
        if fault in ("401", "429", "500"):
            status, body = int(fault), {"error": {"message": fault}}
            if fault == "429":
                headers["Retry-After"] = "0"
        elif fault == "not json":
            body = "<html>busy</html>"
        else:
            pool = self.pools[doc]
            finish = fault if fault in ("length", "content_filter") else "stop"
            choices = []
            for i in range(n - (fault == "fewer")):
                text, logprobs = pool[(k + i) % len(pool)]
                choice = {"index": i, "message": {"role": "assistant", "content": text},
                          "finish_reason": finish, "logprobs": None}
                if logprobs is not None:
                    choice["logprobs"] = {
                        "content": [{"token": "t", "logprob": lp} for lp in logprobs]
                    }
                if fault == "wrong shape" and i == 0:
                    choice["message"] = {"content": 7}
                else:
                    with self.lock:
                        self.sent.add((doc, text, finish, logprobs and tuple(logprobs)))
                choices.append(choice)
            body = {"model": payload["model"], "choices": choices}
        data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        handler.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(data))}.items():
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(data)


class FaultyHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # the body's write would wait on a delayed ACK

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.endpoint.answer(self, payload)


@pytest.fixture(scope="module")
def faulty_server():
    """A server whose `endpoint` (a FaultyEndpoint) each example sets."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), FaultyHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def cached_samples(config, docs) -> dict:
    """The samples the config's cache file holds, by document id and slot."""
    held = {}
    with closing(SampleCache(harness.cache_path(config))) as cache:
        for doc in docs:
            prompt = prompting.build_prompt(doc, config.variant, PROMPTS, config.prefill)
            cached = cache.take(doc.id)
            slots = [cached.get((prompt.prompt_hash, i)) for i in range(config.n_samples)]
            held[doc.id] = {i: s for i, s in enumerate(slots) if s is not None}
    return held


def assert_run_matches_the_cache(config, summary, docs, before, sent):
    """The run's summary and report against a recount and the oracle over
    the samples its cache held `before` and holds now; an offline replay
    writes the same files."""
    after = cached_samples(config, docs)
    for doc in docs:
        assert before[doc.id].items() <= after[doc.id].items()
    hits = sum(map(len, before.values()))
    samples = [s for held in after.values() for s in held.values()]
    assert (summary.cache_hits, summary.cache_misses) == (hits, config.n_samples * len(docs) - hits)
    assert summary.truncated == sum(s.finish_reason in ("length", "content_filter") for s in samples)
    parsed = [oracles.parse_sample_oracle(s.text, config.prefill, s.truncated) for s in samples]
    assert summary.parse_fallbacks == sum(p[1] for p in parsed)
    assert summary.restarted == sum(p[2] for p in parsed)
    documents = []
    for j, (doc, record) in enumerate(zip(docs, TOY_RECORDS)):
        oracle_samples = []
        for slot, s in sorted(after[doc.id].items()):
            # the logprobs of a choice sent with this text whose sum and count
            # the cache holds: every cached sample is one that was sent
            matches = [
                lps for d, text, finish, lps in sent
                if (d, text, finish) == (j, s.text, s.finish_reason)
                and (s.lp_sum, s.lp_n) == ((sum(lps), len(lps)) if lps else (None, 0))
            ]
            assert matches, s
            oracle_samples.append({
                "slot": slot, "text": s.text, "logprobs": matches[0], "truncated": s.truncated
            })
        documents.append({
            "source": f"{record['title']} {record['abstract']}",
            "gold": record["keyphrases"],
            "had_prefill": config.prefill,
            "samples": oracle_samples,
        })
    assert_reports_match_the_oracle([config], [summary], documents)
    csv_path, meta_path = harness.report_files(config.out)
    assert csv_path.read_text(encoding="utf-8") == metrics.reports_csv([summary.report])
    replay = config._replace(endpoint=None, offline=True, out=f"{config.out}.replay")
    harness.run(replay)
    assert [p.read_bytes() for p in harness.report_files(replay.out)] == [
        csv_path.read_bytes(), meta_path.read_bytes()
    ]


def assert_short_answers_were_asked_again(config, docs, before, schedule, requests):
    """Each document whose faults are only short answers (`fewer`, `wrong
    shape`), each answered at once, sent the requests and holds the slots
    that `oracles.received_slots_oracle` gives for the answers it got: a
    slot an answer left missing is asked for again."""
    after = cached_samples(config, docs)
    valid, bad = {"message": {"content": "x"}}, {"message": {"content": 7}}
    for j, doc in enumerate(docs):
        if not {f for (d, _), f in schedule.items() if d == j} <= {"fewer", "wrong shape"}:
            continue
        asked = [n for d, n in requests if d == j]
        bodies = []
        for k, n in enumerate(asked):
            fault = schedule.get((j, k))
            choices = [valid] * (n - (fault == "fewer"))
            if fault == "wrong shape":
                choices[0] = bad
            bodies.append({"choices": choices})
        missing = [i for i in range(config.n_samples) if i not in before[doc.id]]
        # a full answer to each request the client did not send: whether the
        # oracle sends one depends only on the answers before it
        bodies += [{"choices": [valid] * len(missing)}] * (len(missing) - len(bodies))
        slots, oracle_asked = oracles.received_slots_oracle(config.request_mode, missing, bodies)
        assert oracle_asked == asked
        assert sorted(after[doc.id]) == sorted([*before[doc.id], *slots])


@pytest.mark.oracle
@given(online_cases())
def test_online_run_matches_the_composed_oracle(faulty_server, case):
    """A run against a drawn faulty endpoint, then a second against one
    that answers in full: each run's report is the oracle's over what its
    cache holds afterwards, its counts are those of the cache before and
    after, and an offline replay writes the same files. The second run
    asks for exactly the slots the first left absent. In the first run, a
    document whose only faults are short answers asks again for what they
    left missing, as the client oracle says. A 401 ends a run:
    after it the endpoint hears only the requests other fetchers had
    already sent, at most `max_in_flight - 1` of them."""
    n_docs, n, request_mode, prefill, max_in_flight, pools, schedule = case
    docs = corpus.load_corpus(TOY_CORPUS)[:n_docs]
    url = "http://%s:%d/v1" % faulty_server.server_address[:2]
    post = llm_client.LLMClient._post_with_retries

    def signalling_post(self, data):
        try:
            return post(self, data)
        except AuthenticationError:
            faulty_server.endpoint.raised.set()
            raise

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("time.sleep"), \
            mock.patch.object(llm_client, "MAX_RETRIES", 2), \
            mock.patch.object(llm_client.LLMClient, "_post_with_retries", signalling_post):
        config = harness.RunConfig(
            corpus_path=str(TOY_CORPUS), endpoint=url, cache_dir=str(Path(tmp) / "cache"),
            limit=n_docs, n_samples=n, request_mode=request_mode, prefill=prefill,
            max_in_flight=max_in_flight, out=str(Path(tmp) / "first.csv"),
        )
        first = faulty_server.endpoint = FaultyEndpoint(pools, schedule)
        before = cached_samples(config, docs)
        try:
            summary = harness.run(config)
        except AuthenticationError:
            at = first.unauthorized_at
            assert at is not None
            later = first.requests[at + 1:]
            assert first.requests[at][0] not in {doc for doc, _ in later}
            assert len(later) <= max_in_flight - 1
            assert not first.stuck
        else:
            assert first.unauthorized_at is None
            assert_run_matches_the_cache(config, summary, docs, before, first.sent)
            assert_short_answers_were_asked_again(config, docs, before, schedule, first.requests)

        config = config._replace(out=str(Path(tmp) / "second.csv"))
        second = faulty_server.endpoint = FaultyEndpoint(pools, {})
        before = cached_samples(config, docs)
        summary = harness.run(config)
        absent = [(j, n - len(before[doc.id])) for j, doc in enumerate(docs)]
        if request_mode == "choices":
            asked = [(j, k) for j, k in absent if k]
        else:
            asked = [(j, 1) for j, k in absent for _ in range(k)]
        assert sorted(second.requests) == asked
        assert_run_matches_the_cache(config, summary, docs, before, first.sent | second.sent)
