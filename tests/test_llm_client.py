"""Response parsing, perplexity, transport retries, and the sample cache."""

import json
import logging
import math
import os
import socket
import string
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kpagg
from kpagg import harness, llm_client
from kpagg.cache import SampleCache
from kpagg.llm_client import (
    AuthenticationError,
    LLMClient,
    LLMClientError,
    RawSample,
    RequestError,
    _content_logprobs,
    _logprob_stats,
    parse_sample,
    perplexity,
)
from kpagg.mock_server import running_server

from .conftest import MOCK_FIXTURES, TOY_CORPUS
from .oracles import (
    cache_load_oracle,
    parse_sample_oracle,
    perplexity_oracle,
    received_slots_oracle,
    received_texts_oracle,
)


def raw(text="x", logprobs=None, index=0, finish="stop", doc="d1"):
    lp_sum, lp_n = _logprob_stats(logprobs or ())
    return RawSample(
        doc_id=doc,
        prompt_hash="h" * 64,
        sample_index=index,
        text=text,
        lp_sum=lp_sum,
        lp_n=lp_n,
        finish_reason=finish,
    )


@st.composite
def quoted_lists(draw):
    """A double-quoted list, often clean, varied where the parser's one-match
    path must hand over to its scan: blanks of one kind per list (the four
    blanks, or with a no-break or line separator among them), comma or
    newline separators, items holding nested brackets, inner quotes or
    separators, items written with JSON backslash escapes, and endings that
    close, nest, trail or never come."""
    blank_chars = draw(st.sampled_from([" ", " \t\r\n", " \xa0", "\n\u2028"]))
    blanks = st.text(alphabet=blank_chars, max_size=2)
    content = draw(
        st.sampled_from(
            [
                st.text(alphabet="ab -", max_size=6),
                st.text(alphabet="ab '[],\n\\\"", max_size=6),
            ]
        )
    )
    escaped = draw(st.booleans())
    separator = st.sampled_from([",", ",", "\n", ", "])
    parts = []
    for k, item in enumerate(draw(st.lists(content, max_size=5))):
        if k:
            parts.append(draw(separator))
        quoted = json.dumps(item) if escaped else f'"{item}"'
        parts.append(draw(blanks) + quoted + draw(blanks))
    ending = draw(st.sampled_from(["]", "]", "]", " ] tail", "", "]]", ",]", ' "x"]', "[b]]"]))
    opening = draw(st.sampled_from(["[", "[", "Answer: [", "[["]))
    return opening + "".join(parts) + ending


class TestParseSample:
    def test_plain_list(self):
        parsed = parse_sample('["graph coloring", "tdma", "scheduling"]', "")
        assert parsed.phrases == ("graph coloring", "tdma", "scheduling")
        assert not parsed.fallback

    @pytest.mark.parametrize("blanks", ["", " \n\t\r"])
    def test_a_list_restarted_after_the_prefill_is_read_alone(self, blanks):
        text = blanks + '["neural networks", "deep learning"]'
        assert parse_sample(text, "[") == (("neural networks", "deep learning"), False, True)
        # without a prefill the list is no restart
        assert parse_sample(text, "") == (("neural networks", "deep learning"), False, False)

    @given(
        st.lists(st.text(alphabet="ab -,[]'", max_size=6), max_size=5),
        st.sampled_from([",", ", "]),
        st.data(),
        st.booleans(),
    )
    def test_a_restarted_list_parses_as_its_continuation(self, items, separator, data, truncated):
        whole = json.dumps(items, separators=(separator, ": "))
        text = whole[: data.draw(st.integers(1, len(whole)), label="cut")]
        continued = parse_sample(text[1:], "[", truncated)
        assert parse_sample(text, "[", truncated) == continued._replace(restarted=True)

    def test_prefill_completion(self):
        parsed = parse_sample('"graph coloring", "tdma"]', "[")
        assert parsed.phrases == ("graph coloring", "tdma")

    def test_surrounding_prose(self):
        text = 'Sure! Here are the keyphrases: ["a", "b"] hope that helps'
        parsed = parse_sample(text, "")
        assert parsed.phrases == ("a", "b")

    def test_newline_separated_items(self):
        parsed = parse_sample('["one",\n"two",\n"three"]', "")
        assert parsed.phrases == ("one", "two", "three")

    def test_unquoted_items(self):
        parsed = parse_sample("[alpha, beta gamma]", "")
        assert parsed.phrases == ("alpha", "beta gamma")

    def test_unterminated_list(self):
        parsed = parse_sample('["a", "b", "c', "")
        assert parsed.phrases == ("a", "b", "c")

    def test_no_bracket_splits_whole_text(self):
        parsed = parse_sample("keyphrase one, keyphrase two", "")
        assert parsed.phrases == ("keyphrase one", "keyphrase two")
        assert parsed.fallback

    def test_no_bracket_no_separators(self):
        parsed = parse_sample("I cannot find any keyphrases.", "")
        assert parsed.phrases == ("I cannot find any keyphrases.",)
        assert parsed.fallback

    def test_empty_list_fallback(self):
        parsed = parse_sample("[]", "")
        assert parsed.phrases == ()
        assert parsed.fallback

    def test_prefill_empty_completion(self):
        parsed = parse_sample("]", "[")
        assert parsed.phrases == ()
        assert parsed.fallback

    def test_nested_brackets_kept_inside_item(self):
        parsed = parse_sample('["outer [inner] thing", "b"]', "")
        assert parsed.phrases == ("outer [inner] thing", "b")

    def test_whitespace_only_items_dropped(self):
        parsed = parse_sample('["a", "", "  ", "b"]', "")
        assert parsed.phrases == ("a", "b")

    @given(
        st.lists(
            st.text(
                alphabet="abcdefghij klmnop",
                min_size=1,
                max_size=12,
            ).filter(lambda s: s.strip()),
            min_size=1,
            max_size=8,
        )
    )
    def test_boundary_roundtrip(self, items):
        rendered = json.dumps(items)
        parsed = parse_sample(rendered, "")
        assert list(parsed.phrases) == [s.strip() for s in items]
        for phrase in parsed.phrases:
            assert not set(phrase) & set('[]"')

    @pytest.mark.oracle
    @given(st.text(alphabet='ab,\n\t"\'`[] ', max_size=40), st.booleans(), st.booleans())
    def test_matches_char_by_char_oracle(self, text, prefill, truncated):
        parsed = parse_sample(text, "[" if prefill else "", truncated)
        assert tuple(parsed) == parse_sample_oracle(
            text, prefill, truncated
        )

    @pytest.mark.oracle
    @given(quoted_lists(), st.booleans(), st.booleans())
    def test_quoted_lists_match_oracle(self, case, prefill, truncated):
        text = case[1:] if prefill and case.startswith("[") else case
        parsed = parse_sample(text, "[" if prefill else "", truncated)
        assert tuple(parsed) == parse_sample_oracle(
            text, prefill, truncated
        )

    @pytest.mark.oracle
    @pytest.mark.parametrize(
        "text, prefill, phrases",
        [
            (
                "Parkinson's disease, deep brain stimulation, gait]",
                True,
                ("Parkinson's disease", "deep brain stimulation", "gait"),
            ),
            (
                "Parkinson's disease\ndeep brain stimulation\ngait",
                False,
                ("Parkinson's disease", "deep brain stimulation", "gait"),
            ),
            ("'Alzheimer's disease', 'x'", True, ("Alzheimer's disease", "x")),
            ("['Alzheimer's disease', 'x']", False, ("Alzheimer's disease", "x")),
            ('["Parkinson\'s disease", "gait"]', False, ("Parkinson's disease", "gait")),
            # a quote after blanks that follow a separator still opens a run
            ("[ 'a, b',\n\t'c']", False, ("a, b", "c")),
        ],
    )
    def test_apostrophe_inside_an_item_is_plain_text(self, text, prefill, phrases):
        parsed = parse_sample(text, "[" if prefill else "")
        assert parsed.phrases == phrases
        assert parsed.fallback == ("[" not in text and not prefill)
        assert tuple(parsed) == parse_sample_oracle(text, prefill)

    @given(st.text(), st.booleans(), st.booleans())
    def test_never_raises(self, text, prefill, truncated):
        parsed = parse_sample(text, "[" if prefill else "", truncated)
        assert all(isinstance(p, str) and p for p in parsed.phrases)

    @given(
        st.lists(
            st.text(alphabet=string.ascii_letters + string.digits + " -", max_size=12),
            max_size=8,
        )
    )
    def test_idempotent_on_clean_lists(self, items):
        first = parse_sample(json.dumps(items), "").phrases
        assert parse_sample(json.dumps(list(first)), "").phrases == first


class TestTruncatedSample:
    @pytest.mark.parametrize(
        "text, prefill, phrases",
        [
            # an unclosed list loses its last item, which may be cut
            ('"graph coloring", "sensor net', True, ("graph coloring",)),
            # cut after a separator: the last item is empty, nothing is lost
            ('"graph coloring", "sensor network", ', True, ("graph coloring", "sensor network")),
            # a closed list is complete
            ('"graph coloring", "sensor net"] more', True, ("graph coloring", "sensor net")),
            # fallback text runs to the end too
            ("keyphrase one, keyphrase tw", False, ("keyphrase one",)),
            ('"graph col', True, ()),
        ],
    )
    def test_length_drops_the_item_that_runs_to_the_end(self, text, prefill, phrases):
        parsed = parse_sample(text, "[" if prefill else "", truncated=True)
        assert parsed.phrases == phrases
        assert parsed.fallback == (not prefill or not phrases)

    def test_unchanged_under_stop(self):
        cut = '"graph coloring", "sensor net'
        assert parse_sample(cut, "[").phrases == ("graph coloring", "sensor net")

    @pytest.mark.parametrize(
        "finish, cut",
        [
            ("length", True),
            ("content_filter", True),
            ("stop", False),
            ("error:request_failed", False),
        ],
    )
    def test_which_finish_reasons_cut(self, finish, cut):
        assert raw(finish=finish).truncated is cut


class TestPerplexity:
    def test_mean_mode_closed_form(self):
        ln2 = math.log(2.0)
        assert perplexity(raw(logprobs=[-ln2, -ln2])) == pytest.approx(2.0)

    def test_zero_logprobs(self):
        assert perplexity(raw(logprobs=[0.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_sum_mode(self):
        ln2 = math.log(2.0)
        assert perplexity(raw(logprobs=[-ln2, -ln2]), mode="sum") == pytest.approx(4.0)

    def test_unknown_mode_rejected(self):
        # no mode but "mean" and "sum": another would silently take the sum
        with pytest.raises(ValueError, match="unknown perplexity mode 'median'"):
            perplexity(raw(logprobs=[-1.0]), "median")

    def test_missing_logprobs_is_none(self):
        assert perplexity(raw(logprobs=None)) is None
        assert perplexity(raw(logprobs=[])) is None

    def test_overflow_clamps_to_inf(self):
        assert perplexity(raw(logprobs=[-1e6])) == math.inf

    @given(st.lists(st.floats(min_value=-20, max_value=0), min_size=1, max_size=10))
    def test_permutation_invariance(self, lps):
        a = perplexity(raw(logprobs=lps))
        b = perplexity(raw(logprobs=list(reversed(lps))))
        assert a == pytest.approx(b)

    @pytest.mark.oracle
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False)),
        st.sampled_from(["mean", "sum"]),
    )
    @example([-1e308, -1e308], "mean")
    @example([-1e308, -1e308], "sum")
    @example([1e308, 1e308], "mean")
    @example([-1e6], "sum")
    @example([], "mean")
    def test_stats_match_list_oracle_bit_for_bit(self, lps, mode):
        # through the cache codec too: the replayed perplexity is the fetched one
        sample = raw(logprobs=lps)
        line = json.dumps(sample._asdict(), ensure_ascii=False)
        for s in (sample, SampleCache._decode(json.loads(line))):
            assert repr(perplexity(s, mode)) == repr(perplexity_oracle(lps, mode))

    @given(
        st.lists(st.floats(min_value=-10, max_value=-0.5), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_strictly_decreasing_in_each_logprob(self, lps, idx):
        idx %= len(lps)
        better = list(lps)
        better[idx] += 0.25
        assert perplexity(raw(logprobs=better)) < perplexity(raw(logprobs=lps))


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of responses, then 200s, over HTTP/1.1.

    A step is (status, body), (status, body, missing), (status, body,
    missing, headers) or (status, body, missing, headers, drop): a bytes
    body is sent as is, None is the default 200 completion, any other is
    JSON-encoded; `missing` bytes are declared in Content-Length but never
    sent (and the connection is closed, so the client sees the body cut
    short); `headers` are sent as well; with `drop` the server closes the
    connection after the answer without saying so. Each request's headers,
    and its request line and body, are recorded, and each connection
    accepted is counted.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    script = []
    lock = threading.Lock()
    hits = 0
    connections = 0
    headers_seen = []
    requests_seen = []

    def setup(self):
        with _ScriptedHandler.lock:
            _ScriptedHandler.connections += 1
        super().setup()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        sent = self.rfile.read(length)
        body = json.loads(sent) if length else {}
        with _ScriptedHandler.lock:
            step = _ScriptedHandler.hits
            _ScriptedHandler.hits += 1
            _ScriptedHandler.headers_seen.append(self.headers)
            _ScriptedHandler.requests_seen.append((self.requestline, sent))
        if step < len(self.script):
            status, payload, *extra = self.script[step]
        else:
            status, payload, extra = 200, None, []
        missing, headers, drop = (*extra, *(0, {}, False)[len(extra) :])
        if payload is None:
            payload = self._ok(body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data) + missing))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        if missing or drop:
            self.close_connection = True

    @staticmethod
    def _ok(body):
        n = body.get("n", 1)
        choice = {
            "index": 0,
            "message": {"role": "assistant", "content": '["alpha", "beta"]'},
            "finish_reason": "stop",
            "logprobs": {
                "content": [
                    {"token": "a", "logprob": -0.5},
                    {"token": "b", "logprob": -0.25},
                ]
            },
        }
        return {"choices": [dict(choice, index=i) for i in range(n)]}

    def log_message(self, *args):
        pass


@pytest.fixture()
def scripted_server():
    servers = []

    def start(script):
        _ScriptedHandler.script = script
        _ScriptedHandler.hits = 0
        _ScriptedHandler.connections = 0
        _ScriptedHandler.headers_seen = []
        _ScriptedHandler.requests_seen = []  # (request line, body) of each request
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}/v1"

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


_clients = []


@pytest.fixture(autouse=True)
def close_clients():
    """Close every client a test made, so no kept-alive socket outlives it."""
    yield
    while _clients:
        _clients.pop().close()


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Retry waits of at most 0.01 s doubling, so that retries stay quick."""
    monkeypatch.setattr(llm_client, "BACKOFF_BASE_S", 0.01)


def make_client(endpoint, **kw):
    kw.setdefault("model", "test-model")
    kw.setdefault("api_key", "test-key")
    client = LLMClient(endpoint=endpoint, **kw)
    _clients.append(client)
    return client


class TestTransport:
    def test_clean_request(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        client = make_client(scripted_server([]))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        samples = list(client.sample_completions(
            rp, doc_id="d", indices=[0, 1], temperature=0.7, max_tokens=50
        ))
        assert len(samples) == 2
        assert [s.sample_index for s in samples] == [0, 1]
        assert all(s.finish_reason == "stop" for s in samples)
        assert (samples[0].lp_sum, samples[0].lp_n) == (-0.75, 2)

    def test_retry_on_429_then_success(self, scripted_server, prompt_cfg, toy_docs, caplog):
        from kpagg.prompting import build_prompt, resolve_variant

        script = [(429, {"error": "slow down"}), (429, {"error": "slow down"})]
        client = make_client(scripted_server(script))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with caplog.at_level(logging.WARNING, logger="kpagg.llm_client"):
            samples = list(client.sample_completions(
                rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
            ))
        assert len(samples) == 1
        assert samples[0].finish_reason == "stop"
        retry_logs = [r for r in caplog.records if "retry" in r.message.lower()]
        assert len(retry_logs) == 2

    def test_500_exhaustion_yields_failed_samples(
        self, scripted_server, prompt_cfg, toy_docs, monkeypatch
    ):
        from kpagg.prompting import build_prompt, resolve_variant

        script = [(503, {"error": "down"})] * 10
        monkeypatch.setattr(llm_client, "MAX_RETRIES", 2)
        client = make_client(scripted_server(script))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        samples = list(client.sample_completions(
            rp, doc_id="d", indices=[0, 1, 2], temperature=0.7, max_tokens=50
        ))
        # the three failed samples are absent
        assert samples == []
        assert _ScriptedHandler.hits == 3

    def test_401_is_fatal(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        script = [(401, {"error": "bad key"})] * 5
        client = make_client(scripted_server(script))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with pytest.raises(AuthenticationError):
            list(client.sample_completions(
                rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
            ))

    def test_400_is_fatal_request_error(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        script = [(400, {"error": "bad payload"})] * 5
        client = make_client(scripted_server(script))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with pytest.raises(RequestError):
            list(client.sample_completions(
                rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
            ))

    def test_per_request_mode_issues_n_requests(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        client = make_client(scripted_server([]), request_mode="per-request")
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        samples = list(client.sample_completions(
            rp, doc_id="d", indices=[0, 1, 2], temperature=0.7, max_tokens=50
        ))
        assert len(samples) == 3
        assert _ScriptedHandler.hits == 3

    def test_specific_indices_fetched(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        client = make_client(scripted_server([]), request_mode="per-request")
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        samples = list(client.sample_completions(
            rp, doc_id="d", indices=[2, 7], temperature=0.7, max_tokens=50
        ))
        assert [s.sample_index for s in samples] == [2, 7]

    def test_fatal_error_cancels_queued_documents(self, scripted_server, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                json.dumps({"id": f"d{i}", "title": f"title {i}", "abstract": "text",
                            "keyphrases": ["text"]}) + "\n"
                for i in range(40)
            ),
            encoding="utf-8",
        )
        endpoint = scripted_server([(401, {"error": "bad key"})] * 100)
        config = harness.RunConfig(
            corpus_path=str(corpus),
            endpoint=endpoint,
            cache_dir=str(tmp_path / "cache"),
            max_in_flight=1,
        )
        with pytest.raises(AuthenticationError):
            harness.run(config)
        assert 1 <= _ScriptedHandler.hits <= config.max_in_flight + 1

    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    def test_fatal_error_stops_every_fetch_thread(self, scripted_server, tmp_path, max_in_flight):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                json.dumps({"id": f"d{i}", "title": f"title {i}", "abstract": "text",
                            "keyphrases": ["text"]}) + "\n"
                for i in range(40)
            ),
            encoding="utf-8",
        )
        endpoint = scripted_server([(401, {"error": "bad key"})] * 100)
        config = harness.RunConfig(
            corpus_path=str(corpus),
            endpoint=endpoint,
            cache_dir=str(tmp_path / "cache"),
            max_in_flight=max_in_flight,
        )
        for _ in range(5):
            _ScriptedHandler.hits = 0
            with pytest.raises(AuthenticationError):
                harness.run(config)
            # only the documents already in flight when the first 401 came
            assert 1 <= _ScriptedHandler.hits <= max_in_flight

    @pytest.mark.parametrize(
        "status, error",
        [(401, AuthenticationError), (403, AuthenticationError), (400, RequestError)],
    )
    def test_fatal_error_is_raised_again_and_nothing_more_is_sent(
        self, scripted_server, prompt_cfg, toy_docs, status, error
    ):
        from kpagg.prompting import build_prompt, resolve_variant

        # the endpoint would answer every later request in full
        client = make_client(scripted_server([(status, {"error": "refused"})]))
        raised = []
        for doc in toy_docs[:2]:
            rp = build_prompt(doc, resolve_variant("baseline"), prompt_cfg)
            with pytest.raises(error) as exc:
                list(client.sample_completions(
                    rp, doc_id=doc.id, indices=[0, 1], temperature=0.7, max_tokens=50
                ))
            raised.append(exc.value)
        assert _ScriptedHandler.hits == 1
        first, second = raised
        assert f"HTTP {status}" in str(first)
        assert type(second) is type(first) and str(second) == str(first)
        assert second is not first  # a fresh error, with a traceback of its own

    def test_fatal_error_ends_a_retry_asleep_in_its_backoff_unsent(
        self, scripted_server, prompt_cfg, toy_docs, monkeypatch
    ):
        """A 429's retry that sleeps while another thread's request gets a
        401 wakes to raise the 401's error, and sends nothing more."""
        from kpagg.prompting import build_prompt, resolve_variant

        script = [(429, {"error": "slow down"}), (401, {"error": "bad key"})]
        client = make_client(scripted_server(script))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        asleep, refused = threading.Event(), threading.Event()

        def backoff(seconds):
            asleep.set()
            assert refused.wait(10)

        def fetch(outcome):
            try:
                list(client.sample_completions(
                    rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
                ))
            except LLMClientError as exc:
                outcome.append(exc)

        monkeypatch.setattr(llm_client.time, "sleep", backoff)
        retrying, failed = [], []
        thread = threading.Thread(target=fetch, args=(retrying,))
        thread.start()
        try:
            assert asleep.wait(10)  # its first request got the 429
            fetch(failed)
        finally:
            refused.set()
            thread.join(10)
        assert not thread.is_alive()
        (error,) = failed
        assert isinstance(error, AuthenticationError)
        (woken,) = retrying
        assert type(woken) is AuthenticationError and str(woken) == str(error)
        assert _ScriptedHandler.hits == 2

    def test_connection_refused_yields_failed_samples(
        self, prompt_cfg, toy_docs, caplog, monkeypatch
    ):
        from kpagg.prompting import build_prompt, resolve_variant

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setattr(llm_client, "MAX_RETRIES", 2)
        client = make_client(f"http://127.0.0.1:{port}/v1")
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with caplog.at_level(logging.WARNING, logger="kpagg.llm_client"):
            samples = list(client.sample_completions(
                rp, doc_id="d", indices=[0, 1], temperature=0.7, max_tokens=50
            ))
        assert samples == []  # both failed samples are absent
        assert sum("connection error" in r.message for r in caplog.records) == 3

    @pytest.mark.parametrize(
        "bad_step, reason",
        [
            ((200, b"<html>not json</html>"), "invalid JSON"),
            ((200, b"[" * 100_000), "invalid JSON"),
            # a complete body would parse and give no sample, not a retry
            ((200, {"choices": []}, 10), "IncompleteRead"),
        ],
        ids=["non-json-body", "json-nested-too-deep", "incomplete-read"],
    )
    def test_bad_200_is_retried_then_succeeds(
        self, scripted_server, prompt_cfg, toy_docs, caplog, bad_step, reason
    ):
        from kpagg.prompting import build_prompt, resolve_variant

        client = make_client(scripted_server([bad_step]))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with caplog.at_level(logging.WARNING, logger="kpagg.llm_client"):
            samples = list(client.sample_completions(
                rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
            ))
        assert [s.sample_index for s in samples] == [0]
        assert _ScriptedHandler.hits == 2
        assert [reason in r.message for r in caplog.records] == [True]

    def test_request_error_carries_body_excerpt(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        body = b"model 'nope' does not exist " + b"x" * 300
        client = make_client(scripted_server([(400, body)]))
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with pytest.raises(RequestError) as info:
            list(client.sample_completions(
                rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
            ))
        assert str(info.value) == f"endpoint returned HTTP 400: {body[:200].decode()}"

    def test_request_headers(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg import __version__
        from kpagg.prompting import build_prompt, resolve_variant

        client = make_client(scripted_server([]), api_key="sk-123")
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        list(client.sample_completions(
            rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
        ))
        (headers,) = _ScriptedHandler.headers_seen
        assert headers["Authorization"] == "Bearer sk-123"
        assert headers["User-Agent"] == f"kpagg/{__version__}"
        assert headers["Content-Type"] == "application/json"

    @pytest.fixture()
    def sleeps(self, monkeypatch):
        """The retry waits, recorded instead of slept."""
        waits = []
        monkeypatch.setattr(llm_client.time, "sleep", waits.append)
        return waits

    def test_every_attempt_sends_a_fresh_request(
        self, scripted_server, prompt_cfg, toy_docs, sleeps, monkeypatch
    ):
        # Per-request mode sends one serialised body n times, and each retry
        # sends it again. The scripted server is its own proxy, so every
        # attempt reaches it as a proxy request: the absolute URI.
        from kpagg.prompting import build_prompt, resolve_variant

        script = [(503, {"error": "down"}), (429, {"error": "busy"}, 0, {"Retry-After": "0"})]
        endpoint = scripted_server(script)
        monkeypatch.setenv("http_proxy", endpoint.removesuffix("/v1"))
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        client = make_client(endpoint, request_mode="per-request")
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        samples = list(client.sample_completions(
            rp, doc_id="d", indices=[0, 1, 2], temperature=0.7, max_tokens=50
        ))
        assert [s.sample_index for s in samples] == [0, 1, 2]
        sent = _ScriptedHandler.requests_seen
        assert len(sent) == _ScriptedHandler.hits == 5
        assert len({body for _, body in sent}) == 1
        assert {line for line, _ in sent} == {f"POST {endpoint}/chat/completions HTTP/1.1"}

    def test_per_request_run_keeps_one_connection_per_fetch_thread(self, tmp_path):
        connects = []
        serving = running_server(MOCK_FIXTURES)
        handler = serving.server.RequestHandlerClass

        class Counting(handler):
            def setup(self):
                connects.append(self.client_address)
                super().setup()

        serving.server.RequestHandlerClass = Counting
        with serving as endpoint:
            summary = harness.run(harness.RunConfig(
                corpus_path=str(TOY_CORPUS),
                endpoint=endpoint,
                cache_dir=str(tmp_path / "cache"),
                request_mode="per-request",
                max_in_flight=2,
            ))
        assert (summary.processed, summary.cache_misses) == (5, 50)
        # ten requests per document, on as many connections as fetch threads
        assert 1 <= len(connects) <= 2

    def test_dropped_idle_connection_is_sent_again_at_once(
        self, scripted_server, prompt_cfg, toy_docs, sleeps, caplog
    ):
        from kpagg.prompting import build_prompt, resolve_variant

        # the first answer keeps the connection by its headers, then the
        # server closes it
        endpoint = scripted_server([(200, None, 0, {}, True)])
        client = make_client(endpoint, request_mode="per-request")
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with caplog.at_level(logging.WARNING, logger="kpagg.llm_client"):
            samples = list(client.sample_completions(
                rp, doc_id="d", indices=[0, 1], temperature=0.7, max_tokens=50
            ))
        assert [s.sample_index for s in samples] == [0, 1]
        assert (_ScriptedHandler.hits, _ScriptedHandler.connections) == (2, 2)
        assert sleeps == []
        assert not [r for r in caplog.records if "request failed" in r.message]

    def test_connection_close_answer_is_not_reused(
        self, scripted_server, prompt_cfg, toy_docs, sleeps
    ):
        from kpagg.prompting import build_prompt, resolve_variant

        endpoint = scripted_server([(200, None, 0, {"Connection": "close"})])
        client = make_client(endpoint, request_mode="per-request")
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        samples = list(client.sample_completions(
            rp, doc_id="d", indices=[0, 1, 2], temperature=0.7, max_tokens=50
        ))
        assert [s.sample_index for s in samples] == [0, 1, 2]
        # the first connection carries one request, the second the rest
        assert (_ScriptedHandler.hits, _ScriptedHandler.connections) == (3, 2)
        assert sleeps == []

    def test_redirect_is_a_request_error(self, scripted_server, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        endpoint = scripted_server([(302, b"", 0, {"Location": "/v2/chat/completions"})])
        client = make_client(endpoint)
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with pytest.raises(RequestError, match="HTTP 302"):
            list(client.sample_completions(
                rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
            ))
        assert _ScriptedHandler.hits == 1

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature_is_never_sent(self, prompt_cfg, toy_docs, temperature):
        from kpagg.prompting import build_prompt, resolve_variant

        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        with pytest.raises(ValueError):
            make_client("http://127.0.0.1:9/v1")._payload(rp, 1, temperature, 50)

    def fetch_after(self, endpoint, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        client = make_client(endpoint)
        rp = build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)
        (sample,) = list(client.sample_completions(
            rp, doc_id="d", indices=[0], temperature=0.7, max_tokens=50
        ))
        return sample

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_sets_the_wait(self, scripted_server, prompt_cfg, toy_docs, sleeps, status):
        endpoint = scripted_server([(status, {"error": "busy"}, 0, {"Retry-After": "2"})])
        assert self.fetch_after(endpoint, prompt_cfg, toy_docs).finish_reason == "stop"
        assert sleeps == [2.0]

    def test_retry_after_is_capped(self, scripted_server, prompt_cfg, toy_docs, sleeps):
        endpoint = scripted_server([(429, {"error": "busy"}, 0, {"Retry-After": "86400"})])
        assert self.fetch_after(endpoint, prompt_cfg, toy_docs).finish_reason == "stop"
        assert sleeps == [llm_client.MAX_RETRY_AFTER_S]

    @pytest.mark.parametrize(
        "status, value",
        [
            (429, "soon"),
            (429, "1.5"),
            (429, "-1"),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT"),
            (500, "2"),  # only 429 and 503 set the wait
        ],
    )
    def test_other_retry_after_falls_back_to_jitter(
        self, scripted_server, prompt_cfg, toy_docs, sleeps, monkeypatch, status, value
    ):
        endpoint = scripted_server([(status, {"error": "busy"}, 0, {"Retry-After": value})])
        monkeypatch.setattr(llm_client, "BACKOFF_BASE_S", 0.25)
        assert self.fetch_after(endpoint, prompt_cfg, toy_docs).finish_reason == "stop"
        (wait,) = sleeps
        assert 0 <= wait <= 0.25

    @pytest.mark.parametrize("status", [408, 501, 520, 524, 529])
    def test_timeout_and_any_5xx_are_retried(
        self, scripted_server, prompt_cfg, toy_docs, sleeps, monkeypatch, status
    ):
        # RFC 9110 calls a 408 and every 5xx transient, not only 500, 502,
        # 503 and 504; a 524 is Cloudflare's origin timeout
        endpoint = scripted_server([(status, {"error": "later"})])
        monkeypatch.setattr(llm_client, "BACKOFF_BASE_S", 0.25)
        assert self.fetch_after(endpoint, prompt_cfg, toy_docs).finish_reason == "stop"
        assert _ScriptedHandler.hits == 2
        (wait,) = sleeps
        assert 0 <= wait <= 0.25

    @pytest.mark.parametrize(
        "status, error",
        [
            (400, RequestError),
            (401, AuthenticationError),
            (403, AuthenticationError),
            (404, RequestError),
            (409, RequestError),
            (422, RequestError),
        ],
    )
    def test_other_4xx_is_fatal_after_one_request(
        self, scripted_server, prompt_cfg, toy_docs, sleeps, status, error
    ):
        endpoint = scripted_server([(status, {"error": "no"})])
        with pytest.raises(error, match=f"HTTP {status}"):
            self.fetch_after(endpoint, prompt_cfg, toy_docs)
        assert _ScriptedHandler.hits == 1
        assert sleeps == []

    def test_backoff_has_full_jitter(self, scripted_server, prompt_cfg, toy_docs, sleeps, monkeypatch):
        bounds = []

        def uniform(low, high):
            bounds.append((low, high))
            return high / 2

        monkeypatch.setattr(llm_client.random, "uniform", uniform)
        monkeypatch.setattr(llm_client, "BACKOFF_BASE_S", 0.5)
        endpoint = scripted_server([(500, {"error": "down"})] * 3)
        assert self.fetch_after(endpoint, prompt_cfg, toy_docs).finish_reason == "stop"
        assert bounds == [(0, 0.5), (0, 1.0), (0, 2.0)]
        assert sleeps == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize(
        "endpoint",
        [
            "localhost:8000/v1",
            "/v1",
            "file:///tmp",
            "http:///v1",  # no host
            "http://h:99999/v1",  # no port number in range
            "http://h:x/v1",
        ],
    )
    def test_non_http_endpoint_rejected(self, endpoint):
        with pytest.raises(LLMClientError, match="http"):
            make_client(endpoint)

    def test_unknown_request_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown request mode 'x'"):
            make_client("http://h:1/v1", request_mode="x")

    def test_endpoint_path_normalization(self):
        for endpoint in ("http://h:1/v1", "http://h:1/v1/", "http://h:1/v1/chat/completions"):
            head = make_client(endpoint)._transport._request(b"").split(b"\r\n")[:2]
            assert head == [b"POST /v1/chat/completions HTTP/1.1", b"Host: h:1"], endpoint

    @pytest.mark.parametrize(
        "endpoint",
        [
            "https://r.openai.azure.com/openai/deployments/gpt-4o/chat/completions?api-version=1",
            "https://r.openai.azure.com/openai/deployments/gpt-4o?api-version=1",
            "https://r.openai.azure.com/openai/deployments/gpt-4o/?api-version=1",
        ],
        ids=["full-path", "deployment-path", "trailing-slash"],
    )
    def test_endpoint_query_is_kept(self, endpoint):
        """Azure OpenAI names the API version in the query: the path gains
        /chat/completions, the query stays as given."""
        target = "/openai/deployments/gpt-4o/chat/completions?api-version=1"
        head = make_client(endpoint)._transport._request(b"").split(b"\r\n")[:2]
        assert head == [b"POST %s HTTP/1.1" % target.encode(), b"Host: r.openai.azure.com"]


# JSON values of every type, and choices built from them: half are objects
# with a message (half of those an object with content), whose content,
# logprobs and finish reason are of any type; the rest are any JSON value.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2) | st.dictionaries(
    st.sampled_from(["content", "logprob", "x"]), JSON_SCALARS, max_size=2
)


def _half(objects, others=JSON_VALUES):
    """`objects` or `others` with even odds (`|` would give `objects` one
    share among the many of `others`)."""
    return st.booleans().flatmap(lambda pick: objects if pick else others)


LOGPROBS = _half(
    st.fixed_dictionaries(
        {
            "content": st.lists(
                _half(st.fixed_dictionaries({"logprob": JSON_VALUES})), max_size=3
            )
        }
    )
)
CHOICES = _half(
    st.fixed_dictionaries(
        {"message": _half(st.fixed_dictionaries({"content": JSON_VALUES}))},
        optional={"logprobs": LOGPROBS, "finish_reason": JSON_VALUES},
    )
)


class TestAbsentSamples:
    """A slot the endpoint did not answer is absent from what the client
    returns, in either request mode."""

    @pytest.fixture(scope="class")
    def prompt(self, prompt_cfg, toy_docs):
        from kpagg.prompting import build_prompt, resolve_variant

        return build_prompt(toy_docs[0], resolve_variant("baseline"), prompt_cfg)

    def test_fewer_choices_than_slots_returns_the_answered_slots(
        self, scripted_server, prompt
    ):
        script = [(200, _ScriptedHandler._ok({"n": 2}))]
        client = make_client(scripted_server(script))
        samples = list(client.sample_completions(
            prompt, doc_id="d", indices=[3, 5, 8], temperature=0.7, max_tokens=50
        ))
        assert [s.sample_index for s in samples] == [3, 5]
        assert _ScriptedHandler.hits == 1

    def test_per_request_slot_out_of_retries_is_absent(
        self, scripted_server, prompt, monkeypatch
    ):
        monkeypatch.setattr(llm_client, "MAX_RETRIES", 2)
        # slot 0 answers, slot 1 gets 503 on all three attempts, slot 2 answers
        script = [(200, None)] + [(503, {"error": "down"})] * 3
        client = make_client(scripted_server(script), request_mode="per-request")
        samples = list(client.sample_completions(
            prompt, doc_id="d", indices=[0, 1, 2], temperature=0.7, max_tokens=50
        ))
        assert [s.sample_index for s in samples] == [0, 2]
        assert _ScriptedHandler.hits == 5

    def test_run_evaluates_the_samples_it_got_and_refetches_the_rest(
        self, scripted_server, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setattr(llm_client, "MAX_RETRIES", 2)
        evaluated = []
        evaluate = harness._evaluate

        def recording_evaluate(doc, raw, *args):
            evaluated.append([s.sample_index for s in raw])
            return evaluate(doc, raw, *args)

        monkeypatch.setattr(harness, "_evaluate", recording_evaluate)
        script = [(200, None)] + [(503, {"error": "down"})] * 3
        config = harness.RunConfig(
            corpus_path=str(TOY_CORPUS),
            endpoint=scripted_server(script),
            cache_dir=str(tmp_path / "cache"),
            request_mode="per-request",
            n_samples=3,
            limit=1,
        )
        with caplog.at_level(logging.WARNING, logger="kpagg.harness"):
            summary = harness.run(config)
        assert (summary.processed, summary.errored) == (1, 0)
        assert evaluated == [[0, 2]]
        assert "1 sample(s) unavailable" in caplog.text
        lines = harness.cache_path(config).read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["sample_index"] for line in lines) == [0, 2]

        hits = _ScriptedHandler.hits
        summary = harness.run(config)
        assert (summary.cache_hits, summary.cache_misses) == (2, 1)
        assert _ScriptedHandler.hits == hits + 1
        assert evaluated[-1] == [0, 1, 2]

    def test_per_request_fatal_error_keeps_the_samples_received(
        self, scripted_server, tmp_path
    ):
        script = [(200, None), (200, None), (401, {"error": "bad key"})]
        config = harness.RunConfig(
            corpus_path=str(TOY_CORPUS),
            endpoint=scripted_server(script),
            cache_dir=str(tmp_path / "cache"),
            request_mode="per-request",
            n_samples=4,
            limit=1,
        )
        with pytest.raises(AuthenticationError):
            harness.run(config)
        lines = harness.cache_path(config).read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["sample_index"] for line in lines) == [0, 1]

        config = config._replace(endpoint=scripted_server([]))
        summary = harness.run(config)
        assert (summary.cache_hits, summary.cache_misses) == (2, 2)
        assert _ScriptedHandler.hits == 2
        assert (summary.processed, summary.errored) == (1, 0)

    @pytest.mark.oracle
    @given(
        mode=st.sampled_from(llm_client.REQUEST_MODES),
        indices=st.lists(st.integers(0, 20), unique=True, max_size=6).map(sorted),
        bodies=st.lists(
            st.none()
            | st.sampled_from([{}, {"choices": None}, {"choices": "x"}, {"choices": {}}, ["x"]])
            | st.integers(0, 3).map(
                lambda k: {"choices": [{"message": {"content": f"c{i}"}} for i in range(k)]}
            ),
            min_size=6,
            max_size=6,
        ),
    )
    def test_received_slots_match_zip_oracle(self, prompt, mode, indices, bodies):
        client = LLMClient("http://127.0.0.1:9/v1", "m", request_mode=mode)
        sent = []

        def post(data):
            sent.append(data)
            return bodies[len(sent) - 1]

        client._post_with_retries = post
        samples = list(client.sample_completions(
            prompt, doc_id="d", indices=indices, temperature=0.7, max_tokens=50
        ))
        assert [s.sample_index for s in samples] == received_slots_oracle(mode, indices, bodies)
        requests = (1 if indices else 0) if mode == "choices" else len(indices)
        assert len(sent) == requests
        # one body for every request, asking for as many choices as slots it serves
        assert len(set(sent)) <= 1
        if sent:
            n = len(indices) if mode == "choices" else 1
            assert json.loads(sent[0])["n"] == n

    GOOD = {"message": {"content": '["a"]'}, "finish_reason": "stop"}

    @pytest.mark.parametrize("mode", llm_client.REQUEST_MODES)
    @pytest.mark.parametrize(
        "bad",
        [1, {"message": "hi"}, {"message": {"content": 5}}],
        ids=["choice", "message", "content"],
    )
    def test_choice_of_wrong_shape_is_an_absent_slot(self, prompt, mode, bad, caplog):
        client = LLMClient("http://127.0.0.1:9/v1", "m", request_mode=mode)
        if mode == "choices":
            bodies = [{"choices": [bad, self.GOOD]}]
        else:
            bodies = [{"choices": [bad]}, {"choices": [self.GOOD]}]
        client._post_with_retries = lambda data: bodies.pop(0)
        with caplog.at_level(logging.WARNING, logger="kpagg.llm_client"):
            samples = list(client.sample_completions(
                prompt, doc_id="d", indices=[0, 1], temperature=0.7, max_tokens=50
            ))
        assert [(s.sample_index, s.text) for s in samples] == [(1, '["a"]')]
        warnings = [r for r in caplog.records if "wrong shape" in r.getMessage()]
        assert len(warnings) == 1
        assert "1 choice(s)" in warnings[0].getMessage()

    @pytest.mark.oracle
    @given(
        mode=st.sampled_from(llm_client.REQUEST_MODES),
        indices=st.lists(st.integers(0, 20), unique=True, min_size=1, max_size=5).map(sorted),
        bodies=st.lists(
            st.fixed_dictionaries({"choices": st.lists(CHOICES, min_size=1, max_size=5)}),
            min_size=5,
            max_size=5,
        ),
    )
    def test_choice_shapes_match_text_oracle(self, prompt, mode, indices, bodies):
        client = LLMClient("http://127.0.0.1:9/v1", "m", request_mode=mode)
        replies = iter(bodies)
        client._post_with_retries = lambda data: next(replies)
        samples = list(client.sample_completions(
            prompt, doc_id="d", indices=indices, temperature=0.7, max_tokens=50
        ))
        assert all(type(s.text) is str for s in samples)
        got = [(s.sample_index, s.text) for s in samples]
        assert got == received_texts_oracle(mode, indices, bodies)


class TestNonFiniteLogprobs:
    @staticmethod
    def choice(logprobs):
        return {
            "message": {"content": '["a"]'},
            "finish_reason": "stop",
            "logprobs": {"content": [{"token": "t", "logprob": v} for v in logprobs]},
        }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_choice_with_non_finite_logprob_has_none(self, bad):
        sample = LLMClient._sample_from_choice("d", "h", 0, self.choice([-0.5, bad]))
        assert (sample.lp_sum, sample.lp_n) == (None, 0)
        assert perplexity(sample) is None

    def test_choice_drops_boolean_logprobs(self):
        sample = LLMClient._sample_from_choice(
            "d", "h", 0, self.choice([-0.5, True, -1.5, False])
        )
        assert (sample.lp_sum, sample.lp_n) == (-2.0, 2)
        only_bools = LLMClient._sample_from_choice("d", "h", 0, self.choice([True]))
        assert (only_bools.lp_sum, only_bools.lp_n) == (None, 0)

    def test_integer_too_large_for_a_float_is_non_finite(self, tmp_path):
        sample = LLMClient._sample_from_choice("d", "h", 0, self.choice([-0.5, 10**400]))
        assert (sample.lp_sum, sample.lp_n) == (None, 0)
        # in a cache line such a sum is no float: the line is skipped, and
        # the load goes on instead of raising OverflowError
        path = tmp_path / "cache.jsonl"
        lines = [raw(doc="d", index=i)._asdict() for i in range(2)]
        lines[0].update(lp_sum=10**400, lp_n=2)
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        assert taken(path, "d") == {("h" * 64, 1): raw(doc="d", index=1)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cached_non_finite_logprob_decodes_to_none(self, tmp_path, bad):
        path = tmp_path / "cache.jsonl"
        append(path, raw(logprobs=[-0.5, bad], doc="d"))
        back = taken(path, "d")[("h" * 64, 0)]
        assert (back.lp_sum, back.lp_n) == (None, 0)
        assert perplexity(back) is None


# Entries of an answer's `logprobs.content`: an object with a float logprob
# (NaN, an infinity and floats whose sum overflows among them), and every
# other kind: an int, a bool or a too-large int as the logprob, another JSON
# value or none at all, and an entry that is no object.
FLOAT_TOKENS = st.fixed_dictionaries({
    "token": st.just("t"),
    "logprob": st.floats(-50, 0)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
})
OTHER_TOKENS = st.one_of(
    st.fixed_dictionaries({"logprob": JSON_VALUES | st.just(10**400)}),
    st.fixed_dictionaries({"token": st.just("t")}),
    JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2),
)


@pytest.mark.oracle
@given(_half(st.lists(FLOAT_TOKENS, max_size=6), st.lists(FLOAT_TOKENS | OTHER_TOKENS)))
@example([])
@example([{"logprob": -0.5}, {"logprob": math.nan}])
@example([{"logprob": math.inf}, {"logprob": -0.5}])
@example([{"logprob": 1e308}, {"logprob": 1e308}, {"logprob": -1e308}])
@example([{"logprob": -0.5}, {"logprob": True}])
@example([{"logprob": -0.5}, ["logprob"]])
@example([{"logprob": -0.5}, {"logprob": 10**400}])
def test_float_logprobs_fast_path_equals_the_checked_path(tokens):
    # the checked path alone, as `_sample_from_choice` took it for every answer
    checked = _logprob_stats(
        t.get("logprob")
        for t in tokens
        if isinstance(t, dict) and type(t.get("logprob")) in (int, float)
    )
    got = _content_logprobs(tokens)
    assert (got, [type(x) for x in got]) == (checked, [type(x) for x in checked])


def append(path, *samples: RawSample) -> None:
    """Append `samples` through a cache of their own, closed after."""
    with closing(SampleCache(path)) as cache:
        cache.put(*samples)


def taken(path, doc_id: str, doc_ids=None) -> dict:
    """What a fresh load of the cache at `path` takes of one document: its
    samples by (prompt_hash, sample_index). The cache is closed after, so
    a corrupt line's total is logged too."""
    with closing(SampleCache(path, doc_ids)) as cache:
        return cache.take(doc_id)


class Warnings(logging.Handler):
    """The messages the cache logs while the handler is installed. A
    hypothesis test cannot use caplog, a function-scoped fixture."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        logging.getLogger("kpagg.cache").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("kpagg.cache").removeHandler(self)


TWO_WRITERS_BATCHES = 60  # batches per writer, one document each
TWO_WRITERS_BATCH = 10  # samples per batch, ~20 KB per write
TWO_WRITERS_OVERLAP = 30  # writer 1 starts at this document; the rest overlap


# One writer process: argv is the cache path, the start file and the
# writer's number. Writer w appends documents w*OVERLAP onward, so half of
# each writer's keys are the other's too, with texts that tell them apart.
TWO_WRITERS = f"""
import pathlib, sys, time
from kpagg.cache import SampleCache
from kpagg.llm_client import RawSample
path, go, w = sys.argv[1], pathlib.Path(sys.argv[2]), int(sys.argv[3])
cache = SampleCache(path)
pathlib.Path(go.parent, f"ready{{w}}").touch()
while not go.exists():
    time.sleep(0.001)
for doc in range(w * {TWO_WRITERS_OVERLAP}, w * {TWO_WRITERS_OVERLAP} + {TWO_WRITERS_BATCHES}):
    cache.put(*(
        RawSample(f"d{{doc}}", "h" * 64, i, f"writer {{w}} " + "x" * 2000, -0.5 * i, i, "stop")
        for i in range({TWO_WRITERS_BATCH})
    ))
cache.close()
"""

APPENDER_BATCHES = 400  # documents the appender writes, one batch each
APPENDER_BATCH = 10  # samples per batch, ~3 KB per write


# The appender process: argv is the cache path and the start file. Once the
# start file exists it appends one batch for each document w0, w1, ...
# (`appended` below), through a cache that indexes none of them.
APPENDER = f"""
import pathlib, sys, time
from contextlib import closing
from kpagg.cache import SampleCache
from kpagg.llm_client import RawSample
path, go = sys.argv[1], pathlib.Path(sys.argv[2])
while not go.exists():
    time.sleep(0.001)
with closing(SampleCache(path, doc_ids=set())) as cache:
    for doc in range({APPENDER_BATCHES}):
        cache.put(*(
            RawSample(f"w{{doc}}", "h" * 64, i, f"w{{doc}} " + "x" * 200, -0.5, 1, "stop")
            for i in range({APPENDER_BATCH})
        ))
"""


def appended(doc: str) -> dict:
    """The samples the appender writes for a document, as a take gives them."""
    return {
        ("h" * 64, i): RawSample(doc, "h" * 64, i, f"{doc} " + "x" * 200, -0.5, 1, "stop")
        for i in range(APPENDER_BATCH)
    }
# Doc ids for filtered loads: plain ones, ones that json.dumps escapes (a
# quote, a backslash, control characters), non-ASCII and U+2028, which JSON
# leaves raw but str.splitlines would split on. One id starts another.
CACHE_IDS = [
    "d1", "d10", 'q"uote', "back\\slash", "\u00fcn\u00ef", "sep\u2028x", "ctl\x01", "tab\t", "",
]
CACHE_HASHES = ["a" * 64, "a" * 32, "b" * 64, 'h"x']


def cache_samples(ids: list[str], hashes: list[str]):
    return st.builds(
        lambda stats, **fields: RawSample(lp_sum=stats[0], lp_n=stats[1], **fields),
        stats=st.just((None, 0)) | st.tuples(st.floats(allow_nan=False), st.integers(0, 5)),
        doc_id=st.sampled_from(ids),
        prompt_hash=st.sampled_from(hashes),
        sample_index=st.integers(0, 2),
        text=st.text(max_size=6),
        finish_reason=st.sampled_from(["stop", "length"]),
    )


@st.composite
def cache_lines(draw, samples) -> tuple[str, tuple[str, str]]:
    """Lines of a cache file, without the last newline, and the (doc_id,
    prompt_hash) pair of their sample. They are a batch as `put` writes it
    (one pair, consecutive indices), or one line that a filtered load must
    decode in full (another spelling or key order) or reject as a full load
    does (corrupt, torn, garbage, blank)."""
    sample = draw(samples)
    obj = sample._asdict()
    kinds = ["put", "ascii", "reordered", "nested", "wrong-type", "torn", "garbage", "blank"]
    kind = draw(st.sampled_from(kinds))
    if kind == "put":
        batch = [sample._replace(sample_index=i) for i in range(draw(st.integers(1, 3)))]
        line = "\n".join(json.dumps(s._asdict(), ensure_ascii=False) for s in batch)
    elif kind == "ascii":  # non-ASCII and U+2028 written as escapes
        line = json.dumps(obj)
    elif kind == "reordered":
        line = json.dumps(dict(reversed(obj.items())), ensure_ascii=False)
    elif kind == "nested":  # another sample's prefix, but not at the start
        other = draw(samples)._asdict()
        line = json.dumps({"note": other, **obj}, ensure_ascii=False)
    elif kind == "wrong-type":
        line = json.dumps({**obj, "lp_n": -1}, ensure_ascii=False)
    elif kind == "torn":  # a write cut short
        line = json.dumps(obj, ensure_ascii=False)
        line = line[: draw(st.integers(0, len(line) - 1))]
    elif kind == "garbage":
        line = draw(st.text(max_size=12))
    else:
        line = draw(st.sampled_from(["", " ", "\t"]))
    return line, (sample.doc_id, sample.prompt_hash)


@st.composite
def cache_files(draw) -> list[tuple[str, tuple[str, str]]]:
    """The lines of a cache file, drawn from a few ids and hashes so that
    pairs repeat and batches of different pairs follow each other."""
    ids = st.sampled_from(CACHE_IDS) | st.text(max_size=3)
    pool = cache_samples(
        draw(st.lists(ids, min_size=1, max_size=3, unique=True)),
        draw(st.lists(st.sampled_from(CACHE_HASHES), min_size=1, max_size=3, unique=True)),
    )
    return draw(st.lists(cache_lines(pool), max_size=10))


LINE_KINDS = [
    "put", "ascii", "reordered", "wrong-type", "torn", "not-utf8", "two-objects",
    "cut-in-array", "padded", "blank", "garbage",
]
# JSON blanks, which json.loads allows around a value, and a no-break space,
# which it does not
PADDING = [b"", b" ", b"\t", b"\r", b"\xc2\xa0"]


@st.composite
def drawn_cache(draw) -> tuple[list[str], bytes]:
    """A few doc ids and a cache file over them: batches as `put` writes
    them, keys repeated, and every kind of line a load must decode in full
    or count corrupt, the last one possibly torn. A sample's text starts
    with the number of its line, so the line that wins a key shows in it."""
    ids = draw(st.lists(
        st.sampled_from(CACHE_IDS) | st.text(max_size=3), min_size=1, max_size=3, unique=True
    ))
    hashes = draw(st.lists(st.sampled_from(CACHE_HASHES), min_size=1, max_size=2, unique=True))
    pool = cache_samples(ids, hashes)
    lines: list[bytes] = []

    def obj(sample: RawSample, **changes) -> dict:
        return {**sample._replace(text=f"{len(lines) + 1}:{sample.text}")._asdict(), **changes}

    def as_put(obj: dict) -> bytes:
        return json.dumps(obj, ensure_ascii=False).encode("utf-8")

    for _ in range(draw(st.integers(0, 12))):
        sample = draw(pool)
        kind = draw(st.sampled_from(LINE_KINDS))
        if kind == "put":  # a batch: consecutive slots of one pair
            for i in range(draw(st.integers(1, 3))):
                lines.append(as_put(obj(sample._replace(sample_index=i))))
        elif kind == "ascii":  # non-ASCII and U+2028 escaped: an escaped id
            lines.append(json.dumps(obj(sample)).encode("ascii"))
        elif kind == "reordered":
            lines.append(as_put(dict(reversed(obj(sample).items()))))
        elif kind == "wrong-type":
            lines.append(as_put(obj(sample, lp_n=-1)))
        elif kind == "torn":  # a write cut short, inside a character too
            whole = as_put(obj(sample))
            lines.append(whole[: draw(st.integers(0, len(whole) - 1))])
        elif kind == "not-utf8":
            lines.append(as_put(obj(sample)).replace(b'"prompt_hash"', b'\xff"prompt_hash"', 1))
        elif kind == "two-objects":
            pair = as_put(obj(sample)), as_put(obj(draw(pool)))
            lines.append(draw(st.sampled_from([b"", b" ", b", "])).join(pair))
        elif kind == "cut-in-array":
            whole = as_put(obj(sample, note=[1, [2, 3]]))
            lines.append(whole[: whole.rindex(b"[2, 3]") + 4])
        elif kind == "padded":  # anything before it hides the prefix
            before, after = draw(st.sampled_from(PADDING)), draw(st.sampled_from(PADDING))
            lines.append(before + as_put(obj(sample)) + after)
        elif kind == "blank":
            lines.append(draw(st.sampled_from([b"", b" ", b"\t", b"\r"])))
        else:
            lines.append(draw(st.binary(max_size=12)).replace(b"\n", b""))
    end = draw(st.sampled_from([b"\n", b""])) if lines else b""
    return ids, b"\n".join(lines) + end


class TestSampleCache:
    def entry(self, index=0, doc="d1", h="a" * 64):
        return RawSample(
            doc_id=doc,
            prompt_hash=h,
            sample_index=index,
            text='["x"]',
            lp_sum=-0.5,
            lp_n=1,
            finish_reason="stop",
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        sample = self.entry()
        append(path, sample)
        assert taken(path, "d1") == {("a" * 64, 0): sample}

    def test_miss_returns_none(self, tmp_path):
        with closing(SampleCache(tmp_path / "cache.jsonl")) as cache:
            assert cache.take("d1").get(("a" * 64, 0)) is None

    def test_first_write_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = self.entry()
        with closing(SampleCache(path)) as cache:
            cache.put(first)
            cache.put(RawSample(**{**first._asdict(), "text": '["y"]'}))
            assert cache.take("d1") == {("a" * 64, 0): first}
        assert len(path.read_bytes().splitlines()) == 1
        assert taken(path, "d1") == {("a" * 64, 0): first}

    def test_put_many_appends_only_new_keys(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cached = self.entry(index=1)
        with closing(SampleCache(path)) as cache:
            cache.put(cached)
            before = path.read_text(encoding="utf-8")
            rewritten = RawSample(**{**cached._asdict(), "text": '["y"]'})
            cache.put(self.entry(index=0), rewritten, self.entry(index=2))
        appended = path.read_text(encoding="utf-8")[len(before):].splitlines()
        assert [json.loads(line)["sample_index"] for line in appended] == [0, 2]
        reopened = taken(path, "d1")
        assert len(reopened) == 3
        assert reopened["a" * 64, 1].text == '["x"]'

    def test_put_many_first_write_wins_within_call(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = self.entry()
        append(path, first, RawSample(**{**first._asdict(), "text": '["y"]'}))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        assert taken(path, "d1") == {("a" * 64, 0): first}

    def test_concurrent_batches_write_each_key_once(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SampleCache(path)
        # overlapping batches: every key is offered by several threads
        batches = [[self.entry(index=(t + k) % 12) for k in range(6)] for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=cache.put, args=b) for b in batches]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["sample_index"] for line in lines) == list(range(12))
        with closing(cache):
            assert len(taken(path, "d1")) == len(cache.take("d1")) == 12

    def test_two_processes_append_overlapping_batches(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        go = tmp_path / "go"
        src = str(Path(kpagg.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", TWO_WRITERS, str(path), str(go), str(w)],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for w in (0, 1)
        ]
        # both writers have loaded the (missing) file before either appends
        for w in (0, 1):
            while not (tmp_path / f"ready{w}").exists():
                assert all(proc.poll() is None for proc in writers), writers[w].stderr.read()
                threading.Event().wait(0.005)
        go.touch()
        for proc in writers:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err

        lines = path.read_text(encoding="utf-8").splitlines()
        decoded = [SampleCache._decode(json.loads(line)) for line in lines]
        assert len(decoded) == 2 * TWO_WRITERS_BATCHES * TWO_WRITERS_BATCH
        first = {}
        for sample in decoded:
            first.setdefault(sample[:3], sample)
        union = {
            (f"d{doc}", "h" * 64, i)
            for w in (0, 1)
            for doc in range(w * TWO_WRITERS_OVERLAP, w * TWO_WRITERS_OVERLAP + TWO_WRITERS_BATCHES)
            for i in range(TWO_WRITERS_BATCH)
        }
        assert set(first) == union
        with closing(SampleCache(path)) as reloaded:
            got = {
                (doc_id, *key): sample
                for doc_id in {key[0] for key in union}
                for key, sample in reloaded.take(doc_id).items()
            }
        assert got == first

    def test_one_process_takes_while_another_appends(self, tmp_path):
        # The reader's documents are on file before the appender starts;
        # the appender's go on while the reader loads and takes, again and
        # again. A take gives exactly what its load indexed: all of a
        # document whose batch had landed before the load began, nothing of
        # one that began after the load ended, and never a line read past
        # the load's view; a second take, after more appends, gives the same.
        path = tmp_path / "cache.jsonl"
        go = tmp_path / "go"
        own = {f"r{k}": {("a" * 64, i): self.entry(index=i, doc=f"r{k}") for i in range(5)}
               for k in range(20)}
        for samples in own.values():
            append(path, *samples.values())
        src = str(Path(kpagg.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        appender = subprocess.Popen(
            [sys.executable, "-c", APPENDER, str(path), str(go)],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        others = [f"w{doc}" for doc in range(APPENDER_BATCHES)]
        views = []
        try:
            go.touch()
            while appender.poll() is None or len(views) < 3:
                before = path.stat().st_size
                with closing(SampleCache(path)) as cache:
                    after = path.stat().st_size
                    first = {doc: cache.take(doc) for doc in [*own, *others]}
                    time.sleep(0.002)
                    again = {doc: cache.take(doc) for doc in [*own, *others]}
                assert again == first
                views.append((before, after, first))
            _, err = appender.communicate(timeout=60)
        finally:
            if appender.poll() is None:
                appender.kill()
                appender.communicate()
        assert appender.returncode == 0, err
        data = path.read_bytes()
        # where each appended batch starts and ends in the file
        starts = [data.index(f'{{"doc_id": "{doc}", '.encode()) for doc in others]
        ends = [*starts[1:], len(data)]
        assert any(after < len(data) for _, after, _ in views)  # a load while appending
        for before, after, got in views:
            for doc, samples in own.items():
                assert got[doc] == samples
            for doc, start, end in zip(others, starts, ends):
                if end <= before:
                    assert got[doc] == appended(doc), doc
                elif start >= after:
                    assert got[doc] == {}, doc
                else:  # landing while the load read: what it saw, and no more
                    assert got[doc].items() <= appended(doc).items(), doc

    @pytest.mark.parametrize("torn_after_load", [False, True])
    def test_torn_last_line_is_closed_before_the_next_batch(
        self, tmp_path, caplog, monkeypatch, torn_after_load
    ):
        path = tmp_path / "cache.jsonl"
        append(path, self.entry(index=0))
        if torn_after_load:  # another writer was cut short while this one ran
            cache = SampleCache(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "d1", "prompt_hash": "')  # a write cut short
        if not torn_after_load:
            cache = SampleCache(path)
        writes = []
        write = os.write
        monkeypatch.setattr(
            os, "write", lambda fd, data: writes.append(data) or write(fd, data)
        )
        with closing(cache):
            cache.put(self.entry(index=1))
            cache.put(self.entry(index=2))
        with caplog.at_level(logging.WARNING):
            reopened = taken(path, "d1")
        assert len(reopened) == 3
        assert reopened["a" * 64, 1] == self.entry(index=1)
        assert f"{path}:2: skipping corrupt cache line" in caplog.text
        assert "skipped 1 corrupt cache line" in caplog.text
        # the newline went out with the first batch, in its one write
        assert [data[:1] for data in writes] == [b"\n", b"{"]

    @pytest.mark.parametrize("doc_ids", [None, {"d1"}])
    def test_line_torn_inside_a_character_is_one_corrupt_line(self, tmp_path, caplog, doc_ids):
        path = tmp_path / "cache.jsonl"
        first = RawSample(**{**self.entry()._asdict(), "text": "über"})
        append(path, first)
        line = json.dumps(first._replace(sample_index=1)._asdict(), ensure_ascii=False)
        torn = line.encode("utf-8")[: line.index("ü") + 1]  # the first byte of "ü"
        with path.open("ab") as fh:
            fh.write(torn)
        second = first._replace(sample_index=2)
        with caplog.at_level(logging.WARNING), closing(SampleCache(path, doc_ids)) as cache:
            assert cache.take("d1") == {("a" * 64, 0): first}
            assert f"{path}:2: skipping corrupt cache line" in caplog.text
            cache.put(second)
        reopened = taken(path, "d1", doc_ids)
        assert reopened == {("a" * 64, 0): first, ("a" * 64, 2): second}

    def test_doc_ids_skip_other_documents_without_decoding(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        append(path, *(
            self.entry(index=i, doc=doc, h=h)
            for doc in ("d1", "d2")
            for h in ("a" * 64, "b" * 64)
            for i in range(2)
        ))
        decoded = []
        decode = SampleCache._decode
        monkeypatch.setattr(
            SampleCache, "_decode", staticmethod(lambda obj: decoded.append(obj) or decode(obj))
        )
        with closing(SampleCache(path, doc_ids={"d2"})) as cache:
            assert decoded == []  # the load decodes nothing a take can read
            assert cache.take("d1") == {}
            d2 = cache.take("d2")
        assert [obj["doc_id"] for obj in decoded] == ["d2"] * 4
        assert d2["b" * 64, 1] == self.entry(index=1, doc="d2", h="b" * 64)

    def test_doc_ids_decode_a_line_whose_id_has_an_escape(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        quoted = self.entry(doc='q"uote')
        append(path, quoted)
        # not one of the doc_ids, but its line does not start as `put`
        # writes an unescaped id, so it is decoded
        assert taken(path, 'q"uote', {"d1"}) == {("a" * 64, 0): quoted}

    @pytest.mark.oracle
    @given(
        lines=cache_files(),
        final_newline=st.booleans(),
        data=st.data(),
    )
    def test_filtered_load_answers_as_full_load(self, lines, final_newline, data):
        ids = sorted({doc_id for _, (doc_id, _) in lines})
        kept = {doc_id for doc_id in ids if data.draw(st.booleans())}
        text = "\n".join(line for line, _ in lines) + ("\n" if final_newline else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            path.write_bytes(text.encode("utf-8"))
            with closing(SampleCache(path)) as full, closing(SampleCache(path, kept)) as filtered:
                for doc_id in kept:
                    # repr: -0.0 and 0.0 are equal but not the same sum
                    assert repr(filtered.take(doc_id)) == repr(full.take(doc_id))

    @pytest.mark.oracle
    @given(drawn=drawn_cache(), data=st.data())
    def test_takes_equal_the_line_by_line_load(self, drawn, data):
        # Every document taken, in a drawn order, from a load that kept
        # only where lines are, against the load that decoded every line:
        # the same samples from the same winning lines, and the same
        # corrupt-line warnings, by number, and total.
        ids, content = drawn
        kept = {doc_id for doc_id in ids if data.draw(st.booleans())}
        order = data.draw(st.permutations(ids))
        index, corrupt = cache_load_oracle(content, kept, SampleCache._decode)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            path.write_bytes(content)
            with Warnings() as messages, closing(SampleCache(path, kept)) as cache:
                takes = {doc_id: cache.take(doc_id) for doc_id in order}
        for doc_id in ids:
            want = {key[1:]: sample for key, (_, sample) in index.items() if key[0] == doc_id}
            # repr: -0.0 and 0.0 are equal but not the same sum
            assert repr(sorted(takes[doc_id].items())) == repr(sorted(want.items())), doc_id
        per_line = [f"{path}:{n}: skipping corrupt cache line" for n in corrupt]
        total = [f"{path}: skipped {len(corrupt)} corrupt cache line(s)"] if corrupt else []
        assert sorted(messages[: len(per_line)]) == sorted(per_line)
        assert messages[len(per_line):] == total

    def test_put_indexes_its_lines_and_keeps_no_sample(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with closing(SampleCache(path)) as cache:
            cache.put(*(self.entry(index=i) for i in range(3)))
            cache.put(self.entry(index=3), self.entry(index=3, h="b" * 64))
            assert cache.take("d1") == {
                **{("a" * 64, i): self.entry(index=i) for i in range(4)},
                ("b" * 64, 3): self.entry(index=3, h="b" * 64),
            }
            # adjacent lines of one document are one range; no sample is held
            size = path.stat().st_size
            assert cache._index == {b"d1": [(0, size, 1, 5)]}
        with closing(SampleCache(path)) as reloaded:
            assert reloaded._index == {b"d1": [(0, size, 1, 5)]}

    def test_put_after_another_writer_numbers_its_lines_in_the_file(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with closing(SampleCache(path)) as cache:
            cache.put(self.entry(index=0))
            append(path, self.entry(doc="d2"), self.entry(index=1, doc="d2"))
            cache.put(self.entry(index=1))
            # the line this cache appended, line 4, is overwritten in place
            data = path.read_bytes()
            path.write_bytes(data[: data.rindex(b"{")] + b"[" * (len(data) - data.rindex(b"{")))
            with caplog.at_level(logging.WARNING):
                assert cache.take("d1") == {("a" * 64, 0): self.entry()}
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:4: skipping corrupt cache line",
            f"{path}: skipped 1 corrupt cache line(s)",
        ]

    @pytest.mark.parametrize("cut", ["inside-line-3", "after-line-3"])
    def test_lines_gone_after_the_load_are_corrupt_lines(self, tmp_path, caplog, cut):
        path = tmp_path / "cache.jsonl"
        append(path, *(self.entry(index=i) for i in range(4)))
        data = path.read_bytes()
        third = data.index(b"\n", data.index(b"\n") + 1) + 1
        keep = third + 10 if cut == "inside-line-3" else data.index(b"\n", third) + 1
        with caplog.at_level(logging.WARNING), closing(SampleCache(path)) as cache:
            path.write_bytes(data[:keep])  # truncates the file the load opened
            got = cache.take("d1")
        whole = 2 if cut == "inside-line-3" else 3  # the lines still there in full
        assert got == {("a" * 64, i): self.entry(index=i) for i in range(whole)}
        gone = range(whole + 1, 5)
        assert [r.getMessage() for r in caplog.records] == [
            *(f"{path}:{n}: skipping corrupt cache line" for n in gone),
            f"{path}: skipped {len(gone)} corrupt cache line(s)",
        ]

    def test_a_line_rewritten_as_another_documents_is_corrupt(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        append(path, *(self.entry(index=i) for i in range(2)))
        with caplog.at_level(logging.WARNING), closing(SampleCache(path)) as cache:
            data = path.read_bytes()
            # the same bytes but for the id: the ranges still fit
            path.write_bytes(data.replace(b'"d1"', b'"d2"'))
            assert cache.take("d1") == {}
        assert f"{path}: skipped 2 corrupt cache line(s)" in caplog.text

    @pytest.mark.parametrize("last", ["d1", "d2"])
    def test_a_line_naming_doc_id_twice_belongs_to_its_first(self, tmp_path, caplog, last):
        # not a line `put` writes: its prefix names d1, its JSON value the last
        path = tmp_path / "cache.jsonl"
        line = SampleCache._line(self.entry())
        path.write_bytes(line[:-2] + f', "doc_id": "{last}"}}\n'.encode())
        with caplog.at_level(logging.WARNING), closing(SampleCache(path)) as cache:
            d1, d2 = cache.take("d1"), cache.take("d2")
        assert d2 == {}
        if last == "d1":
            assert d1 == {("a" * 64, 0): self.entry()}
            assert caplog.records == []
        else:
            assert d1 == {}
            assert f"{path}:1: skipping corrupt cache line" in caplog.text

    def test_close_is_where_the_total_is_warned(self, tmp_path, caplog):
        # the load warns of each corrupt line it read; the total waits for
        # the takes, whose lines count too
        path = tmp_path / "cache.jsonl"
        path.write_bytes(b"[\n" + SampleCache._line(self.entry())[:-9] + b"\n")
        with caplog.at_level(logging.WARNING):
            cache = SampleCache(path)
            assert [r.getMessage() for r in caplog.records] == [
                f"{path}:1: skipping corrupt cache line"
            ]
            assert cache.take("d1") == {}
            cache.close()
        assert [r.getMessage() for r in caplog.records][1:] == [
            f"{path}:2: skipping corrupt cache line",
            f"{path}: skipped 2 corrupt cache line(s)",
        ]

    def test_put_nothing_new_writes_nothing(self, tmp_path):
        path = tmp_path / "sub" / "cache.jsonl"
        SampleCache(path).put()
        assert not path.exists()

    def test_corrupt_lines_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with closing(SampleCache(path)) as cache:
            cache.put(self.entry())
            with path.open("a", encoding="utf-8") as fh:
                fh.write("{truncated\n")
            cache.put(self.entry(index=1))
        with caplog.at_level(logging.WARNING):
            reopened = taken(path, "d1")
        assert len(reopened) == 2
        assert reopened.get(("a" * 64, 1)) is not None
        assert f"{path}:2: skipping corrupt cache line" in caplog.text

    # a JSON scalar is a line without fields, as much as a cut object is
    @pytest.mark.parametrize("scalar", ["0", "1.5", "true", "null"])
    def test_scalar_line_counted_corrupt(self, tmp_path, caplog, scalar):
        path = tmp_path / "cache.jsonl"
        append(path, self.entry())
        with path.open("a", encoding="utf-8") as fh:
            fh.write(scalar + "\n")
        append(path, self.entry(index=1))
        with caplog.at_level(logging.WARNING):
            reopened = taken(path, "d1")
        assert "skipped 1 corrupt cache line(s)" in caplog.text
        assert len(reopened) == 2
        assert reopened.get(("a" * 64, 1)) is not None

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("lp_sum", "12", id="lp_sum-12"),
            pytest.param("lp_sum", [True, False], id="lp_sum-bool-list"),
            pytest.param("lp_sum", {"-1": 0}, id="lp_sum-object"),
            # an integer: the writer only writes floats
            pytest.param("lp_sum", -1, id="lp_sum-int"),
            pytest.param("lp_sum", math.nan, id="lp_sum-nan"),
            # with the entry's lp_n of 1
            pytest.param("lp_sum", None, id="lp_sum-null-with-count"),
            pytest.param("lp_n", -1, id="lp_n-negative"),
            pytest.param("lp_n", True, id="lp_n-bool"),
            pytest.param("lp_n", 1.0, id="lp_n-float"),
            pytest.param("lp_n", "1", id="lp_n-string"),
            pytest.param("sample_index", 3.9, id="sample_index-3.9"),
            pytest.param("finish_reason", None, id="finish_reason-None"),
        ],
    )
    def test_field_of_wrong_json_type_is_corrupt(self, tmp_path, caplog, field, value):
        path = tmp_path / "cache.jsonl"
        lines = [self.entry(index=i)._asdict() for i in range(3)]
        lines[1][field] = value
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            got = taken(path, "d1")
        assert got == {("a" * 64, i): self.entry(index=i) for i in (0, 2)}
        assert "skipped 1 corrupt cache line" in caplog.text

    @pytest.mark.parametrize("doc_ids", [None, {"d1"}], ids=["full", "filtered"])
    def test_line_nested_too_deep_is_corrupt(self, tmp_path, caplog, doc_ids):
        path = tmp_path / "cache.jsonl"
        append(path, self.entry())
        with path.open("a", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "\n")
        with caplog.at_level(logging.WARNING):
            got = taken(path, "d1", doc_ids)
        assert got == {("a" * 64, 0): self.entry()}
        assert f"{path}:2: skipping corrupt cache line" in caplog.text

    def test_older_format_line_is_corrupt(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        lines = [self.entry(index=i)._asdict() for i in range(2)]
        del lines[1]["lp_sum"], lines[1]["lp_n"]
        lines[1]["token_logprobs"] = [-0.5]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            got = taken(path, "d1")
        assert got == {("a" * 64, 0): self.entry()}
        assert "skipped 1 corrupt cache line" in caplog.text

    @pytest.mark.oracle
    @given(
        st.builds(
            lambda stats, **fields: RawSample(lp_sum=stats[0], lp_n=stats[1], **fields),
            stats=st.just((None, 0))
            | st.tuples(st.floats(allow_nan=False), st.integers(min_value=0)),
            doc_id=st.text(),
            prompt_hash=st.text(),
            sample_index=st.integers(min_value=0),
            text=st.text(),
            finish_reason=st.text(),
        )
    )
    def test_encode_then_decode_is_identity(self, sample):
        line = json.dumps(sample._asdict(), ensure_ascii=False)
        back = SampleCache._decode(json.loads(line))
        assert back == sample
        assert repr(back.lp_sum) == repr(sample.lp_sum)  # -0.0 stays -0.0

    def test_lone_surrogate_line_goes_escaped_and_reloads(self, tmp_path):
        # A reply cut inside an emoji holds half a surrogate pair, which has
        # no UTF-8 form: its line alone goes ASCII-escaped, and the batch
        # lands whole.
        path = tmp_path / "cache.jsonl"
        ok = RawSample("d", "h", 0, "ok é", None, 0, "stop")
        cut = RawSample("d", "h", 1, "\ud800", None, 0, "length")
        append(path, ok, cut)
        assert path.read_bytes().splitlines() == [
            json.dumps(ok._asdict(), ensure_ascii=False).encode("utf-8"),
            json.dumps(cut._asdict()).encode("ascii"),
        ]
        for doc_ids in (None, {"d"}):
            reloaded = taken(path, "d", doc_ids)
            assert [reloaded["h", i] for i in (0, 1)] == [ok, cut]

    def test_put_writes_the_pinned_line_bytes(self, tmp_path):
        # the field names, order, spacing and escapes of a line, spelled out,
        # so a change of the writer cannot change what an old cache holds
        path = tmp_path / "cache.jsonl"
        append(
            path,
            RawSample("dé", "h", 0, '["naïve", "日本"]', -2.625, 2, "stop"),
            RawSample("d", "h", 1, "cut \ud83d", None, 0, "length"),
        )
        assert path.read_bytes() == (
            '{"doc_id": "dé", "prompt_hash": "h", "sample_index": 0, '
            '"text": "[\\"naïve\\", \\"日本\\"]", "lp_sum": -2.625, "lp_n": 2, '
            '"finish_reason": "stop"}\n'
        ).encode("utf-8") + (
            b'{"doc_id": "d", "prompt_hash": "h", "sample_index": 1, '
            b'"text": "cut \\ud83d", "lp_sum": null, "lp_n": 0, "finish_reason": "length"}\n'
        )

    @given(st.text(st.characters(blacklist_categories=())), st.text())
    def test_line_then_decode_is_identity(self, text, doc_id):
        sample = RawSample(doc_id, "h", 0, text, -0.5, 1, "stop")
        assert SampleCache._decode(json.loads(SampleCache._line(sample))) == sample

    def test_distinct_prompts_do_not_collide(self, tmp_path):
        with closing(SampleCache(tmp_path / "cache.jsonl")) as cache:
            cache.put(self.entry(h="a" * 64))
            cache.put(self.entry(h="b" * 64))
            got = cache.take("d1")
        assert got == {(h, 0): self.entry(h=h) for h in ("a" * 64, "b" * 64)}

    def test_logprobs_preserved_as_floats(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        append(
            path,
            RawSample(
                doc_id="d",
                prompt_hash="c" * 64,
                sample_index=0,
                text="t",
                lp_sum=-2.625,
                lp_n=2,
                finish_reason="length",
            ),
        )
        back = taken(path, "d")["c" * 64, 0]
        assert (back.lp_sum, back.lp_n) == (-2.625, 2)
        assert back.finish_reason == "length"

    def test_none_logprobs_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        append(path, raw(logprobs=None, doc="d", index=3))
        back = taken(path, "d")["h" * 64, 3]
        assert (back.lp_sum, back.lp_n) == (None, 0)
