"""The fixture-driven chat-completions mock used by the offline e2e tests."""

import http.client
import json
import os
import select
import socket
import subprocess
import sys
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kpagg
from kpagg import harness
from kpagg.mock_server import MAX_HEADERS, MAX_LINE, MockFixtures, running_server

from .conftest import EXPECTED_REPORT, MOCK_FIXTURES, TOY_CORPUS
from .oracles import mock_answer_oracle

FIXTURES = {
    "responses": [
        {
            "match": "Alpha Title",
            "samples": [
                {"text": '"one", "two"]', "logprobs": [-0.1, -0.2]},
                {"text": '"three"]'},
            ],
        }
    ],
    "default": {"samples": [{"text": '"fallback"]'}]},
}


@pytest.fixture(scope="module")
def url():
    with running_server(MockFixtures(FIXTURES)) as endpoint:
        yield endpoint + "/chat/completions"


class Response(NamedTuple):
    status_code: int
    body: bytes

    def json(self):
        return json.loads(self.body)


def post_bytes(url, data):
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return Response(resp.status, resp.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return Response(exc.code, exc.read())


def post(url, messages, **payload):
    payload.setdefault("model", "mock")
    payload["messages"] = messages
    return post_bytes(url, json.dumps(payload).encode())


def user_turn(text):
    return [{"role": "user", "content": text}]


class TestLookup:
    def test_substring_match(self):
        fx = MockFixtures(FIXTURES)
        assert fx.lookup("... Alpha Title ...")["match"] == "Alpha Title"

    def test_falls_back_to_default(self):
        fx = MockFixtures(FIXTURES)
        assert fx.lookup("unmatched")["samples"][0]["text"] == '"fallback"]'

    def test_no_default_returns_none(self):
        fx = MockFixtures({"responses": []})
        assert fx.lookup("anything") is None

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            MockFixtures({"no_responses": []})


class TestServer:
    def test_prefill_request_gets_continuation(self, url):
        messages = user_turn("Alpha Title") + [{"role": "assistant", "content": "["}]
        body = post(url, messages).json()
        assert body["choices"][0]["message"]["content"] == '"one", "two"]'

    def test_no_prefill_gets_full_list(self, url):
        body = post(url, user_turn("Alpha Title")).json()
        assert body["choices"][0]["message"]["content"] == '["one", "two"]'

    def test_samples_cycle(self, url):
        body = post(url, user_turn("Alpha Title"), n=5).json()
        texts = [c["message"]["content"] for c in body["choices"]]
        assert texts == [
            '["one", "two"]',
            '["three"]',
            '["one", "two"]',
            '["three"]',
            '["one", "two"]',
        ]

    def test_logprobs_only_when_requested(self, url):
        with_lp = post(url, user_turn("Alpha Title"), logprobs=True).json()
        content = with_lp["choices"][0]["logprobs"]["content"]
        assert [t["logprob"] for t in content] == [-0.1, -0.2]
        without = post(url, user_turn("Alpha Title")).json()
        assert without["choices"][0]["logprobs"] is None

    def test_unknown_path_404(self, url):
        bad = url.replace("/chat/completions", "/embeddings")
        assert post(bad, user_turn("x")).status_code == 404

    def test_malformed_body_400(self, url):
        r = post_bytes(url, b"{not json")
        assert r.status_code == 400

    def test_connection_stays_in_step_after_an_error(self, url):
        split = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            body = json.dumps({"model": "mock", "messages": user_turn("Alpha Title")})
            conn.request("POST", split.path.replace("/chat/completions", "/embeddings"), body)
            resp = conn.getresponse()
            assert (resp.status, resp.will_close) == (404, False)
            assert "unknown path" in json.loads(resp.read())["error"]["message"]
            # the 404's request body was read, so the next request parses
            conn.request("POST", split.path, body)
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["choices"][0]["message"]["content"] == '["one", "two"]'
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"messages": "hi"},
            {"messages": [1]},
            {"messages": user_turn("Alpha Title"), "n": "two"},
            b"[" * 100_000,  # sent as is: JSON nested too deep to parse
        ],
        ids=[
            "not-an-object", "messages-not-a-list", "message-not-an-object", "n-not-an-int",
            "nested-too-deep",
        ],
    )
    def test_malformed_payload_400_keeps_the_connection(self, url, payload):
        split = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            body = payload if isinstance(payload, bytes) else json.dumps(payload)
            conn.request("POST", split.path, body)
            resp = conn.getresponse()
            assert (resp.status, resp.will_close) == (400, False)
            assert json.loads(resp.read())["error"]["message"] == "invalid request body"
            body = json.dumps({"model": "mock", "messages": user_turn("Alpha Title")})
            conn.request("POST", split.path, body)
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["choices"][0]["message"]["content"] == '["one", "two"]'
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["-1", "ten"])
    def test_bad_content_length_closes_the_connection(self, url, length):
        split = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            conn.request("POST", split.path, b"", headers={"Content-Length": length})
            resp = conn.getresponse()
            assert (resp.status, resp.will_close) == (400, True)
            resp.read()
        finally:
            conn.close()

    def test_unmatched_without_default_400(self):
        with running_server(MockFixtures({"responses": []})) as endpoint:
            r = post(endpoint + "/chat/completions", user_turn("x"))
            assert r.status_code == 400


def test_bundled_fixtures_cover_toy_corpus(toy_docs):
    fx = MockFixtures.load(MOCK_FIXTURES)
    for doc in toy_docs:
        entry = fx.lookup(f"Title: {doc.title}\nAbstract: {doc.body}")
        assert entry is not None, doc.id
        assert entry.get("samples"), doc.id


def test_fixture_file_is_valid_json():
    data = json.loads(MOCK_FIXTURES.read_text(encoding="utf-8"))
    assert "responses" in data


def test_endpoint_with_a_query_reproduces_the_report(tmp_path):
    """An endpoint keeps its query (Azure's `?api-version=`), so the mock
    answers /chat/completions followed by one."""
    out = tmp_path / "report.csv"
    with running_server(MOCK_FIXTURES) as endpoint:
        summary = harness.run(harness.RunConfig(
            corpus_path=str(TOY_CORPUS),
            endpoint=endpoint + "?api-version=2024-02-01",
            cache_dir=str(tmp_path / "cache"),
            out=str(out),
        ))
    assert (summary.processed, summary.cache_misses) == (5, 50)
    assert out.read_bytes() == EXPECTED_REPORT.read_bytes()


def test_module_prints_its_url_at_once_to_a_pipe():
    """With --port 0 the printed URL is the only way to learn the port, so
    the line must not wait in a pipe's buffer."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED" and not name.lower().endswith("_proxy")}
    src = str(Path(kpagg.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "kpagg.mock_server",
               "--fixtures", str(MOCK_FIXTURES), "--port", "0"]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no line within 10 s"
            url = proc.stdout.readline().split()[-1]
            assert url.startswith("http://127.0.0.1:") and url.endswith("/v1")
            title = json.loads(MOCK_FIXTURES.read_text(encoding="utf-8"))["responses"][0]["match"]
            body = json.dumps({"model": "mock", "messages": user_turn(title)}).encode()
            assert post_bytes(url + "/chat/completions", body).status_code == 200
        finally:
            proc.terminate()
            proc.wait(timeout=10)


# ---- answers against the oracle ----

TEXT_CHARS = st.one_of(
    st.sampled_from('"\\[], a\n'),
    st.characters(min_codepoint=0x80),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, blacklist_categories=()),
)
LOGPROBS = st.lists(st.one_of(
    st.integers(-(10**6), 10**6), st.just(-0.0), st.just(1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
))
SAMPLES = st.lists(
    st.fixed_dictionaries({"text": st.text(TEXT_CHARS)}, optional={"logprobs": LOGPROBS}),
    min_size=1, max_size=4,
)


@pytest.fixture(scope="module")
def serving():
    """A running mock server, whose fixtures a test may replace."""
    running = running_server(MockFixtures(FIXTURES))
    with running as endpoint:
        yield running.server, endpoint


@pytest.mark.oracle
@given(
    samples=SAMPLES,
    n=st.integers(1, 12),
    prefill=st.booleans(),
    logprobs=st.booleans(),
    model=st.text(st.characters(blacklist_categories=())),
)
def test_answer_equals_the_oracle(serving, samples, n, prefill, logprobs, model):
    server, endpoint = serving
    fixtures = {"responses": [], "default": {"samples": samples}}
    server.RequestHandlerClass.fixtures = MockFixtures(fixtures)
    messages = user_turn("any") + ([{"role": "assistant", "content": "["}] if prefill else [])
    payload = {"model": model, "messages": messages, "n": n, "logprobs": logprobs}
    answer = post_bytes(endpoint + "/chat/completions", json.dumps(payload).encode())
    assert answer.status_code == 200
    expected = json.dumps(mock_answer_oracle(samples, n, prefill, logprobs, model))
    # JSON reads two escaped surrogates in a row as one character, so the
    # oracle's dict is compared after the same round trip
    assert answer.json() == json.loads(expected)
    # byte for byte what json.dumps gives for the whole answer object
    assert answer.body == expected.encode()


# ---- the request reader, over a raw socket ----

def exchange(endpoint: str, data: bytes) -> bytes:
    """Everything the server sends for `data`, up to its closing the
    connection; a server that keeps it open fails on the timeout."""
    split = urllib.parse.urlsplit(endpoint)
    with socket.create_connection((split.hostname, split.port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with part of `data` unread
            pass
    return b"".join(chunks)


def split_answers(data: bytes) -> list[tuple[int, dict, bytes]]:
    """The (status, headers by lowercase name, body) of each answer in
    `data`, framed by its Content-Length."""
    answers = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {name.lower(): value for name, value in (line.split(": ", 1) for line in lines)}
        length = int(headers["content-length"])
        answers.append((int(status_line.split()[1]), headers, data[:length]))
        data = data[length:]
    return answers


def request(path="/v1/chat/completions", version="HTTP/1.1", headers=(), text="Alpha Title"):
    body = json.dumps({"model": "mock", "messages": user_turn(text)}).encode()
    head = [f"POST {path} {version}", f"Content-Length: {len(body)}", *headers]
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body


@pytest.mark.parametrize(
    "data, status",
    [
        (b"GARBAGE\r\n\r\n", 400),
        (b"POST /v1/chat/completions\r\n\r\n", 400),
        (b"POST /v1/chat/completions HTTP/2.0\r\n\r\n", 400),
        (request(headers=["Host localhost"]), 400),
        (b"POST /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
        (request(headers=["X-Long: " + "a" * MAX_LINE]), 431),
        (request(headers=[f"X-{i}: v" for i in range(MAX_HEADERS)]), 431),
        (request(headers=["Transfer-Encoding: chunked"]), 501),
        (b"GET /v1/chat/completions HTTP/1.1\r\n\r\n", 501),
    ],
    ids=[
        "one-word", "two-words", "http-2", "header-without-colon", "long-request-line",
        "long-header-line", "101-headers", "transfer-encoding", "unsupported-method",
    ],
)
def test_unreadable_request_is_refused_and_closed(url, data, status):
    ((got, headers, body),) = split_answers(exchange(url, data))
    assert (got, headers["connection"]) == (status, "close")
    assert headers["content-type"] == "application/json"
    assert json.loads(body)["error"]["message"]


def test_a_hundred_headers_are_read(url):
    data = request(headers=[f"X-{i}: v" for i in range(MAX_HEADERS - 2)] + ["Connection: close"])
    ((status, _, body),) = split_answers(exchange(url, data))
    assert status == 200
    assert json.loads(body)["choices"][0]["message"]["content"] == '["one", "two"]'


@pytest.mark.parametrize(
    "version, headers",
    [("HTTP/1.0", []), ("HTTP/1.1", ["Connection: close"]), ("HTTP/1.1", ["connection: Close"])],
    ids=["http-1.0", "connection-close", "connection-close-any-case"],
)
def test_closing_request_is_answered_then_closed(url, version, headers):
    data = exchange(url, request(version=version, headers=headers))
    ((status, got, body),) = split_answers(data)
    assert (status, got["connection"]) == (200, "close")
    assert json.loads(body)["choices"][0]["message"]["content"] == '["one", "two"]'


def test_pipelined_requests_are_answered_in_order(url):
    data = request() + request(text="other", headers=["Connection: close"])
    first, second = split_answers(exchange(url, data))
    assert (first[0], second[0]) == (200, 200)
    assert "connection" not in first[1] and second[1]["connection"] == "close"
    texts = [json.loads(answer[2])["choices"][0]["message"]["content"] for answer in (first, second)]
    assert texts == ['["one", "two"]', '["fallback"]']


def test_expect_100_continue_is_answered_before_the_body(url):
    head, body = request(headers=["Expect: 100-continue", "Connection: close"]).split(b"\r\n\r\n")
    split = urllib.parse.urlsplit(url)
    with socket.create_connection((split.hostname, split.port), timeout=10) as sock:
        sock.sendall(head + b"\r\n\r\n")
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        data = b"".join(iter(lambda: sock.recv(65536), b""))
    ((status, _, _),) = split_answers(data)
    assert status == 200


def test_each_answer_is_one_write():
    writes = []
    serving = running_server(MockFixtures(FIXTURES))

    class Writes(serving.server.RequestHandlerClass):
        def setup(self):
            super().setup()
            write = self.wfile.write
            self.wfile.write = lambda data: (writes.append(data), write(data))[1]

    serving.server.RequestHandlerClass = Writes
    with serving as endpoint:
        ok = request() + request(path="/v1/embeddings") + request(headers=["Connection: close"])
        answers = split_answers(exchange(endpoint, ok))
        assert [status for status, _, _ in answers] == [200, 404, 200]
        assert len(writes) == 3
        refused = split_answers(exchange(endpoint, b"GARBAGE\r\n\r\n"))
        assert [status for status, _, _ in refused] == [400]
        assert len(writes) == 4


def test_headers_are_read_without_http_client(url, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("http.client.parse_headers called")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    ((status, _, _),) = split_answers(exchange(url, request(headers=["Connection: close"])))
    assert status == 200


def test_header_names_are_found_in_any_case():
    seen = []
    serving = running_server(MockFixtures(FIXTURES))

    class Recording(serving.server.RequestHandlerClass):
        def do_POST(self):
            seen.append(self.headers)
            super().do_POST()

    serving.server.RequestHandlerClass = Recording
    with serving as endpoint:
        exchange(endpoint, request(headers=["X-Custom:  v ", "Connection: close"]))
    ((headers),) = seen
    assert "X-CUSTOM" in headers and "x-custom" in headers
    assert headers["X-Custom"] == headers.get("x-custom") == "v"
