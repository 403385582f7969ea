"""The fixture-driven chat-completions mock used by the offline e2e tests."""

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request
from typing import NamedTuple

import pytest

from kpagg.mock_server import MockFixtures, running_server

from .conftest import MOCK_FIXTURES

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
        ],
        ids=["not-an-object", "messages-not-a-list", "message-not-an-object", "n-not-an-int"],
    )
    def test_malformed_payload_400_keeps_the_connection(self, url, payload):
        split = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            conn.request("POST", split.path, json.dumps(payload))
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
