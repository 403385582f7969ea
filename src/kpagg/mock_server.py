"""Fixture-driven mock of an OpenAI-compatible chat-completions endpoint.

Lets the whole pipeline run offline and deterministically: responses come
from a JSON fixtures file instead of a model. A fixture is chosen by
substring match against the request's user message (typically the document
title); its samples are served in order, cycling when more choices are
requested than samples exist.

Fixture file shape::

    {
      "responses": [
        {"match": "substring of the user prompt",
         "samples": [
            {"text": "\"kp one\", \"kp two\"]", "logprobs": [-0.1, -0.2]},
            {"text": "\"kp one\"]"},
            {"text": "\"kp tw", "finish_reason": "length"}
         ]}
      ],
      "default": {"samples": [{"text": "]"}]}
    }

A sample's finish reason is "stop" unless it names another.

Sample texts are stored in continuation form (no leading "["). When the
request carries no assistant prefill turn, the server prepends "[" so the
completion looks like a full bracketed list, mirroring how a real model
behaves with and without prefill.

The server is built to cost little beside the client it serves, so that a
benchmark against it times the client. It reads each request's line and
headers itself, serializes each fixture sample's answer choice once, and
sends every answer, error answers included, in one write. Its reader shares
no code with `kpagg.transport` or `http.client`'s header parser: a parsing
bug shared by the client and its test server is one that no test can see.

Run standalone with ``python -m kpagg.mock_server --fixtures F --port P``;
with ``--port 0`` it picks a free port. Its first line of output names the
endpoint URL.
"""

from __future__ import annotations

import argparse
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# The limits `http.server` keeps: bytes in a request or header line, and
# header lines in a request.
MAX_LINE = 65536
MAX_HEADERS = 100
# User texts whose fixture entry is remembered; the scan serves the rest.
LOOKUP_MEMO_CAP = 4096


class MockFixtures:
    """A fixtures file, read-only once loaded."""

    def __init__(self, data: dict):
        if not isinstance(data, dict) or "responses" not in data:
            raise ValueError("fixtures must be an object with a 'responses' list")
        self.responses = data["responses"]
        self.default = data.get("default")
        # Memos shared by the server's threads: each dict operation is
        # atomic, and two threads that race on one key store equal values.
        self._entries = {}  # user text -> the entry `lookup` found
        self._choices = {}  # (id(entry), prefill, logprobs) -> `choices`

    @classmethod
    def load(cls, path: str | Path) -> "MockFixtures":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def lookup(self, user_text: str) -> dict | None:
        try:
            return self._entries[user_text]
        except KeyError:
            pass
        entry = next(
            (e for e in self.responses if e.get("match", "") in user_text), self.default
        )
        if len(self._entries) < LOOKUP_MEMO_CAP:
            self._entries[user_text] = entry
        return entry

    def choices(self, entry: dict, prefill: bool, logprobs: bool) -> list[str]:
        """Each sample of `entry` as the JSON of an answer choice after its
        leading `{"index": i, `, serialized on first use."""
        key = (id(entry), prefill, logprobs)
        pieces = self._choices.get(key)
        if pieces is None:
            pieces = self._choices[key] = [
                _choice_tail(sample, prefill, logprobs) for sample in entry.get("samples", [])
            ]
        return pieces


def _choice_tail(sample: dict, prefill: bool, logprobs: bool) -> str:
    text = sample.get("text", "")
    choice = {
        "message": {"role": "assistant", "content": text if prefill else "[" + text},
        "finish_reason": sample.get("finish_reason", "stop"),
        "logprobs": None,
    }
    values = sample.get("logprobs") if logprobs else None
    if values is not None:
        choice["logprobs"] = {
            "content": [{"token": f"t{i}", "logprob": lp} for i, lp in enumerate(values)]
        }
    return json.dumps(choice)[1:]


class MockHandler(BaseHTTPRequestHandler):
    """Answers chat-completions POSTs over HTTP/1.1, keeping a connection
    open for the next request unless the client sends `Connection: close`
    or speaks HTTP/1.0. `parse_request` reads the request line and the
    header lines into `headers`, a dict by lowercase name; a request whose
    framing it cannot read is answered with an error and its connection
    closed. Every POST body is read before the answer, error answers
    included, so a kept-alive connection stays in step. Each answer goes
    out in one write; without TCP_NODELAY the second of two pipelined
    answers would wait on the client's delayed ACK."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    fixtures: MockFixtures = None  # set by make_server

    def log_message(self, format, *args):  # keep test output quiet
        pass

    def parse_request(self) -> bool:
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self.send_error(400, f"bad request line {self.requestline!r}")
            return False
        self.command, self.path, self.request_version = words
        self.headers = headers = {}  # by lowercase name
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(431, "header line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon:
                self.send_error(400, f"header line without a colon: {line[:80]!r}")
                return False
            headers[name.strip().lower()] = value.strip()
        else:
            self.send_error(431, f"more than {MAX_HEADERS} headers")
            return False
        if "transfer-encoding" in headers:
            # where the body ends is unknown, so no request can follow it
            self.send_error(501, "Transfer-Encoding is not supported")
            return False
        self.close_connection = (
            self.request_version == "HTTP/1.0"
            or headers.get("connection", "").lower() == "close"
        )
        expect = headers.get("expect", "").lower()
        if self.request_version == "HTTP/1.1" and expect == "100-continue":
            # the client waits for this before it sends the body
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_error(self, code, message=None, explain=None):
        """An error in a request's framing or method: the connection is
        closed after the answer, since what follows cannot be read in step."""
        self.close_connection = True
        self._fail(code, message or self.responses[code][0])

    def _fail(self, status: int, message: str) -> None:
        self._answer(status, json.dumps({"error": {"message": message}}).encode("utf-8"))

    def _answer(self, status: int, body: bytes) -> None:
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def do_POST(self):
        try:
            length = int(self.headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # where the body ends is unknown, so no request can follow it
            self.close_connection = True
            return self._fail(400, "invalid Content-Length")
        data = self.rfile.read(length)
        if not self.path.partition("?")[0].endswith("/chat/completions"):
            return self._fail(404, f"unknown path {self.path}")
        try:
            payload = json.loads(data)
            messages, n = payload["messages"], payload.get("n", 1)
        # TypeError: no JSON object; RecursionError: nested too deep
        except (ValueError, KeyError, TypeError, RecursionError):
            messages = n = None
        # messages must be objects with string content, and n an integer
        # >= 1 (JSON true is a bool, not a count)
        if type(n) is not int or n < 1 or not isinstance(messages, list) or not all(
            isinstance(m, dict) and isinstance(m.get("content", ""), str) for m in messages
        ):
            return self._fail(400, "invalid request body")

        user_text = ""
        has_prefill = False
        for msg in messages:
            if msg.get("role") == "user":
                user_text = msg.get("content", "")
            if msg.get("role") == "assistant":
                has_prefill = True

        entry = self.fixtures.lookup(user_text)
        if entry is None:
            return self._fail(400, "no fixture matches the request")
        tails = self.fixtures.choices(entry, has_prefill, bool(payload.get("logprobs")))
        if not tails:
            return self._fail(400, "fixture has no samples")
        # the bytes json.dumps gives for the whole answer object
        choices = ", ".join(f'{{"index": {i}, {tails[i % len(tails)]}' for i in range(n))
        body = (
            '{"id": "mock-completion", "object": "chat.completion", '
            f'"model": {json.dumps(payload.get("model", "mock"))}, "choices": [{choices}]}}'
        )
        self._answer(200, body.encode("utf-8"))


def make_server(fixtures: MockFixtures | str | Path, port: int = 0) -> ThreadingHTTPServer:
    """Build a server bound to localhost:port (0 = any free port)."""
    if not isinstance(fixtures, MockFixtures):
        fixtures = MockFixtures.load(fixtures)
    handler = type("BoundMockHandler", (MockHandler,), {"fixtures": fixtures})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


class running_server:
    """Context manager: serve fixtures on a background thread.

    Yields the endpoint base URL, e.g. ``http://127.0.0.1:51123/v1``.
    """

    def __init__(self, fixtures: MockFixtures | str | Path, port: int = 0):
        self.server = make_server(fixtures, port)
        # shutdown() waits for the serving loop's next poll: a short poll
        # interval keeps teardown from costing its 0.5 s default.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    def __enter__(self) -> str:
        self.thread.start()
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="mock chat-completions server")
    parser.add_argument("--fixtures", required=True, help="fixtures JSON file")
    parser.add_argument("--port", type=int, default=8008)
    args = parser.parse_args(argv)
    server = make_server(args.fixtures, args.port)
    host, port = server.server_address[:2]
    print(f"mock chat-completions server listening on http://{host}:{port}/v1", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
