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
            {"text": "\"kp one\"]"}
         ]}
      ],
      "default": {"samples": [{"text": "]"}]}
    }

Sample texts are stored in continuation form (no leading "["). When the
request carries no assistant prefill turn, the server prepends "[" so the
completion looks like a full bracketed list, mirroring how a real model
behaves with and without prefill.

Run standalone with ``python -m kpagg.mock_server --fixtures F --port P``.
"""

from __future__ import annotations

import argparse
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class MockFixtures:
    def __init__(self, data: dict):
        if not isinstance(data, dict) or "responses" not in data:
            raise ValueError("fixtures must be an object with a 'responses' list")
        self.responses = data["responses"]
        self.default = data.get("default")

    @classmethod
    def load(cls, path: str | Path) -> "MockFixtures":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def lookup(self, user_text: str) -> dict | None:
        for entry in self.responses:
            if entry.get("match", "") in user_text:
                return entry
        return self.default


def _choice(index: int, text: str, logprobs: list[float] | None) -> dict:
    choice = {
        "index": index,
        "message": {"role": "assistant", "content": text},
        "finish_reason": "stop",
        "logprobs": None,
    }
    if logprobs is not None:
        choice["logprobs"] = {
            "content": [
                {"token": f"t{i}", "logprob": lp} for i, lp in enumerate(logprobs)
            ]
        }
    return choice


class MockHandler(BaseHTTPRequestHandler):
    """Answers chat-completions POSTs over HTTP/1.1, keeping a connection
    open for the next request unless the client asks to close it. Every
    request body is read before the answer, error answers included, so a
    kept-alive connection stays in step. Without TCP_NODELAY the separate
    header and body writes would wait on the client's delayed ACK whenever
    a connection carries more than one request."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    fixtures: MockFixtures = None  # set by make_server

    def log_message(self, format, *args):  # keep test output quiet
        pass

    def _fail(self, status: int, message: str) -> None:
        body = json.dumps({"error": {"message": message}}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # where the body ends is unknown, so no request can follow it
            self.close_connection = True
            return self._fail(400, "invalid Content-Length")
        data = self.rfile.read(length)
        if not self.path.endswith("/chat/completions"):
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
        samples = entry.get("samples", [])
        if not samples:
            return self._fail(400, "fixture has no samples")

        want_logprobs = bool(payload.get("logprobs"))
        choices = []
        for i in range(n):
            sample = samples[i % len(samples)]
            text = sample.get("text", "")
            if not has_prefill:
                text = "[" + text
            logprobs = sample.get("logprobs") if want_logprobs else None
            choices.append(_choice(i, text, logprobs))

        body = json.dumps(
            {
                "id": "mock-completion",
                "object": "chat.completion",
                "model": payload.get("model", "mock"),
                "choices": choices,
            }
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


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
    print(f"mock chat-completions server listening on http://{host}:{port}/v1")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
