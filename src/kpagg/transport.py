"""How the chat-completions client sends a request: one POST, its whole
answer back.

Without a proxy, requests go over persistent `http.client` connections: a
send takes an idle one or opens one, and puts it back once it has read the
whole answer, so a transport holds at most one connection per thread that
sends at a time. A 3xx is not followed. When `HTTP(S)_PROXY`/`NO_PROXY` put
the endpoint behind a proxy, each request goes through
`urllib.request.urlopen` on a connection of its own. HTTPS verifies against
the system CA store either way.

`LLMClient` imports this module when it is constructed, so an offline
replay, which makes no client, loads no HTTP module.
"""

from __future__ import annotations

import http.client
import threading
import urllib.error
import urllib.parse
import urllib.request


class Transport:
    """Sends POSTs to one URL; `close` closes the idle connections."""

    def __init__(self, url: urllib.parse.SplitResult, timeout: float):
        self.url = url
        self.timeout = timeout
        self._target = url.path + (f"?{url.query}" if url.query else "")
        # decided once: the proxy settings are read when the client is made
        self._proxied = url.scheme in urllib.request.getproxies() and not (
            urllib.request.proxy_bypass(url.netloc)
        )
        self._idle: list[http.client.HTTPConnection] = []  # no send is using these
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; a later send opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def send(self, data: bytes, headers: dict) -> tuple[int, http.client.HTTPMessage, bytes]:
        """POST `data`: the status, headers and whole body of the answer,
        whatever its status. Raises OSError or http.client.HTTPException
        when no whole answer came."""
        if self._proxied:
            # urllib rewrites a Request that goes through a proxy, so each
            # attempt sends a fresh one.
            request = urllib.request.Request(
                self.url.geturl(), data=data, headers=headers, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return resp.status, resp.headers, resp.read()
            except urllib.error.HTTPError as exc:
                with exc:
                    return exc.code, exc.headers, exc.read()

        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        fresh = conn is None
        if fresh:
            conn = self._connect()
        try:
            try:
                resp = self._exchange(conn, data, headers)
            except (BrokenPipeError, ConnectionResetError):
                # A kept-alive connection that the server closed while it
                # sat idle fails before any answer (RemoteDisconnected is a
                # ConnectionResetError): send again, once, on a fresh one.
                if fresh:
                    raise
                conn.close()
                conn = self._connect()
                resp = self._exchange(conn, data, headers)
            body = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return resp.status, resp.headers, body

    def _connect(self) -> http.client.HTTPConnection:
        """A new connection, opened by its first request. HTTPS takes the
        default context, the one `urlopen` uses."""
        if self.url.scheme == "https":
            return http.client.HTTPSConnection(
                self.url.hostname, self.url.port, timeout=self.timeout
            )
        return http.client.HTTPConnection(self.url.hostname, self.url.port, timeout=self.timeout)

    def _exchange(self, conn: http.client.HTTPConnection, data: bytes, headers: dict):
        """Send the POST on `conn`; the response, its body not yet read."""
        conn.request("POST", self._target, body=data, headers=headers)
        return conn.getresponse()
