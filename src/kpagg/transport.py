"""How the chat-completions client sends a request: one POST, its whole
answer back.

Without a proxy, requests go over kept-alive HTTP/1.1 connections that
this module drives itself. A send takes an idle connection or opens one,
and writes the request line, the headers and the body with one `sendall`.
The headers are `Host` (an IPv6 zone left out), `Accept-Encoding: identity`
(no compression is asked for), `Content-Length` and the caller's. The
answer is read through a buffered reader over the connection's socket: the
status line (a `100 Continue` is skipped), the header lines, then the body
by its `Content-Length`, by `Transfer-Encoding: chunked` chunks, or up to
the close of the connection. Of the headers, only these four steer
anything: those two, `Connection` and, in the client, `Retry-After`. The
reader is dropped with the answer, and with it any bytes it read past the
answer's framing (a body on a 204, say), as `http.client` drops them. The
connection goes back to the idle list unless the answer is HTTP/1.0, says
`Connection: close` or ends at the close, so a transport holds at most one
connection per thread that sends at a time. A 3xx is not followed.

The checks of `http.client` are kept. A header name or value it would
refuse (a CR or LF in a value) raises ValueError before any byte goes out,
and a space or control character in the path or host raises InvalidURL.
An answer line longer than 65,536 bytes, more than 100 header lines, a bad
status line or a body cut short raises the `http.client` exception for
it. So every malformed answer is an OSError or an HTTPException.

When `HTTP(S)_PROXY`/`NO_PROXY` put the endpoint behind a proxy, each
request goes through `urllib.request.urlopen` on a connection of its own.
HTTPS verifies against the system CA store either way.

`LLMClient` imports this module when it is constructed, so an offline
replay, which makes no client, loads no HTTP module.
"""

from __future__ import annotations

import http.client
import io
import re
import socket
import ssl
import threading
import urllib.error
import urllib.parse
import urllib.request

# http.client's limits: the bytes of one answer line, and the header lines
# of one answer (the blank line that ends them counted).
_MAXLINE = 65536
_MAXHEADERS = 100
_END_OF_HEADERS = (b"\r\n", b"\n", b"")
# http.client's checks of a header name, a header value, and a path or host.
_is_legal_header_name = re.compile(rb"[^:\s][^:\r\n]*").fullmatch
_is_illegal_header_value = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])").search
_disallowed_url_char = re.compile("[\x00-\x20\x7f]").search


class _Connection:
    """One kept-alive socket, and the buffered reader of the answer that is
    being read from it."""

    __slots__ = ("sock", "raw", "rfile")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.raw = sock.makefile("rb", buffering=0)
        self.rfile: io.BufferedReader | None = None

    def close(self) -> None:
        self.raw.close()
        self.sock.close()

    def post(self, request: bytes) -> tuple[int, bool, dict]:
        """Send `request` in one write; the status of its answer, whether
        that is HTTP/1.0, and its headers. The body is left to read."""
        self.sock.sendall(request)
        self.rfile = io.BufferedReader(self.raw)
        return _read_head(self.rfile)

    def done(self) -> None:
        """Drop the reader of the answer just read, with whatever it read
        past that answer; the socket stays open."""
        self.rfile.detach()


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
        self._default_port = 443 if url.scheme == "https" else 80
        self._port = self._default_port if url.port is None else url.port
        # request line, Host and Accept-Encoding, set by the first send
        self._head: bytes | None = None
        self._context = None
        if url.scheme == "https" and not self._proxied:
            self._context = ssl.create_default_context()
            self._context.set_alpn_protocols(["http/1.1"])
        self._idle: list[_Connection] = []  # no send is using these
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; a later send opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def send(
        self, data: bytes, headers: dict
    ) -> tuple[int, dict | http.client.HTTPMessage, bytes]:
        """POST `data`: the status, headers and whole body of the answer,
        whatever its status. Look a header up with `.get` and its lower-case
        name, which both kinds of headers answer. `headers` must not name
        Host, Accept-Encoding or Content-Length, which the transport sends
        itself. Raises OSError or http.client.HTTPException when no whole
        answer came."""
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

        request = self._request(data, headers)
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        fresh = conn is None
        if fresh:
            conn = self._connect()
        try:
            try:
                status, http10, answer = conn.post(request)
            except (BrokenPipeError, ConnectionResetError):
                # A kept-alive connection that the server closed while it
                # sat idle fails before any answer (RemoteDisconnected is a
                # ConnectionResetError): send again, once, on a fresh one.
                if fresh:
                    raise
                conn.close()
                conn = self._connect()
                status, http10, answer = conn.post(request)
            body, keep = _read_body(conn.rfile, status, http10, answer)
        except BaseException:
            conn.close()
            raise
        if keep:
            conn.done()
            with self._idle_lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, answer, body

    def _request(self, data: bytes, headers: dict) -> bytes:
        """The request line, the headers and the body, as one string."""
        parts = [self._head or self._request_head(), b"Content-Length: %d\r\n" % len(data)]
        for name, value in headers.items():
            name, value = name.encode("ascii"), value.encode("latin-1")
            if not _is_legal_header_name(name):
                raise ValueError(f"Invalid header name {name!r}")
            if _is_illegal_header_value(value):
                raise ValueError(f"Invalid header value {value!r}")
            parts.append(b"%s: %s\r\n" % (name, value))
        parts.append(b"\r\n")
        parts.append(data)
        return b"".join(parts)

    def _request_head(self) -> bytes:
        """The request line, Host and Accept-Encoding, as `http.client`
        forms them. Like it, raises InvalidURL for a space or control
        character in the path or host, and UnicodeEncodeError for a path
        that is not ASCII, at each send."""
        host = self.url.hostname
        for part in (self._target, host):
            match = _disallowed_url_char(part)
            if match:
                raise http.client.InvalidURL(
                    f"URL can't contain control characters. {part!r} "
                    f"(found at least {match.group()!r})"
                )
        try:
            host_enc = host.encode("ascii")
        except UnicodeEncodeError:
            host_enc = host.encode("idna")
        # An IPv6 address goes in brackets and without its zone, as newer
        # http.client releases send it (3.12 does; 3.10 sends the zone).
        if ":" in host:
            host_enc = b"[" + host_enc.partition(b"%")[0] + b"]"
        if self._port != self._default_port:
            host_enc += b":%d" % self._port
        self._head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (
            self._target.encode("ascii"),
            host_enc,
        )
        return self._head

    def _connect(self) -> _Connection:
        """A new connection, with TCP_NODELAY; HTTPS verifies the server
        against the default context, the one `urlopen` uses."""
        sock = socket.create_connection((self.url.hostname, self._port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._context is not None:
                sock = self._context.wrap_socket(sock, server_hostname=self.url.hostname)
        except BaseException:
            sock.close()  # a failed handshake has closed the TLS socket already
            raise
        return _Connection(sock)


def _readline(rfile, what: str) -> bytes:
    line = rfile.readline(_MAXLINE + 1)
    if len(line) > _MAXLINE:
        raise http.client.LineTooLong(what)
    return line


def _header_lines(rfile) -> list[bytes]:
    """The header lines of an answer, up to the blank line that ends them."""
    lines = []
    while True:
        line = _readline(rfile, "header line")
        lines.append(line)
        if len(lines) > _MAXHEADERS:
            raise http.client.HTTPException(f"got more than {_MAXHEADERS} headers")
        if line in _END_OF_HEADERS:
            return lines


def _read_status(rfile) -> tuple[bytes, int]:
    """The HTTP version and the status of a status line."""
    line = _readline(rfile, "status line")
    if not line:
        raise http.client.RemoteDisconnected("Remote end closed connection without response")
    try:
        version, status = line.split(None, 2)[:2]
        status = int(status)
    except ValueError:
        version, status = b"", 0
    if not (version.startswith(b"HTTP/") and 100 <= status <= 999):
        raise http.client.BadStatusLine(str(line, "iso-8859-1"))
    return version, status


def _read_head(rfile) -> tuple[int, bool, dict]:
    """The status of an answer, whether it is HTTP/1.0, and its headers by
    lower-case name; a 100 Continue before it is skipped. A repeated name
    keeps its first value, as `http.client` does. A header line without a
    colon, or one that continues the line before it, is passed over."""
    version, status = _read_status(rfile)
    while status == 100:
        _header_lines(rfile)
        version, status = _read_status(rfile)
    if not version.startswith(b"HTTP/1.") and version != b"HTTP/0.9":
        raise http.client.UnknownProtocol(str(version, "iso-8859-1"))
    headers = {}
    for line in _header_lines(rfile):
        name, colon, value = line.partition(b":")
        if colon and name[:1] not in b" \t":
            name = str(name, "iso-8859-1").lower()
            headers.setdefault(name, str(value.lstrip(b" \t").rstrip(b"\r\n"), "iso-8859-1"))
    return status, version in (b"HTTP/1.0", b"HTTP/0.9"), headers


def _read_body(rfile, status: int, http10: bool, headers: dict) -> tuple[bytes, bool]:
    """The body of an answer, and whether its connection can carry
    another request."""
    connection = headers.get("connection")
    keep = not http10 and not (connection and "close" in connection.lower())
    if status < 200 or status in (204, 304):  # no body
        return b"", keep
    if (headers.get("transfer-encoding") or "").lower() == "chunked":
        return _read_chunked(rfile), keep
    try:
        length = int(headers.get("content-length", ""))
    except ValueError:
        length = -1
    if length < 0:  # none, or nonsense: the body runs to the close
        return rfile.read(), False
    body = rfile.read(length)
    if len(body) < length:
        raise http.client.IncompleteRead(body, length - len(body))
    return body, keep


def _read_chunked(rfile) -> bytes:
    """A chunked body; its trailer is read and dropped."""
    chunks = []
    while True:
        line = _readline(rfile, "chunk size")
        try:
            size = int(line.partition(b";")[0], 16)  # chunk extensions dropped
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.IncompleteRead(b"".join(chunks))
        if size == 0:
            break
        chunk = rfile.read(size + 2)  # the chunk and the CRLF after it
        if len(chunk) < size + 2:
            raise http.client.IncompleteRead(b"".join(chunks) + chunk[:size])
        chunks.append(chunk[:size])
    while _readline(rfile, "trailer line") not in _END_OF_HEADERS:
        pass
    return b"".join(chunks)
