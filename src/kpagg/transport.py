"""How the chat-completions client sends a request: one POST, its whole
answer back.

Requests go over kept-alive HTTP/1.1 connections that this module drives
itself. Everything of a request but its body is settled when the transport
is made: the request line, `Host` (an IPv6 zone left out),
`Accept-Encoding: identity` (no compression is asked for), the client's
headers, and behind a proxy its credentials and the CONNECT of a tunnel.
A send takes an idle connection or opens one, and writes that head,
`Content-Length` and the body with one `sendall`. The answer is read
through a buffered reader over the connection's socket: the status line,
the header lines, then the body by its `Content-Length`, by
`Transfer-Encoding: chunked` chunks, or up to the close of the connection.
Interim 1xx answers are skipped, as RFC 9110 (section 15.2) asks; of
them `http.client` skips only a `100 Continue`. Of the headers, only four
steer anything: those two, `Connection` and, in the client, `Retry-After`.
The reader is dropped with the answer, and with it any bytes it read past
the answer's framing (a body on a 204, say), as `http.client` drops them.
The connection goes back to the idle list unless the answer is HTTP/1.0,
says `Connection: close` or ends at the close, so a transport holds at
most one connection per thread that sends at a time. A 3xx is not followed.

The checks of `http.client` are kept, and made once, when the transport is
made: a URL that is not http(s), a space, control character or non-ASCII
character in the path, a control character in the host, a header name
`http.client` would refuse or a CR or LF in a header value raises
ValueError there, so nothing is ever sent. The error names a header but
never its value, which may be a credential. Of an answer, a line longer
than 65,536 bytes, more than 100 header lines, a bad status line or a body
cut short raises `BadAnswer`, with `http.client`'s wording; an answer that
never came (the connection closed first) raises ConnectionResetError. So a
send fails only with an OSError.

Where `HTTP(S)_PROXY`/`NO_PROXY` put the endpoint behind a proxy, the
same exchange goes to the proxy, as urllib would send it: the absolute URI
for an `http://` endpoint, a CONNECT tunnel (RFC 9110, section 9.3.6) for
an `https://` one. HTTPS verifies against the system CA store.

Each path imports only the modules it drives, so the direct path over
`http://` loads none of the standard library's HTTP modules. `ssl` is
imported when a transport is made that speaks TLS, `base64` when its proxy
URL holds credentials. `urllib.request` is imported to decide whether a
proxy applies only when one may: where urllib reads the proxy settings
from the environment alone (not on macOS or Windows), that is when a
variable named `<scheme>_proxy`, in any case, has a value.

`LLMClient` imports this module when it is constructed, so an offline
replay, which makes no client, loads no HTTP module.
"""

from __future__ import annotations

import io
import os
import re
import socket
import sys
import threading
import urllib.parse

# http.client's limits: the bytes of one answer line, and the header lines
# of one answer (the blank line that ends them counted).
_MAXLINE = 65536
_MAXHEADERS = 100
_END_OF_HEADERS = (b"\r\n", b"\n", b"")
# http.client's checks of a header name, a header value, and a path or host.
_is_legal_header_name = re.compile(rb"[^:\s][^:\r\n]*").fullmatch
_is_illegal_header_value = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])").search
_disallowed_url_char = re.compile("[\x00-\x20\x7f]").search


class BadAnswer(OSError):
    """An answer that breaks the HTTP/1.1 framing or one of `http.client`'s
    limits; its message is the one `http.client` gives."""


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
    """Sends POSTs with the fixed `headers` to one URL, through the proxy
    that applies to it if any; `close` closes the idle connections. `headers`
    must not name Host, Accept-Encoding or Content-Length, which the
    transport sends itself. Raises ValueError for a URL, header or proxy
    that cannot be sent."""

    def __init__(self, url: urllib.parse.SplitResult, timeout: float, headers: dict):
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("not an http(s) URL with a host")
        tls = url.scheme == "https"
        default_port = 443 if tls else 80
        port = default_port if url.port is None else url.port  # ValueError if out of range
        host = url.hostname
        target = url.path + (f"?{url.query}" if url.query else "")
        # a message names the path but not the query, which may hold a key
        for part in (target, host):
            match = _disallowed_url_char(part)
            if match:
                shown = part.partition("?")[0]
                raise ValueError(f"URL can't contain {match.group()!r}: {shown!r}")
        if not url.path.isascii():
            raise ValueError(f"URL is not ASCII: {url.path!r}")
        if not url.query.isascii():
            raise ValueError("URL query is not ASCII")
        try:
            host_enc = host.encode("ascii")
        except UnicodeEncodeError:
            host_enc = host.encode("idna")
        # An IPv6 address goes in brackets and without its zone, as newer
        # http.client releases send it (3.12 does; 3.10 sends the zone).
        if ":" in host:
            host_enc = b"[" + host_enc.partition(b"%")[0] + b"]"
        authority = host_enc + b":%d" % port
        host_field = authority if port != default_port else host_enc
        target_enc = target.encode("ascii")
        self.timeout = timeout
        # Decided once, from the proxy settings when the client is made:
        # where a connection goes, the host TLS verifies there (None for
        # plain TCP), and the CONNECT of a tunnel (None for none).
        self._peer = (host, port)
        self._tls_host = host if tls else None
        self._tunnel: bytes | None = None
        proxy_auth = b""
        proxy = _proxy(url)
        if proxy is not None:
            # urllib takes a bare host[:port] in the endpoint's scheme
            split = urllib.parse.urlsplit(proxy if "://" in proxy else f"{url.scheme}://{proxy}")
            if split.scheme not in ("http", "https"):
                raise ValueError(f"unsupported proxy scheme {split.scheme!r} (not http or https)")
            # the default port of urllib's connection class, which is HTTPS
            # for an https endpoint (tunnelled) or an https proxy
            default = 443 if "https" in (url.scheme, split.scheme) else 80
            self._peer = (split.hostname, default if split.port is None else split.port)
            if not tls and split.scheme == "https":
                self._tls_host = split.hostname
            if split.username and split.password:
                import base64

                user, password = map(urllib.parse.unquote, (split.username, split.password))
                auth = base64.b64encode(f"{user}:{password}".encode())
                proxy_auth = b"Proxy-Authorization: Basic %s\r\n" % auth
            if tls:
                # a tunnel's authority always names the port; the
                # credentials go on the CONNECT only
                self._tunnel = b"CONNECT %s HTTP/1.1\r\nHost: %s\r\n%s\r\n" % (
                    authority, authority, proxy_auth
                )
                proxy_auth = b""
            else:
                target_enc = b"http://" + host_field + target_enc
        # the request line, Host and Accept-Encoding as `http.client` forms
        # them, and to an http proxy every request carries its credentials
        self._head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n%s" % (
            target_enc, host_field, proxy_auth
        )
        self._fields = b"".join(_header_line(*item) for item in headers.items()) + b"\r\n"
        self._context = None
        if self._tls_host is not None:
            import ssl

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

    def send(self, data: bytes, may_resend=lambda: True) -> tuple[int, dict, bytes]:
        """POST `data`: the status, headers (by lower-case name) and whole
        body of the answer, whatever its status; OSError when none came
        whole. A stale kept-alive connection is replaced, and `data` sent
        again, if `may_resend()`."""
        request = self._request(data)
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
                # sat idle fails before any answer: send again, once, on a
                # fresh one, unless the caller has learnt to send nothing more.
                if fresh or not may_resend():
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

    def _request(self, data: bytes) -> bytes:
        """The request line, the headers and the body, as one string."""
        return b"%sContent-Length: %d\r\n%s%s" % (self._head, len(data), self._fields, data)

    def _connect(self) -> _Connection:
        """A new connection, with TCP_NODELAY, to the endpoint or its proxy
        (through the proxy's tunnel, for an https endpoint); TLS verifies
        the server against `ssl.create_default_context()`."""
        sock = socket.create_connection(self._peer, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                sock.sendall(self._tunnel)
                with sock.makefile("rb") as rfile:
                    status = _read_head(rfile)[0]
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status}")
            if self._context is not None:
                sock = self._context.wrap_socket(sock, server_hostname=self._tls_host)
        except BaseException:
            sock.close()  # a failed handshake has closed the TLS socket already
            raise
        return _Connection(sock)


def _header_line(name: str, value: str) -> bytes:
    """`name: value` and CRLF, or ValueError, naming the header but not its
    value, where `http.client` would refuse either."""
    try:
        name_enc, value_enc = name.encode("ascii"), value.encode("latin-1")
    except UnicodeEncodeError:
        name_enc = value_enc = b"\n"
    if not _is_legal_header_name(name_enc) or _is_illegal_header_value(value_enc):
        raise ValueError(f"header {name!r} has a name or value that cannot be sent")
    return b"%s: %s\r\n" % (name_enc, value_enc)


def _proxy(url: urllib.parse.SplitResult) -> str | None:
    """The proxy through which urllib sends a request for `url`, or None,
    from the proxy settings as they are now. Where urllib's `getproxies`
    reads the environment alone, as everywhere but macOS and Windows, a
    scheme has a proxy only if a variable whose lower-cased name is
    `<scheme>_proxy` has a value; without one the answer is None, and
    urllib is not imported."""
    if sys.platform != "darwin" and os.name != "nt":
        name = url.scheme + "_proxy"
        if not any(value and key.lower() == name for key, value in os.environ.items()):
            return None
    import urllib.request

    proxy = urllib.request.getproxies().get(url.scheme)
    return None if proxy is None or urllib.request.proxy_bypass(url.netloc) else proxy


def _readline(rfile, what: str) -> bytes:
    line = rfile.readline(_MAXLINE + 1)
    if len(line) > _MAXLINE:
        raise BadAnswer(f"got more than {_MAXLINE} bytes when reading {what}")
    return line


def _header_lines(rfile) -> list[bytes]:
    """The header lines of an answer, up to the blank line that ends them."""
    lines = []
    while True:
        line = _readline(rfile, "header line")
        lines.append(line)
        if len(lines) > _MAXHEADERS:
            raise BadAnswer(f"got more than {_MAXHEADERS} headers")
        if line in _END_OF_HEADERS:
            return lines


def _read_status(rfile) -> tuple[bytes, int]:
    """The HTTP version and the status of a status line."""
    line = _readline(rfile, "status line")
    if not line:
        raise ConnectionResetError("Remote end closed connection without response")
    try:
        version, status = line.split(None, 2)[:2]
        status = int(status)
    except ValueError:
        version, status = b"", 0
    if not (version.startswith(b"HTTP/") and 100 <= status <= 999):
        raise BadAnswer(str(line, "iso-8859-1"))
    return version, status


def _read_head(rfile) -> tuple[int, bool, dict]:
    """The status of an answer, whether it is HTTP/1.0, and its headers by
    lower-case name, past any interim 1xx answer. A repeated name keeps
    its first value, as `http.client` does. A header line without a
    colon, or one that continues the line before it, is passed over."""
    version, status = _read_status(rfile)
    while status < 200:
        _header_lines(rfile)
        version, status = _read_status(rfile)
    if not version.startswith(b"HTTP/1.") and version != b"HTTP/0.9":
        raise BadAnswer(str(version, "iso-8859-1"))
    headers = {}
    for line in _header_lines(rfile):
        name, colon, value = line.partition(b":")
        if colon and name[:1] not in b" \t":
            name = str(name, "iso-8859-1").lower()
            headers.setdefault(name, str(value.lstrip(b" \t").rstrip(b"\r\n"), "iso-8859-1"))
    return status, version in (b"HTTP/1.0", b"HTTP/0.9"), headers


def _incomplete(read: int, expected: int | None = None) -> BadAnswer:
    """A body cut short, worded as `http.client`'s IncompleteRead."""
    more = "" if expected is None else f", {expected} more expected"
    return BadAnswer(f"IncompleteRead({read} bytes read{more})")


def _read_body(rfile, status: int, http10: bool, headers: dict) -> tuple[bytes, bool]:
    """The body of an answer, and whether its connection can carry
    another request."""
    connection = headers.get("connection")
    keep = not http10 and not (connection and "close" in connection.lower())
    if status in (204, 304):  # no body
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
        raise _incomplete(len(body), length - len(body))
    return body, keep


def _read_chunked(rfile) -> bytes:
    """A chunked body; its trailer is read and dropped. A body cut short
    counts, as `http.client` counts it, the bytes of its whole chunks."""
    chunks = []
    while True:
        line = _readline(rfile, "chunk size")
        try:
            size = int(line.partition(b";")[0], 16)  # chunk extensions dropped
        except ValueError:
            size = -1
        if size < 0:
            raise _incomplete(sum(map(len, chunks)))
        if size == 0:
            break
        chunk = rfile.read(size + 2)  # the chunk and the CRLF after it
        if len(chunk) < size + 2:
            raise _incomplete(sum(map(len, chunks)))
        chunks.append(chunk[:size])
    while _readline(rfile, "trailer line") not in _END_OF_HEADERS:
        pass
    return b"".join(chunks)
