"""The client through a proxy: `kpagg.transport` sends its own HTTP/1.1
exchange to the proxy, as urllib would send it. An https endpoint is
reached through a CONNECT tunnel, here a test-only relay in front of the
mock server behind TLS (tests/data/tls); an http endpoint gets the absolute
URI, here from the raw scripted server of tests/test_transport.py acting as
its own proxy."""

import logging
import socket
import socketserver
import ssl
import threading
import urllib.parse
import urllib.request

import pytest

from kpagg import llm_client
from kpagg.llm_client import LLMClient, LLMClientError, RequestError
from kpagg.mock_server import running_server
from kpagg.transport import Transport

from .conftest import MOCK_FIXTURES
from .test_tls import HANDSHAKE, TLS_DIR, fetch, prompt  # noqa: F401 (prompt is a fixture)
from .test_transport import serve  # noqa: F401 (a fixture)

PROXY_VARIABLES = (
    "http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY"
)
REFUSAL = (
    b"HTTP/1.1 407 Proxy Authentication Required\r\n"
    b"Proxy-Authenticate: Basic\r\nContent-Length: 0\r\n\r\n"
)


def clear_proxies(monkeypatch) -> None:
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)


def _pump(src: socket.socket, dst: socket.socket) -> None:
    """Copies what `src` sends to `dst` until `src` ends, then ends the
    sending side of `dst`."""
    try:
        while data := src.recv(65536):
            dst.sendall(data)
        dst.shutdown(socket.SHUT_WR)
    except OSError:  # the other side has closed already
        pass


class _RelayHandler(socketserver.StreamRequestHandler):
    """Reads a CONNECT request. Refuses it with a 407 and reads what else
    the client sends until it closes; or answers 200 and relays bytes both
    ways between the client and the host:port the CONNECT names."""

    timeout = 5

    def handle(self):
        head = [self.rfile.readline()]
        while head[-1] not in (b"\r\n", b""):
            head.append(self.rfile.readline())
        relay = self.server
        if relay.refuse:
            self.wfile.write(REFUSAL)
            after = self.rfile.read()
            with relay.lock:
                relay.connects.append((b"".join(head), after))
            return
        with relay.lock:
            relay.connects.append((b"".join(head), None))
        host, _, port = head[0].split()[1].rpartition(b":")
        with socket.create_connection((host.strip(b"[]").decode(), int(port)), 5) as upstream:
            self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
            back = threading.Thread(target=_pump, args=(upstream, self.connection))
            back.start()
            _pump(self.connection, upstream)
            back.join()


class _Relay(socketserver.ThreadingTCPServer):
    allow_reuse_address = True

    def __init__(self, refuse: bool):
        super().__init__(("127.0.0.1", 0), _RelayHandler)
        self.refuse = refuse
        # each CONNECT head, and with a refusal what followed it
        self.connects: list[tuple[bytes, bytes | None]] = []
        self.lock = threading.Lock()
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.01})
        self.thread.start()

    def stop(self) -> None:
        """Stops serving and waits for every connection's handler."""
        if self.thread.is_alive():
            self.shutdown()
            self.server_close()  # joins the handler threads
            self.thread.join(timeout=5)


@pytest.fixture()
def relay():
    """Starts a CONNECT relay; `relay(refuse=True)` answers every CONNECT
    with a 407."""
    relays = []

    def start(refuse=False):
        relays.append(_Relay(refuse))
        return relays[-1]

    yield start
    for started in relays:
        started.stop()


@pytest.fixture()
def endpoint(monkeypatch):
    """The mock server behind TLS, trusted through SSL_CERT_FILE, with no
    proxy variable set: its https URL, the first byte of every connection
    it accepted, and the request line and headers of every request."""
    clear_proxies(monkeypatch)
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DIR / "ca.pem"))
    context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    context.load_cert_chain(TLS_DIR / "localhost.pem", TLS_DIR / "localhost-key.pem")
    serving = running_server(MOCK_FIXTURES)
    accept = serving.server.get_request
    seen = {"first_bytes": [], "requests": []}

    def get_request():
        sock, address = accept()
        sock.settimeout(5)
        try:
            # peeked before the handshake, so a plain-text request shows too
            seen["first_bytes"].append(sock.recv(1, socket.MSG_PEEK))
            return context.wrap_socket(sock, server_side=True), address
        except OSError:
            sock.close()
            raise

    class Recording(serving.server.RequestHandlerClass):
        def do_POST(self):
            seen["requests"].append((self.requestline, self.headers))
            super().do_POST()

    serving.server.get_request = get_request
    serving.server.RequestHandlerClass = Recording
    with serving as url:
        yield url.replace("http://", "https://"), seen


def urllib_proxy_authorization(proxy: str, url: str) -> str | None:
    """The Proxy-Authorization value urllib gives a request for `url`
    through `proxy`, caught without a socket."""
    request = urllib.request.Request(url)
    urllib.request.ProxyHandler({}).proxy_open(request, proxy, request.type)
    return request.get_header("Proxy-authorization")


def test_three_sends_through_one_tunnel(endpoint, relay, prompt, monkeypatch):
    https, seen = endpoint
    proxy = relay()
    monkeypatch.setenv("https_proxy", proxy.url)
    samples = fetch(https, prompt, [0, 1, 2])
    assert [s.sample_index for s in samples] == [0, 1, 2]
    authority = urllib.parse.urlsplit(https).netloc.encode()
    assert proxy.connects == [
        (b"CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n" % (authority, authority), None)
    ]
    assert seen["first_bytes"] == [HANDSHAKE]  # TLS first, on the one connection
    assert len(seen["requests"]) == 3


def test_credentials_go_on_the_connect_only(endpoint, relay, prompt, monkeypatch):
    https, seen = endpoint
    proxy = relay()
    with_credentials = proxy.url.replace("http://", "http://u%40x:p%3Aw@")
    monkeypatch.setenv("https_proxy", with_credentials)
    assert len(fetch(https, prompt, [0])) == 1
    expected = urllib_proxy_authorization(with_credentials, https)
    assert expected == "Basic dUB4OnA6dw=="  # base64 of "u@x:p:w"
    ((head, _),) = proxy.connects
    assert b"\r\nProxy-Authorization: %s\r\n" % expected.encode() in head
    ((_, headers),) = seen["requests"]
    assert "proxy-authorization" not in headers  # not inside the tunnel


@pytest.mark.parametrize("credentials", ["", "u%40x:p%3Aw@", "u@", "u:@"])
def test_http_endpoint_gets_the_absolute_uri(serve, monkeypatch, credentials):  # noqa: F811
    server = serve()
    clear_proxies(monkeypatch)
    monkeypatch.setenv("http_proxy", server.url.replace("http://", f"http://{credentials}"))
    client = LLMClient(server.url, "m")
    serve.closing(client)
    for _ in range(3):
        assert client._post_with_retries(b"{}") == {}
    # urllib sends credentials only when both the user and the password are given
    expected = urllib_proxy_authorization(f"http://{credentials}proxy", server.url)
    authorization = [] if expected is None else [b"Proxy-Authorization: " + expected.encode()]
    netloc = urllib.parse.urlsplit(server.url).netloc.encode()
    for head, _ in server.requests:
        lines = head.split(b"\r\n")
        assert lines[:3] == [
            b"POST %s HTTP/1.1" % server.url.encode(),
            b"Host: " + netloc,
            b"Accept-Encoding: identity",
        ]
        assert [x for x in lines if x.startswith(b"Proxy-Authorization")] == authorization
    assert (len(server.requests), server.connections) == (3, 1)


def test_refused_connect_is_a_retried_connection_error(
    endpoint, relay, prompt, monkeypatch, caplog
):
    https, seen = endpoint
    proxy = relay(refuse=True)
    monkeypatch.setenv("https_proxy", proxy.url)
    monkeypatch.setattr(llm_client, "MAX_RETRIES", 1)
    monkeypatch.setattr(llm_client.time, "sleep", lambda s: None)
    with caplog.at_level(logging.WARNING, logger="kpagg.llm_client"):
        assert fetch(https, prompt, [0]) == []
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert all("connection error: Tunnel connection failed: 407" in m for m in messages)
    proxy.stop()
    # each attempt sent its CONNECT and nothing more
    assert [after for _, after in proxy.connects] == [b"", b""]
    assert seen["first_bytes"] == []


def test_redirect_through_a_proxy_is_a_request_error(serve, monkeypatch):  # noqa: F811
    server = serve(b"HTTP/1.1 302 Found\r\nLocation: http://x/\r\nContent-Length: 0\r\n\r\n")
    clear_proxies(monkeypatch)
    monkeypatch.setenv("http_proxy", server.url)
    client = LLMClient(server.url, "m")
    serve.closing(client)
    with pytest.raises(RequestError, match="HTTP 302"):
        client._post_with_retries(b"{}")
    assert len(server.requests) == 1  # not followed


def test_https_proxy_for_an_http_endpoint(endpoint, prompt, monkeypatch):
    # The TLS mock server is the proxy. Nothing listens on port 1, so a
    # request that went to the endpoint itself would fail.
    https, seen = endpoint
    monkeypatch.setenv("http_proxy", https.removesuffix("/v1"))
    samples = fetch("http://127.0.0.1:1/v1", prompt, [0, 1, 2])
    assert [s.sample_index for s in samples] == [0, 1, 2]
    assert seen["first_bytes"] == [HANDSHAKE]
    assert [line for line, _ in seen["requests"]] == [
        "POST http://127.0.0.1:1/v1/chat/completions HTTP/1.1"
    ] * 3


@pytest.mark.parametrize("proxy", ["socks5://127.0.0.1:1080", "ftp://127.0.0.1:21"])
@pytest.mark.parametrize("scheme", ["http", "https"])
def test_unsupported_proxy_scheme_is_refused_when_the_client_is_made(monkeypatch, proxy, scheme):
    clear_proxies(monkeypatch)
    monkeypatch.setenv(f"{scheme}_proxy", proxy)
    with pytest.raises(LLMClientError, match="unsupported proxy scheme"):
        LLMClient(f"{scheme}://127.0.0.1:1/v1", "m")


@pytest.mark.parametrize(
    "url, proxy, peer, tls_host, tunnel",
    [
        ("http://h/v1", "http://p", ("p", 80), None, None),
        ("http://h/v1", "p:3128", ("p", 3128), None, None),
        ("http://h/v1", "https://p", ("p", 443), "p", None),
        ("https://h/v1", "http://p", ("p", 443), "h",
         b"CONNECT h:443 HTTP/1.1\r\nHost: h:443\r\n\r\n"),
        ("https://h:8443/v1", "https://p:3128", ("p", 3128), "h",
         b"CONNECT h:8443 HTTP/1.1\r\nHost: h:8443\r\n\r\n"),
        ("https://[::1]:8443/v1", "p:3128", ("p", 3128), "::1",
         b"CONNECT [::1]:8443 HTTP/1.1\r\nHost: [::1]:8443\r\n\r\n"),
    ],
)
def test_where_a_proxied_connection_goes(monkeypatch, url, proxy, peer, tls_host, tunnel):
    """The peer (a proxy without a port takes the default port of the
    connection urllib would make), the host TLS verifies, and the CONNECT."""
    clear_proxies(monkeypatch)
    split = urllib.parse.urlsplit(url)
    monkeypatch.setenv(f"{split.scheme}_proxy", proxy)
    transport = Transport(split, 5, {})
    assert (transport._peer, transport._tls_host, transport._tunnel) == (peer, tls_host, tunnel)
