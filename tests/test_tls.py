"""The client over HTTPS: the mock server behind TLS, with a test-only CA
and localhost certificate from tests/data/tls (see its README)."""

import logging
import socket
import ssl

import pytest

from kpagg import llm_client
from kpagg.llm_client import LLMClient
from kpagg.mock_server import running_server
from kpagg.prompting import build_prompt

from .conftest import MOCK_FIXTURES
from .oracles import DATA_DIR

TLS_DIR = DATA_DIR / "tls"
HANDSHAKE = b"\x16"  # the first byte of every TLS connection (a handshake record)


@pytest.fixture()
def tls_server(monkeypatch):
    """The mock server behind TLS: its https URL, its plain http URL, and
    the first byte of every connection it accepted."""
    for name in ("https_proxy", "HTTPS_PROXY", "http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    context.load_cert_chain(TLS_DIR / "localhost.pem", TLS_DIR / "localhost-key.pem")
    serving = running_server(MOCK_FIXTURES)
    accept = serving.server.get_request
    first_bytes = []

    def get_request():
        sock, address = accept()
        sock.settimeout(5)
        try:
            # peeked before the handshake, so a plain-HTTP request shows too
            first_bytes.append(sock.recv(1, socket.MSG_PEEK))
            return context.wrap_socket(sock, server_side=True), address
        except OSError:  # a failed handshake drops the connection
            sock.close()
            raise

    serving.server.get_request = get_request
    with serving as url:
        yield url.replace("http://", "https://"), url, first_bytes


@pytest.fixture()
def prompt(toy_docs, prompt_cfg):
    return build_prompt(toy_docs[0], "baseline", prompt_cfg)


@pytest.fixture()
def failures(monkeypatch, caplog):
    """The client's connection-error warnings, with one retry and no wait."""
    monkeypatch.setattr(llm_client, "MAX_RETRIES", 1)
    monkeypatch.setattr(llm_client.time, "sleep", lambda s: None)
    caplog.set_level(logging.WARNING, logger="kpagg.llm_client")
    return lambda: [r.getMessage() for r in caplog.records if "connection error" in r.getMessage()]


def fetch(url, prompt, indices):
    client = LLMClient(url, "m", request_mode="per-request")
    try:
        return list(client.sample_completions(
            prompt, doc_id="d", indices=indices, temperature=0.7, max_tokens=50
        ))
    finally:
        client.close()


def test_trusted_certificate_keeps_one_connection(tls_server, prompt, monkeypatch):
    https, _, first_bytes = tls_server
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DIR / "ca.pem"))
    samples = fetch(https, prompt, [0, 1, 2])
    assert [s.sample_index for s in samples] == [0, 1, 2]
    assert first_bytes == [HANDSHAKE]  # three requests, one kept-alive connection


def test_untrusted_certificate_is_a_connection_error(tls_server, prompt, failures):
    # the environment's own trust store does not hold the test CA
    https, _, first_bytes = tls_server
    assert fetch(https, prompt, [0, 1]) == []
    messages = failures()
    assert len(messages) == 4  # two samples, each sent twice
    assert all("CERTIFICATE_VERIFY_FAILED" in m for m in messages)
    # no attempt fell back to plain HTTP
    assert first_bytes == [HANDSHAKE] * 4


def test_plain_http_request_is_seen_by_the_server(tls_server, prompt, failures):
    # the check above would catch a fallback: a plain request starts "POST"
    _, http, first_bytes = tls_server
    assert fetch(http, prompt, [0]) == []
    assert len(failures()) == 2
    assert first_bytes == [b"P"] * 2
