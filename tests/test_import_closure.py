"""Importing the CLI and the harness loads no third-party HTTP library;
importing the CLI loads no CLI framework beside `argparse`, and no `inspect`;
importing the harness, or an offline replay, loads neither the standard
library's HTTP stack nor a thread pool, and a replay starts no thread;
neither loads `dataclasses` or `inspect` either (kpagg's records are
NamedTuples, which make no class from generated source); importing the
harness loads no YAML parser (only YAML files need one); aggregation works
on normalized phrases alone, without the client or the prompts; the mock
server shares no code with the client's transport; and a cold
run over direct `http://` loads no `http.client`, `email`, `ssl`,
`urllib.request` or `base64`, not even when a malformed answer there is
retried."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import kpagg
from kpagg import harness
from kpagg.mock_server import running_server

from .conftest import EXPECTED_REPORT, MOCK_FIXTURES, TOY_CORPUS
from .test_transport import ANSWERS, _RawServer

HTTP_LIBRARIES = {"requests", "urllib3", "charset_normalizer", "idna", "certifi"}
# Only a run with an endpoint needs these; `urllib` and `http` packages may
# be loaded for other reasons, so full names are compared.
ONLINE_ONLY = {"http.client", "urllib.request", "ssl", "concurrent.futures"}
# What a dataclass costs at start-up: the module, and the `inspect` (with
# `ast`, `dis` and `tokenize`) that it imports.
DATACLASS_MACHINERY = {"dataclasses", "inspect"}
# What a run over direct `http://` does not drive: `email.parser` stands for
# the `email` package that `http.client` imports, and `base64` encodes only
# proxy credentials.
DIRECT_HTTP_UNUSED = {
    "http.client", "email.parser", "ssl", "urllib.request", "urllib.error", "base64"
}

# Modules the interpreter loaded before kpagg (site hooks may load certifi)
# are not kpagg's doing, so only the newly loaded ones are checked.
CHECK = """
import json, sys
before = set(sys.modules)
import {modules}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# An offline replay in a fresh interpreter: the modules it loads, kpagg's
# import included, and the threads it starts.
REPLAY = """
import json, sys, threading
before = set(sys.modules)
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))
from kpagg import harness
summary = harness.run(harness.RunConfig(
    corpus_path=sys.argv[1], cache_dir=sys.argv[2], out=sys.argv[3], offline=True
))
print(json.dumps({
    "loaded": sorted(set(sys.modules) - before),
    "started": started,
    "hits": summary.cache_hits,
}))
"""

# A cold run in a fresh interpreter against an endpoint: the modules it
# loads, kpagg's import included.
COLD = """
import json, sys
before = set(sys.modules)
from kpagg import harness
summary = harness.run(harness.RunConfig(
    corpus_path=sys.argv[1], endpoint=sys.argv[2], cache_dir=sys.argv[3], out=sys.argv[4]
))
print(json.dumps({
    "loaded": sorted(set(sys.modules) - before),
    "misses": summary.cache_misses,
}))
"""

# One POST with no wait between attempts: the body it gives, its warnings,
# and the modules it loads, kpagg's import included.
POST = """
import json, logging, sys
before = set(sys.modules)
from kpagg import llm_client
warnings = []
handler = logging.Handler()
handler.emit = lambda record: warnings.append(record.getMessage())
llm_client.log.addHandler(handler)
llm_client.BACKOFF_BASE_S = 0
client = llm_client.LLMClient(sys.argv[1], "m")
body = client._post_with_retries(b"{}")
client.close()
print(json.dumps({
    "body": body,
    "warnings": warnings,
    "loaded": sorted(set(sys.modules) - before),
}))
"""


def _python(*args: str) -> str:
    """The output of a fresh interpreter that imports kpagg from this tree;
    no proxy variable reaches it, so its sends go direct."""
    src = str(Path(kpagg.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def newly_loaded(modules: str) -> set[str]:
    """Full names of the modules that `import <modules>` loads."""
    return set(json.loads(_python("-c", CHECK.format(modules=modules))))


def top_level(names: set[str]) -> set[str]:
    return {name.split(".")[0] for name in names}


def test_cli_and_harness_load_no_http_library():
    loaded = top_level(newly_loaded("kpagg.cli, kpagg.harness"))
    assert "kpagg" in loaded
    assert not loaded & HTTP_LIBRARIES


def test_cli_loads_no_click_or_inspect():
    loaded = newly_loaded("kpagg.cli")
    assert "kpagg.cli" in loaded
    assert not loaded & {"click", "inspect"}


def test_harness_loads_no_yaml():
    loaded = newly_loaded("kpagg.harness")
    assert "kpagg" in loaded
    assert "yaml" not in top_level(loaded)


def test_harness_loads_no_http_stack_or_thread_pool():
    loaded = newly_loaded("kpagg.harness")
    assert "kpagg.harness" in loaded
    assert not loaded & ONLINE_ONLY


def test_harness_loads_no_dataclass_machinery():
    loaded = newly_loaded("kpagg.harness")
    assert "kpagg.harness" in loaded
    assert not loaded & DATACLASS_MACHINERY


def test_aggregation_loads_neither_client_nor_prompting():
    loaded = newly_loaded("kpagg.aggregation")
    assert "kpagg.aggregation" in loaded
    assert not loaded & {"kpagg.llm_client", "kpagg.prompting"}


def test_mock_server_loads_no_client_transport():
    loaded = newly_loaded("kpagg.mock_server")
    assert "kpagg.mock_server" in loaded
    assert "kpagg.transport" not in loaded


def test_offline_replay_loads_no_http_stack_and_starts_no_thread(tmp_path):
    cache_dir = tmp_path / "cache"
    with running_server(MOCK_FIXTURES) as url:
        harness.run(harness.RunConfig(
            corpus_path=str(TOY_CORPUS), endpoint=url, cache_dir=str(cache_dir)
        ))
    out = tmp_path / "replay.csv"
    result = json.loads(_python("-c", REPLAY, str(TOY_CORPUS), str(cache_dir), str(out)))
    assert result["hits"] == 50
    assert out.read_bytes() == EXPECTED_REPORT.read_bytes()
    assert not set(result["loaded"]) & ONLINE_ONLY
    assert not set(result["loaded"]) & DATACLASS_MACHINERY
    assert result["started"] == []


def test_direct_http_cold_run_loads_no_unused_http_code(tmp_path):
    out = tmp_path / "cold.csv"
    with running_server(MOCK_FIXTURES) as url:
        result = json.loads(_python(
            "-c", COLD, str(TOY_CORPUS), url, str(tmp_path / "cache"), str(out)
        ))
    assert result["misses"] == 50
    assert out.read_bytes() == EXPECTED_REPORT.read_bytes()
    assert "kpagg.transport" in result["loaded"]
    assert not set(result["loaded"]) & DIRECT_HTTP_UNUSED


def test_malformed_answer_is_retried_when_http_client_was_not_loaded():
    server = _RawServer([ANSWERS["bad-protocol-name"]])
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        result = json.loads(_python("-c", POST, server.url))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert result["body"] == {}
    (warning,) = result["warnings"]
    assert "connection error: HTZP/1.1 200 OK" in warning
    assert "retry 1/" in warning
    assert "kpagg.transport" in result["loaded"]
    assert not set(result["loaded"]) & DIRECT_HTTP_UNUSED
    assert server.connections == 2
