"""Importing the CLI and the harness loads no third-party HTTP library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import kpagg

HTTP_LIBRARIES = {"requests", "urllib3", "charset_normalizer", "idna", "certifi"}

# Modules the interpreter loaded before kpagg (site hooks may load certifi)
# are not kpagg's doing, so only the newly loaded ones are checked.
CHECK = """
import json, sys
before = set(sys.modules)
import kpagg.cli, kpagg.harness
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_and_harness_load_no_http_library():
    src = str(Path(kpagg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CHECK], env=env, capture_output=True, text=True, check=True
    )
    loaded = {name.split(".")[0] for name in json.loads(out.stdout)}
    assert "kpagg" in loaded
    assert not loaded & HTTP_LIBRARIES
