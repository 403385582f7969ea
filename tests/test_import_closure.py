"""Importing the CLI and the harness loads no third-party HTTP library, and
importing the harness loads no YAML parser (only YAML files need one)."""

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
import {modules}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def newly_loaded(modules: str) -> set[str]:
    """Top-level names of the modules that `import <modules>` loads."""
    src = str(Path(kpagg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CHECK.format(modules=modules)],
        env=env, capture_output=True, text=True, check=True,
    )
    return {name.split(".")[0] for name in json.loads(out.stdout)}


def test_cli_and_harness_load_no_http_library():
    loaded = newly_loaded("kpagg.cli, kpagg.harness")
    assert "kpagg" in loaded
    assert not loaded & HTTP_LIBRARIES


def test_harness_loads_no_yaml():
    loaded = newly_loaded("kpagg.harness")
    assert "kpagg" in loaded
    assert "yaml" not in loaded
