"""numpy is the only runtime dependency (see pyproject.toml), and no stdlib HTTP stack
or IDNA codec loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lumberkit

# Run in a fresh interpreter: the test process has already imported pytest,
# hypothesis and whatever else the other tests pulled in.
_PROBE = """
import json, sys
before = set(sys.modules)
import lumberkit, lumberkit.cli
from lumberkit import backends
backends.HTTP_ATTEMPTS = 1
try:
    backends.HttpCompletionBackend("http://127.0.0.1:9/v1", "m").complete("hi")
except backends.BackendError:
    pass  # refused: nothing listens there
http_stack = sorted({"ssl", "http.client", "email", "urllib.request"} & set(sys.modules))
idna = sorted({"encodings.idna", "stringprep", "unicodedata"} & set(sys.modules))
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
third_party = sorted(loaded - set(sys.stdlib_module_names) - {"lumberkit"})
from importlib import metadata  # only now: it imports email
owners = metadata.packages_distributions()
print(json.dumps([{name: owners.get(name, []) for name in third_party}, http_stack, idna]))
"""


def test_import_loads_only_numpy():
    src = str(Path(lumberkit.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        # the proxy lookup must not pull in urllib.request
        "HTTP_PROXY": "http://127.0.0.1:9",
        "NO_PROXY": "localhost",
    }
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert probe.returncode == 0, probe.stderr
    loaded, http_stack, idna = json.loads(probe.stdout)
    assert list(loaded) == ["numpy"], f"third-party modules loaded besides numpy: {loaded}"
    # together they cost 2.7 MB of RSS, and the HTTP client speaks HTTP/1.1 itself
    assert http_stack == [], f"an http:// backend loaded {http_stack}"
    # a str host makes getaddrinfo import the IDNA codec: +0.17 MB of RSS per process
    assert idna == [], f"an http:// connection loaded {idna}"
