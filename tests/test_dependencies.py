"""numpy is the only runtime dependency (see pyproject.toml)."""

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
from importlib import metadata
before = set(sys.modules)
import lumberkit, lumberkit.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
third_party = sorted(loaded - set(sys.stdlib_module_names) - {"lumberkit"})
owners = metadata.packages_distributions()
print(json.dumps({name: owners.get(name, []) for name in third_party}))
"""


def test_import_loads_only_numpy():
    src = str(Path(lumberkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert probe.returncode == 0, probe.stderr
    loaded = json.loads(probe.stdout)
    assert list(loaded) == ["numpy"], f"third-party modules loaded besides numpy: {loaded}"
