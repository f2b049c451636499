"""The benchmark's trace mode patches lumberkit names that must keep existing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import lumberkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Run in a fresh interpreter: install() patches lumberkit's modules in place.
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
tracing.install(tracing.Tracer())
"""


def test_trace_mode_finds_every_patched_name():
    src = str(Path(lumberkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PERFBENCH)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
