"""Run one plan of lumberkit steps in this (fresh) interpreter.

    python3 perfbench/child.py PLAN.json

The plan names the checkout root, whether to trace, where to write the
result and an ordered list of steps:

- {"kind": "cli", "argv": [...]}: lumberkit.cli.main(argv), in-process,
  with its stdout discarded;
- {"kind": "record", "document": ..., "cache": ..., "seed": n, "theta": t}:
  lumberchunk the document at theta through a ResponseCache, answered by
  the simulated endpoint's Replier in-process (no HTTP);
- {"kind": "concat", "sources": [...], "target": ...}: concatenate files.

The result JSON holds the seconds taken to import lumberkit, each step's
seconds and exit code and the interpreter's peak RSS. With tracing on, the
span store is written to the plan's trace path when the steps are done.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_lumberkit(root: Path):
    sys.path.insert(0, str(root / "src"))
    import lumberkit
    from lumberkit import cli

    source = Path(lumberkit.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise ImportError(f"lumberkit imported from {source}, not from {root / 'src'}")
    return cli


def _record(step: dict) -> int:
    from endpoint import Replier
    from lumberkit import backends, chunker, corpus

    replier = Replier(step["seed"])

    def reply(prompt: str) -> str:
        text = replier.reply(prompt)
        if text is None:
            raise backends.BackendError("the simulated endpoint rejected the prompt")
        return text

    document = corpus.load_document(step["document"], "paragraph_records")
    chunker.lumberchunk(
        document,
        chunker.ChunkerConfig(theta=step["theta"]),
        backends.ScriptedBackend(reply),
        cache=backends.ResponseCache(step["cache"]),
    )
    return 0


def _run_step(step: dict, cli, tracer) -> int:
    kind = step["kind"]
    if kind == "concat":
        with open(step["target"], "wb") as target:
            for source in step["sources"]:
                target.write(Path(source).read_bytes())
        return 0
    if kind == "record":
        return _record(step)
    if kind != "cli":
        raise ValueError(f"unknown step kind {kind!r}")
    main = cli.main
    if tracer is not None:
        command = next(a for a in step["argv"] if not a.startswith("-"))
        main = tracer.span(f"cli.{command}", main)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return main(step["argv"])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    started = time.perf_counter()
    cli = _import_lumberkit(Path(plan["root"]))
    import_seconds = time.perf_counter() - started
    tracer = None
    if plan.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    steps = []
    for step in plan["steps"]:
        started = time.perf_counter()
        try:
            code = _run_step(step, cli, tracer)
        except Exception:
            traceback.print_exc()
            code = 99
        steps.append({"name": step["name"], "seconds": time.perf_counter() - started, "exit": code})
        if code != 0:
            break
    result = {
        "import_s": import_seconds,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        Path(plan["trace_out"]).write_text(json.dumps(tracer.to_record()), encoding="utf-8")
    Path(plan["result_out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
