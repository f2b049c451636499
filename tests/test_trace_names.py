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

# The benchmark's set-up records split answers by calling lumberkit directly
# (perfbench/child.py's "record" step); run that step on a small generated book.
_RECORD_PROBE = """
import json, random, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import child, gen
work = Path(sys.argv[2])
records = work / "book.jsonl"
with open(records, "w", encoding="utf-8") as fh:
    for index, text in enumerate(gen.make_book(random.Random(1), 40), start=1):
        fh.write(json.dumps({"doc_id": "book", "index": index, "text": text}) + "\\n")
cache = work / "split-cache.jsonl"
step = {"document": str(records), "cache": str(cache), "seed": 1, "theta": 550}
assert child._record(step) == 0
assert cache.read_text(encoding="utf-8").count("\\n") > 1, "no split answers recorded"
"""

# Trace mode's hooks read positional arguments (a backend's prompt is args[1],
# lumberchunk's config args[1]); run a traced scripted `chunk` and `rag`, and check
# that each rag stage the trace patches is still called where it is patched.
_TRACED_RUN_PROBE = """
import json, random, re, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import gen, tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from lumberkit import backends, cli

def reply(prompt):
    ids = re.findall(r"^ID (\\d+):", prompt, re.MULTILINE)
    if ids:
        return f"Answer: ID {ids[-1]}"
    return "2, 1" if prompt.startswith("Order the numbered") else "an answer"

cli._completion_backend = lambda args, needed_for: backends.ScriptedBackend(reply)
work = Path(sys.argv[2])
paragraphs = gen.make_book(random.Random(1), 40)
book = work / "book.jsonl"
with open(book, "w", encoding="utf-8") as fh:
    for index, text in enumerate(paragraphs, start=1):
        fh.write(json.dumps({"doc_id": "book", "index": index, "text": text}) + "\\n")
qa = work / "qa.jsonl"
gen.write_qa(gen.make_qa(random.Random(2), {"book": paragraphs}, 3), qa)
assert cli.main(["chunk", "--document", str(book), "--method", "lumber",
                 "--output-dir", str(work / "lumber")]) == 0
assert cli.main(["rag", "--chunks", str(work / "lumber" / "chunks.jsonl"), "--questions", str(qa),
                 "--output-dir", str(work / "rag")]) == 0
folded = tracing.fold([tracer.to_record()])
for name in ("chunker.lumberchunk", "index.bm25_build", "backends.scripted_complete",
             "ragpipe.answer_question", "ragpipe.detect_mentions", "ragpipe.hybrid_retrieve",
             "ragpipe.rerank"):
    assert folded.get(name, {}).get("calls", 0) > 0, f"no {name} span"
assert tracer.counts.get("chunker.split_requests", 0) > 0, tracer.counts
assert tracer.counts.get("ragpipe.rerank_prompt_tokens", 0) > 0, tracer.counts
"""

# Trace mode counts the relevance judge where build_runs looks it up; run a
# traced `eval` and compare the count with the (chunk, question) pairs judged:
# each ranking is scanned down to its gold rank, or to its end.
_TRACED_EVAL_PROBE = """
import json, random, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import gen, tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from lumberkit import cli, evaluation

runs = []
traced_build_runs = evaluation.build_runs

def build_runs(*args, **kwargs):
    found = traced_build_runs(*args, **kwargs)
    runs.extend(found)
    return found

evaluation.build_runs = build_runs
work = Path(sys.argv[2])
paragraphs = gen.make_book(random.Random(1), 40)
book = work / "book.jsonl"
with open(book, "w", encoding="utf-8") as fh:
    for index, text in enumerate(paragraphs, start=1):
        fh.write(json.dumps({"doc_id": "book", "index": index, "text": text}) + "\\n")
qa = work / "qa.jsonl"
gen.write_qa(gen.make_qa(random.Random(2), {"book": paragraphs}, 6), qa)
assert cli.main(["chunk", "--document", str(book), "--method", "paragraph",
                 "--output-dir", str(work / "chunks")]) == 0
assert cli.main(["eval", "--chunks", str(work / "chunks" / "chunks.jsonl"), "--qa", str(qa),
                 "--output-dir", str(work / "eval")]) == 0
judged = sum(run.gold_rank or len(run.ranked_chunks) for run in runs)
assert len(runs) == 6, runs
assert judged > 0
assert tracer.calls["evaluation.judge_relevance"][0] == judged, (tracer.calls, judged)
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


def test_record_step_runs_against_the_library(tmp_path):
    src = str(Path(lumberkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", _RECORD_PROBE, str(PERFBENCH), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr


def test_traced_scripted_chunk_and_rag_record_their_spans(tmp_path):
    src = str(Path(lumberkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN_PROBE, str(PERFBENCH), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr


def test_traced_eval_counts_every_judged_pair(tmp_path):
    src = str(Path(lumberkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", _TRACED_EVAL_PROBE, str(PERFBENCH), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
