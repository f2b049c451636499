"""The benchmark's three workloads: inputs, set-up, timed phase and checks.

Every workload is a closed loop with one caller, the way the CLI processes
documents and questions. Each step list is run by child.py in a fresh
interpreter; ENDPOINT in an argv stands for the simulated endpoint's URL.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gen
from endpoint import prompt_tokens

ENDPOINT = "{endpoint}"
THETAS = ("450", "550", "650", "1000")
KS = ("1", "2", "5", "10", "20")
BASELINES = ("paragraph", "recursive", "semantic")
METHODS = (*BASELINES, "lumber")

SWEEP_DOCUMENTS = 4
SWEEP_PARAGRAPHS = 150
SWEEP_QUESTIONS = 100
BOOK_PARAGRAPHS = 1000
EVAL_QUESTIONS = 100
RAG_QUESTIONS = 200


def _cli(name: str, *argv: str) -> dict:
    return {"name": name, "kind": "cli", "argv": ["--quiet", *argv]}


def _collect(name: str, sources: list[Path], target: Path) -> dict:
    return {
        "name": name,
        "kind": "concat",
        "sources": [str(source) for source in sources],
        "target": str(target),
    }


def _live(*argv: str) -> tuple[str, ...]:
    return (*argv, "--backend-url", ENDPOINT, "--model", "sim")


def doc_tokens(paragraphs: list[str]) -> int:
    return sum(prompt_tokens(text) for text in paragraphs)


def digest_file(path: Path, drop: tuple[str, ...] = ()) -> str:
    """sha256 of a file; for JSONL files, the fields in drop are removed first."""
    data = path.read_bytes()
    if drop:
        rows = []
        for line in data.decode("utf-8").splitlines():
            record = json.loads(line)
            for key in drop:
                record.pop(key, None)
            rows.append(json.dumps(record, ensure_ascii=False, sort_keys=True))
        data = "\n".join(rows).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def partition_ok(chunks: list[dict], paragraphs: int) -> bool:
    expected = 1
    for chunk in sorted(chunks, key=lambda c: c["start_para"]):
        if chunk["start_para"] != expected or chunk["end_para"] < chunk["start_para"]:
            return False
        expected = chunk["end_para"] + 1
    return expected == paragraphs + 1


@dataclass
class Outcome:
    """What one timed repeat produced, as the checks and metrics read it."""

    checks: dict[str, bool] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)


class Workload:
    name = ""
    uses_endpoint = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.setup_dir = work / "setup"
        self.run_dir = work / "run"
        self.paragraphs: dict[str, list[str]] = {}

    def generate(self) -> None:
        """Write the seeded inputs; called before the set-up clock starts."""
        raise NotImplementedError

    def endpoint_qa(self) -> Path | None:
        return None

    def setup_steps(self) -> list[dict]:
        raise NotImplementedError

    def timed_steps(self) -> list[dict]:
        raise NotImplementedError

    def outcome(self, steps: list[dict], stats: dict | None) -> Outcome:
        raise NotImplementedError

    def _write_book(self, doc_id: str, count: int, rng: random.Random) -> None:
        paragraphs = gen.make_book(rng, count)
        gen.write_book(paragraphs, self.inputs / f"{doc_id}.txt")
        self.paragraphs[doc_id] = paragraphs

    def _ingest(self, doc_id: str) -> dict:
        return _cli(
            f"ingest {doc_id}",
            "ingest",
            "--input", str(self.inputs / f"{doc_id}.txt"),
            "--output", str(self.setup_dir / f"{doc_id}.jsonl"),
        )

    def _record(self, doc_id: str) -> dict:
        return {
            "name": f"record {doc_id}",
            "kind": "record",
            "document": str(self.setup_dir / f"{doc_id}.jsonl"),
            "cache": str(self.setup_dir / "split-cache.jsonl"),
            "seed": self.seed,
            "theta": 550,
        }

    def _lumber_checks(self, path: Path, doc_id: str) -> dict[str, bool]:
        return {"lumber spans partition the document": partition_ok(
            read_jsonl(path), len(self.paragraphs[doc_id])
        )}

    def _recursive_checks(self, path: Path) -> dict[str, bool]:
        texts: dict[str, list[str]] = {doc_id: [] for doc_id in self.paragraphs}
        for chunk in read_jsonl(path):
            texts[chunk["doc_id"]].append(chunk["text"])
        return {
            f"recursive chunks concatenate to {doc_id}": "".join(texts[doc_id])
            == "\n\n".join(paragraphs)
            for doc_id, paragraphs in self.paragraphs.items()
        }

    def _eval_step(self, methods: tuple[str, ...]) -> dict:
        return _cli(
            "eval",
            "eval",
            "--chunks", *(str(self.run_dir / f"{m}.jsonl") for m in methods),
            "--qa", str(self.inputs / "qa.jsonl"),
            "--ks", *KS,
            "--output-dir", str(self.run_dir / "eval"),
        )

    def _eval_outcome(self, out: "Outcome", methods: tuple[str, ...]) -> dict[str, dict]:
        """Digest the chunk files and eval reports; returns report rows by method."""
        for method in methods:
            out.digests[f"{method}.jsonl"] = digest_file(self.run_dir / f"{method}.jsonl")
        reports = self.run_dir / "eval" / "reports.jsonl"
        out.digests["eval/reports.jsonl"] = digest_file(reports, drop=("chunking_seconds",))
        out.checks.update(self._recursive_checks(self.run_dir / "recursive.jsonl"))
        rows = {row["method"]: row for row in read_jsonl(reports)}
        out.checks["eval reports one row per method"] = sorted(rows) == sorted(methods)
        return rows


class SweepSim(Workload):
    """The paper's experiment: the theta sweep plus the baseline rows."""

    name = "sweep-sim"
    uses_endpoint = True

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.inputs.mkdir(parents=True)
        for i in range(SWEEP_DOCUMENTS):
            self._write_book(f"doc{i}", SWEEP_PARAGRAPHS, rng)
        gen.write_qa(gen.make_qa(rng, self.paragraphs, SWEEP_QUESTIONS), self.inputs / "qa.jsonl")

    def setup_steps(self) -> list[dict]:
        return [self._ingest(doc_id) for doc_id in sorted(self.paragraphs)]

    def timed_steps(self) -> list[dict]:
        documents = [self.setup_dir / f"{d}.jsonl" for d in sorted(self.paragraphs)]
        steps = [_cli(
            "sweep",
            *_live(
                "sweep",
                "--documents", *map(str, documents),
                "--qa", str(self.inputs / "qa.jsonl"),
                "--thetas", *THETAS,
                "--output-dir", str(self.run_dir / "sweep"),
                "--record-cache", str(self.run_dir / "cache.jsonl"),
            ),
        )]
        for method in BASELINES:
            parts = []
            for document in documents:
                out_dir = self.run_dir / method / document.stem
                steps.append(_cli(
                    f"chunk {method} {document.stem}",
                    "chunk", "--document", str(document), "--method", method,
                    "--output-dir", str(out_dir),
                ))
                parts.append(out_dir / "chunks.jsonl")
            steps.append(_collect(f"collect {method}", parts, self.run_dir / f"{method}.jsonl"))
        steps.append(self._eval_step(BASELINES))
        return steps

    def outcome(self, steps: list[dict], stats: dict | None) -> Outcome:
        out = Outcome()
        reports = self.run_dir / "sweep" / "reports.jsonl"
        out.digests["sweep/reports.jsonl"] = digest_file(reports, drop=("chunking_seconds",))
        self._eval_outcome(out, BASELINES)
        chunked = doc_tokens([p for ps in self.paragraphs.values() for p in ps]) * len(THETAS)
        out.metrics["llm_calls"] = (stats["requests"], "count")
        out.metrics["prompt_tokens_per_doc_token"] = (stats["prompt_tokens"] / chunked, "ratio")
        chunking = sum(r["chunking_seconds"] for r in read_jsonl(reports))
        paragraphs = sum(len(ps) for ps in self.paragraphs.values()) * len(THETAS)
        out.metrics["chunk_paragraphs_per_s"] = (paragraphs / chunking, "1/s")
        return out


class EvalReplay(Workload):
    """Record once, replay forever: four chunkers and one eval, CPU only."""

    name = "eval-replay"

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.inputs.mkdir(parents=True)
        self._write_book("book", BOOK_PARAGRAPHS, rng)
        gen.write_qa(gen.make_qa(rng, self.paragraphs, EVAL_QUESTIONS), self.inputs / "qa.jsonl")

    def setup_steps(self) -> list[dict]:
        return [self._ingest("book"), self._record("book")]

    def timed_steps(self) -> list[dict]:
        book = str(self.setup_dir / "book.jsonl")
        steps = []
        for method in METHODS:
            extra: tuple[str, ...] = ()
            if method == "lumber":
                extra = ("--theta", "550", "--replay-cache", str(self.setup_dir / "split-cache.jsonl"))
            out_dir = self.run_dir / method
            steps.append(_cli(
                f"chunk {method}",
                "chunk", "--document", book, "--method", method,
                "--output-dir", str(out_dir), *extra,
            ))
            # eval labels each report row by file stem, so name the files by method
            steps.append(_collect(
                f"collect {method}", [out_dir / "chunks.jsonl"], self.run_dir / f"{method}.jsonl"
            ))
        steps.append(self._eval_step(METHODS))
        return steps

    def outcome(self, steps: list[dict], stats: dict | None) -> Outcome:
        out = Outcome()
        rows = self._eval_outcome(out, METHODS)
        out.checks.update(self._lumber_checks(self.run_dir / "lumber.jsonl", "book"))
        if "lumber" in rows:
            out.quality["lumber_recall_at_10"] = rows["lumber"]["recall"]["10"]
        seconds = {s["name"]: s["seconds"] for s in steps}
        chunking = sum(seconds[f"chunk {m}"] for m in METHODS)
        paragraphs = len(self.paragraphs["book"]) * len(METHODS)
        out.metrics["chunk_paragraphs_per_s"] = (paragraphs / chunking, "1/s")
        questions = EVAL_QUESTIONS * len(METHODS)
        out.metrics["eval_questions_per_s"] = (questions / seconds["eval"], "1/s")
        return out


class RagSim(Workload):
    """Hybrid RAG over one book against the simulated endpoint."""

    name = "rag-sim"
    uses_endpoint = True

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.inputs.mkdir(parents=True)
        self._write_book("book", BOOK_PARAGRAPHS, rng)
        gen.write_qa(gen.make_qa(rng, self.paragraphs, RAG_QUESTIONS), self.inputs / "qa.jsonl")

    def endpoint_qa(self) -> Path | None:
        return self.inputs / "qa.jsonl"

    def setup_steps(self) -> list[dict]:
        return [
            self._ingest("book"),
            self._record("book"),
            _cli(
                "chunk lumber",
                "chunk", "--document", str(self.setup_dir / "book.jsonl"),
                "--method", "lumber", "--theta", "550",
                "--replay-cache", str(self.setup_dir / "split-cache.jsonl"),
                "--output-dir", str(self.setup_dir / "lumber"),
            ),
        ]

    def timed_steps(self) -> list[dict]:
        return [_cli(
            "rag",
            *_live(
                "rag",
                "--chunks", str(self.setup_dir / "lumber" / "chunks.jsonl"),
                "--questions", str(self.inputs / "qa.jsonl"),
                "--output-dir", str(self.run_dir / "rag"),
            ),
        )]

    def outcome(self, steps: list[dict], stats: dict | None) -> Outcome:
        out = Outcome()
        rag = self.run_dir / "rag"
        out.digests["chunks.jsonl"] = digest_file(self.setup_dir / "lumber" / "chunks.jsonl")
        out.digests["answers.jsonl"] = digest_file(rag / "answers.jsonl")
        out.digests["summary.json"] = digest_file(rag / "summary.json")
        out.checks.update(self._lumber_checks(self.setup_dir / "lumber" / "chunks.jsonl", "book"))
        answers = read_jsonl(rag / "answers.jsonl")
        out.checks["one answer per question"] = len(answers) == RAG_QUESTIONS
        summary = json.loads((rag / "summary.json").read_text(encoding="utf-8"))
        out.quality["qa_accuracy"] = summary["qa_accuracy"]
        out.metrics["llm_calls"] = (stats["requests"], "count")
        out.metrics["rag_questions_per_s"] = (RAG_QUESTIONS / steps[0]["seconds"], "1/s")
        return out


WORKLOADS = {w.name: w for w in (SweepSim, EvalReplay, RagSim)}
