"""End-to-end CLI tests; every command runs in-process through main()."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import threading
import time
from pathlib import Path

import pytest

from conftest import CountingBackend, FailingBackend, make_document, prompt_ids
from lumberkit import cli, parallel
from lumberkit.backends import (
    BackendError,
    CompletionBackend,
    MockEmbeddingBackend,
    ResponseCache,
    ScriptedBackend,
)
from lumberkit.baselines import HYDE_PROMPT_TEMPLATE, chunk_method_names, hyde_transform
from lumberkit.chunker import ChunkerConfig, lumberchunk, read_chunks, write_chunks
from lumberkit.cli import main
from lumberkit.corpus import QAPair, generate_qa, load_document, write_document, write_qa
from lumberkit.evaluation import evaluate, write_reports
from lumberkit.index import bm25_build, embed_chunks
from lumberkit.ragpipe import answer_question, qa_accuracy

from conftest import last_id_responder


@pytest.fixture()
def book_records(tmp_path) -> Path:
    document = make_document([40] * 12, doc_id="book")
    path = tmp_path / "book.jsonl"
    write_document(document, path)
    return path


@pytest.fixture()
def qa_file(tmp_path, book_records) -> Path:
    document = load_document(book_records, "paragraph_records")
    pairs = [
        QAPair("book", "first thing?", "a1", document.paragraphs[1].text),
        QAPair("book", "second thing?", "a2", document.paragraphs[7].text),
        QAPair("book", "third thing?", "a3", document.paragraphs[10].text),
    ]
    path = tmp_path / "qa.jsonl"
    write_qa(pairs, path)
    return path


def seed_lumber_cache(records: Path, cache_path: Path, thetas=(550,)) -> None:
    """Record scripted split answers for every prompt the CLI run will issue."""
    document = load_document(records, "paragraph_records")
    cache = ResponseCache(cache_path, model_id="default")
    for theta in thetas:
        lumberchunk(
            document,
            ChunkerConfig(theta=theta),
            ScriptedBackend(last_id_responder),
            cache=cache,
        )


class TestIngest:
    def test_plain_text_round_trip(self, tmp_path, capsys):
        source = tmp_path / "book.txt"
        source.write_text("First paragraph here.\n\nSecond one.\n\nThird one.\n", encoding="utf-8")
        out = tmp_path / "records.jsonl"
        code = main(["ingest", "--input", str(source), "--doc-id", "book", "--output", str(out)])
        assert code == 0
        document = load_document(out, "paragraph_records")
        assert len(document) == 3
        assert document.doc_id == "book"
        run_config = json.loads(out.with_name("records.jsonl.run.json").read_text())
        assert run_config["command"] == "ingest"
        assert "3 paragraph record(s)" in capsys.readouterr().out

    def test_line_separators_inside_a_paragraph_survive_chunking(self, tmp_path):
        source = tmp_path / "book.txt"
        source.write_text("One\u2028two.\n\nThree\u2029four\x85five.\n", encoding="utf-8")
        records = tmp_path / "records.jsonl"
        assert main(["ingest", "--input", str(source), "--output", str(records)]) == 0
        out_dir = tmp_path / "para"
        code = main(
            ["chunk", "--document", str(records), "--method", "paragraph", "--output-dir",
             str(out_dir)]
        )
        assert code == 0
        assert [chunk.text for chunk in read_chunks(out_dir / "chunks.jsonl")] == [
            "One\u2028two.",
            "Three\u2029four\x85five.",
        ]

    def test_doc_id_flag_overrides_paragraph_records(self, tmp_path, book_records):
        out = tmp_path / "renamed.jsonl"
        code = main(
            ["ingest", "--input", str(book_records), "--format", "paragraph_records",
             "--doc-id", "renamed", "--output", str(out)]
        )
        assert code == 0
        assert load_document(out, "paragraph_records").doc_id == "renamed"

    def test_missing_input_fails_with_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        code = main(["ingest", "--input", str(missing), "--output", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.txt" in err


class TestChunkCommand:
    def test_paragraph_method(self, tmp_path, book_records, capsys):
        out_dir = tmp_path / "para"
        code = main(
            [
                "chunk",
                "--document",
                str(book_records),
                "--method",
                "paragraph",
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        chunks = read_chunks(out_dir / "chunks.jsonl")
        assert len(chunks) == 12
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["count"] == 12
        assert stats["mean_tokens"] == pytest.approx(54.0)  # 40 words -> 54 tokens
        timing = json.loads((out_dir / "timing.json").read_text())
        assert timing["seconds"] >= 0.0
        run_config = json.loads((out_dir / "run_config.json").read_text())
        assert run_config["chunker"] == {"method": "paragraph"}
        assert "12 chunk(s)" in capsys.readouterr().out

    def test_deterministic_outputs_across_runs(self, tmp_path, book_records):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            assert (
                main(
                    [
                        "chunk",
                        "--document",
                        str(book_records),
                        "--method",
                        "paragraph",
                        "--output-dir",
                        str(out_dir),
                    ]
                )
                == 0
            )
        assert (dirs[0] / "chunks.jsonl").read_bytes() == (dirs[1] / "chunks.jsonl").read_bytes()
        assert (dirs[0] / "stats.json").read_bytes() == (dirs[1] / "stats.json").read_bytes()

    def test_recursive_method_respects_cap(self, tmp_path, book_records):
        out_dir = tmp_path / "rec"
        code = main(
            [
                "chunk",
                "--document",
                str(book_records),
                "--method",
                "recursive",
                "--max-tokens",
                "100",
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        chunks = read_chunks(out_dir / "chunks.jsonl")
        assert all(c.token_count <= 100 for c in chunks)
        document = load_document(book_records, "paragraph_records")
        assert "".join(c.text for c in chunks) == document.text

    def test_semantic_method_with_mock_embedder(self, tmp_path, book_records):
        out_dir = tmp_path / "sem"
        code = main(
            [
                "chunk",
                "--document",
                str(book_records),
                "--method",
                "semantic",
                "--percentile",
                "80",
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        chunks = read_chunks(out_dir / "chunks.jsonl")
        assert chunks[0].start_para == 1
        assert chunks[-1].end_para == 12
        for left, right in zip(chunks, chunks[1:]):
            assert right.start_para == left.end_para + 1

    def test_lumber_replays_from_cache_byte_identically(self, tmp_path, book_records):
        cache_path = tmp_path / "splits.jsonl"
        seed_lumber_cache(book_records, cache_path)
        dirs = [tmp_path / "l1", tmp_path / "l2"]
        for out_dir in dirs:
            code = main(
                [
                    "chunk",
                    "--document",
                    str(book_records),
                    "--method",
                    "lumber",
                    "--replay-cache",
                    str(cache_path),
                    "--output-dir",
                    str(out_dir),
                ]
            )
            assert code == 0
        assert (dirs[0] / "chunks.jsonl").read_bytes() == (dirs[1] / "chunks.jsonl").read_bytes()
        document = load_document(book_records, "paragraph_records")
        direct = lumberchunk(document, ChunkerConfig(), ScriptedBackend(last_id_responder))
        assert read_chunks(dirs[0] / "chunks.jsonl") == direct
        run_config = json.loads((dirs[0] / "run_config.json").read_text())
        assert run_config["backend"]["kind"] == "replay"
        assert run_config["chunker"]["theta"] == 550

    def test_lumber_without_backend_fails_fast(self, tmp_path, book_records, capsys):
        code = main(
            [
                "chunk",
                "--document",
                str(book_records),
                "--method",
                "lumber",
                "--output-dir",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--replay-cache" in err
        assert "--backend-url" in err

    def test_malformed_records_fail_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "d", "index": 1, "text": "ok"}\nnot json\n', encoding="utf-8")
        code = main(
            ["chunk", "--document", str(bad), "--method", "paragraph", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestEvalCommand:
    def make_chunk_files(self, tmp_path, book_records) -> list[Path]:
        document = load_document(book_records, "paragraph_records")
        para_path = tmp_path / "paragraph.jsonl"
        lumber_path = tmp_path / "lumber.jsonl"
        from lumberkit.baselines import paragraph_chunks

        write_chunks(paragraph_chunks(document), para_path)
        write_chunks(
            lumberchunk(document, ChunkerConfig(theta=200), ScriptedBackend(last_id_responder)),
            lumber_path,
        )
        return [para_path, lumber_path]

    def test_two_chunk_files_two_rows(self, tmp_path, book_records, qa_file, capsys):
        chunk_files = self.make_chunk_files(tmp_path, book_records)
        out_dir = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--chunks",
                *[str(p) for p in chunk_files],
                "--qa",
                str(qa_file),
                "--ks",
                "1",
                "5",
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "paragraph" in stdout and "lumber" in stdout
        assert "DCG@1" in stdout and "Recall@5" in stdout
        report_text = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert report_text.rstrip("\n") in stdout
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert [row["method"] for row in rows] == ["paragraph", "lumber"]
        assert all(row["ks"] == [1, 5] for row in rows)
        run_config = json.loads((out_dir / "run_config.json").read_text())
        assert run_config["ks"] == [1, 5]
        assert run_config["command"] == "eval"

    def test_matches_library_evaluation(self, tmp_path, book_records, qa_file):
        chunk_files = self.make_chunk_files(tmp_path, book_records)
        out_dir = tmp_path / "eval"
        main(
            [
                "eval",
                "--chunks",
                str(chunk_files[0]),
                "--qa",
                str(qa_file),
                "--output-dir",
                str(out_dir),
            ]
        )
        row = json.loads((out_dir / "reports.jsonl").read_text().splitlines()[0])
        document = load_document(book_records, "paragraph_records")
        from lumberkit.baselines import paragraph_chunks
        from lumberkit.corpus import load_qa

        expected = evaluate(
            paragraph_chunks(document),
            load_qa(qa_file),
            MockEmbeddingBackend(dimension=64, seed=0),
        )
        assert row["dcg"]["1"] == pytest.approx(expected.dcg[1])
        assert row["recall"]["20"] == pytest.approx(expected.recall[20])

    def test_hyde_label_and_replay(self, tmp_path, book_records, qa_file, capsys):
        chunk_files = self.make_chunk_files(tmp_path, book_records)
        document = load_document(book_records, "paragraph_records")
        cache = ResponseCache(tmp_path / "hyde.jsonl", model_id="default")
        from lumberkit.corpus import load_qa

        for pair in load_qa(qa_file):
            prompt = HYDE_PROMPT_TEMPLATE.format(query=pair.question)
            cache.put(prompt, document.paragraphs[1].text)
        out_dir = tmp_path / "hyde-eval"
        code = main(
            [
                "eval",
                "--chunks",
                str(chunk_files[0]),
                "--qa",
                str(qa_file),
                "--hyde",
                "--replay-cache",
                str(tmp_path / "hyde.jsonl"),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        assert "paragraph+hyde" in capsys.readouterr().out

    def test_hyde_without_backend_fails(self, tmp_path, book_records, qa_file, capsys):
        chunk_files = self.make_chunk_files(tmp_path, book_records)
        code = main(
            [
                "eval",
                "--chunks",
                str(chunk_files[0]),
                "--qa",
                str(qa_file),
                "--hyde",
                "--output-dir",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "--hyde needs a completion backend" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_theta_equals_chunk_plus_eval(self, tmp_path, book_records, qa_file):
        cache_path = tmp_path / "splits.jsonl"
        seed_lumber_cache(book_records, cache_path, thetas=(550,))
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--documents",
                str(book_records),
                "--qa",
                str(qa_file),
                "--thetas",
                "550",
                "--replay-cache",
                str(cache_path),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["theta"] == 550
        assert rows[0]["method"] == "lumberchunker(θ=550)"
        document = load_document(book_records, "paragraph_records")
        chunks = lumberchunk(document, ChunkerConfig(theta=550), ScriptedBackend(last_id_responder))
        from lumberkit.corpus import load_qa

        expected = evaluate(chunks, load_qa(qa_file), MockEmbeddingBackend(dimension=64, seed=0))
        assert rows[0]["dcg"] == {str(k): pytest.approx(v) for k, v in expected.dcg.items()}
        assert rows[0]["recall"] == {str(k): pytest.approx(v) for k, v in expected.recall.items()}

    def test_thetas_sorted_ascending(self, tmp_path, book_records, qa_file):
        cache_path = tmp_path / "splits.jsonl"
        seed_lumber_cache(book_records, cache_path, thetas=(450, 650))
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--documents",
                str(book_records),
                "--qa",
                str(qa_file),
                "--thetas",
                "650",
                "450",
                "--replay-cache",
                str(cache_path),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert [row["theta"] for row in rows] == [450, 650]

    def test_sweep_without_backend_fails(self, tmp_path, book_records, qa_file, capsys):
        code = main(
            [
                "sweep",
                "--documents",
                str(book_records),
                "--qa",
                str(qa_file),
                "--output-dir",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "sweep needs a completion backend" in capsys.readouterr().err


def seed_rag_cache(chunks, qa_pairs, cache_path: Path) -> None:
    """Record pipeline responses by dry-running each question in-process."""
    embedder = MockEmbeddingBackend(dimension=64, seed=0)
    vector_index = embed_chunks(chunks, embedder)
    bm25_index = bm25_build(chunks)

    def respond(prompt: str) -> str:
        if "Order the numbered documents" in prompt:
            return "2, 1, 3"
        return "A recorded answer."

    backend = CountingBackend(respond)
    for pair in qa_pairs:
        answer_question(pair.question, bm25_index, vector_index, embedder, backend)
    cache = ResponseCache(cache_path, model_id="default")
    for prompt in backend.prompts:
        cache.put(prompt, respond(prompt))


class TestRagCommand:
    @pytest.fixture()
    def rag_inputs(self, tmp_path, book_records):
        document = load_document(book_records, "paragraph_records")
        chunks = lumberchunk(
            document, ChunkerConfig(theta=200), ScriptedBackend(last_id_responder)
        )
        chunk_path = tmp_path / "chunks.jsonl"
        write_chunks(chunks, chunk_path)
        qa_pairs = [
            QAPair("book", "What did Joshua Haldeman study?", "chiropractic", "p1"),
            QAPair("book", "what happened next?", "nothing", "p2"),
        ]
        qa_path = tmp_path / "questions.jsonl"
        write_qa(qa_pairs, qa_path)
        cache_path = tmp_path / "rag-cache.jsonl"
        seed_rag_cache(chunks, qa_pairs, cache_path)
        return chunk_path, qa_path, cache_path

    def run_rag(self, rag_inputs, out_dir, command="rag"):
        chunk_path, qa_path, cache_path = rag_inputs
        return main(
            [
                command,
                "--chunks",
                str(chunk_path),
                "--questions",
                str(qa_path),
                "--replay-cache",
                str(cache_path),
                "--output-dir",
                str(out_dir),
            ]
        )

    def test_records_and_summary(self, tmp_path, rag_inputs, capsys):
        out_dir = tmp_path / "rag-out"
        assert self.run_rag(rag_inputs, out_dir) == 0
        records = [
            json.loads(line) for line in (out_dir / "answers.jsonl").read_text().splitlines()
        ]
        assert len(records) == 2
        assert records[0]["question"] == "What did Joshua Haldeman study?"
        assert records[0]["mentions"] == ["Joshua Haldeman"]
        assert records[0]["bm25_k"] == 3
        assert records[1]["bm25_k"] == 1
        assert all(record["answer"] == "A recorded answer." for record in records)
        assert all(len(record["retrieved"]) >= 1 for record in records)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["questions"] == 2
        assert 0.0 <= summary["qa_accuracy"] <= 100.0
        assert "qa_accuracy" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, tmp_path, rag_inputs):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for out_dir in dirs:
            assert self.run_rag(rag_inputs, out_dir) == 0
        for name in ("answers.jsonl", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_rag_answer_alias(self, tmp_path, rag_inputs):
        assert self.run_rag(rag_inputs, tmp_path / "alias-out", command="rag-answer") == 0


class TestGenQaCommand:
    def test_replayed_generation(self, tmp_path, book_records):
        document = load_document(book_records, "paragraph_records")

        def respond(prompt: str) -> str:
            excerpt = prompt.rsplit("Passage:", 1)[1].strip()
            supporting = " ".join(excerpt.split()[:10])
            return (
                "Question: What does the excerpt mention first?\n"
                f"Answer: It mentions {excerpt.split()[0]}.\n"
                f"Supporting Passage: {supporting}\n"
            )

        recorder = CountingBackend(respond)
        direct = generate_qa(document, recorder, 3, seed=11)
        cache = ResponseCache(tmp_path / "qa-cache.jsonl", model_id="default")
        for prompt in recorder.prompts:
            cache.put(prompt, respond(prompt))

        out = tmp_path / "generated.jsonl"
        code = main(
            [
                "gen-qa",
                "--document",
                str(book_records),
                "-n",
                "3",
                "--seed",
                "11",
                "--replay-cache",
                str(tmp_path / "qa-cache.jsonl"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        from lumberkit.corpus import load_qa

        loaded = load_qa(out)
        assert loaded == direct
        assert len(loaded) == 3
        run_config = json.loads(out.with_name("generated.jsonl.run.json").read_text())
        assert run_config["seed"] == 11
        assert run_config["inputs"]["n"] == 3

    def test_zero_samples(self, tmp_path, book_records, capsys):
        empty_cache = tmp_path / "empty.jsonl"
        empty_cache.write_text("", encoding="utf-8")
        out = tmp_path / "none.jsonl"
        code = main(
            [
                "gen-qa",
                "--document",
                str(book_records),
                "-n",
                "0",
                "--replay-cache",
                str(empty_cache),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "wrote 0 QA pair(s)" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == ""


class JitteredBackend(CompletionBackend):
    """Thread-safe scripted backend: replies are a pure function of the prompt,
    delayed by a few ms chosen from its hash so concurrent callers finish out
    of order. Raises BackendError on every call after fail_after calls."""

    def __init__(self, fail_after: int | None = None):
        self.fail_after = fail_after
        self.lock = threading.Lock()
        self.calls = 0

    @staticmethod
    def reply(prompt: str) -> str:
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        if "Order the numbered documents" in prompt:
            return f"{int(digest[0], 16) % 3 + 1}, 1, 2"
        return "a1" if digest[1] in "0123" else f"answer {digest[:8]}"

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        with self.lock:
            self.calls += 1
            failing = self.fail_after is not None and self.calls > self.fail_after
        time.sleep(int(hashlib.sha256(prompt.encode("utf-8")).hexdigest()[2], 16) / 3000)
        if failing:
            raise BackendError("connection refused")
        return self.reply(prompt)


class TestConcurrentRag:
    QUESTIONS = 60

    @pytest.fixture()
    def inputs(self, tmp_path, book_records, monkeypatch):
        monkeypatch.setattr(parallel, "WORKERS", 4)
        document = load_document(book_records, "paragraph_records")
        chunks = lumberchunk(document, ChunkerConfig(theta=120), ScriptedBackend(last_id_responder))
        chunk_path = tmp_path / "chunks.jsonl"
        write_chunks(chunks, chunk_path)
        pairs = [
            QAPair("book", f"What did Person{i % 7} see in part {i}?", "a1", "p")
            for i in range(self.QUESTIONS)
        ]
        qa_path = tmp_path / "questions.jsonl"
        write_qa(pairs, qa_path)
        return chunks, pairs, chunk_path, qa_path

    def run_rag(self, inputs, backend, out_dir, monkeypatch):
        _, _, chunk_path, qa_path = inputs
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        return main(
            [
                "rag", "--chunks", str(chunk_path), "--questions", str(qa_path),
                "--output-dir", str(out_dir),
            ]
        )

    def test_outputs_match_sequential_loop(self, tmp_path, inputs, monkeypatch):
        chunks, pairs, _, _ = inputs
        embedder = MockEmbeddingBackend(dimension=64, seed=0)
        vector_index = embed_chunks(chunks, embedder)
        bm25_index = bm25_build(chunks)
        backend = ScriptedBackend(JitteredBackend.reply)
        lines = []
        scored = []
        for pair in pairs:
            result = answer_question(pair.question, bm25_index, vector_index, embedder, backend)
            record = {
                "question": result.question,
                "mentions": list(result.decision.mention_strings),
                "bm25_k": result.decision.bm25_k,
                "retrieved": list(result.retrieved_ids),
                "answer": result.answer,
            }
            lines.append(json.dumps(record, ensure_ascii=False) + "\n")
            scored.append((result.answer, pair.answer))
        summary = {"qa_accuracy": qa_accuracy(scored), "questions": len(pairs)}
        assert 0.0 < summary["qa_accuracy"] < 100.0

        out_dir = tmp_path / "rag"
        assert self.run_rag(inputs, JitteredBackend(), out_dir, monkeypatch) == 0
        assert (out_dir / "answers.jsonl").read_text(encoding="utf-8") == "".join(lines)
        assert (out_dir / "summary.json").read_text(encoding="utf-8") == (
            json.dumps(summary, ensure_ascii=False, indent=2) + "\n"
        )

    def test_backend_dying_mid_run_stops_queued_questions(self, tmp_path, inputs, monkeypatch, capsys):
        backend = JitteredBackend(fail_after=6)
        code = self.run_rag(inputs, backend, tmp_path / "rag", monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert "error: " in err and "connection refused" in err
        assert "Traceback" not in err
        # two calls per question; in-flight questions may finish failing
        assert backend.calls <= 6 + 4 * parallel.WORKERS < 2 * self.QUESTIONS
        assert not (tmp_path / "rag" / "answers.jsonl").exists()

    def test_recording_run_resumes_after_the_backend_dies(
        self, tmp_path, inputs, monkeypatch, capsys
    ):
        _, _, chunk_path, qa_path = inputs
        cache_path = tmp_path / "rag.jsonl"
        uninterrupted = JitteredBackend()
        assert self.run_rag(inputs, uninterrupted, tmp_path / "uninterrupted", monkeypatch) == 0
        total = uninterrupted.calls

        def record(backend, out_dir):
            monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
            return main(
                [
                    "rag", "--chunks", str(chunk_path), "--questions", str(qa_path),
                    "--record-cache", str(cache_path), "--output-dir", str(out_dir),
                ]
            )

        assert record(JitteredBackend(fail_after=40), tmp_path / "died") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        match = re.search(r"resume from the (\d+) answers recorded in (.+)$", errors[0])
        assert match and match.group(2) == str(cache_path)
        recorded = int(match.group(1))
        assert 0 < recorded == len(ResponseCache(cache_path)) < total

        healthy = JitteredBackend()
        assert record(healthy, tmp_path / "resumed") == 0
        assert healthy.calls == total - recorded
        assert (tmp_path / "resumed" / "answers.jsonl").read_bytes() == (
            tmp_path / "uninterrupted" / "answers.jsonl"
        ).read_bytes()


def recordable_reply(prompt: str) -> str:
    """A pure reply to every prompt that rag, gen-qa, eval --hyde and
    chunk --method proposition send."""
    if prompt.startswith("You are given an excerpt"):
        excerpt = prompt.rsplit("Passage:", 1)[1].split()
        return (
            f"Question: What comes after {excerpt[0]}?\nAnswer: {excerpt[1]}\n"
            f"Supporting Passage: {' '.join(excerpt[:10])}"
        )
    if prompt.startswith("Rewrite the passage"):
        passage = prompt.rsplit("Passage:", 1)[1].split()
        return f"{' '.join(passage[:3])}.\n\n{' '.join(passage[3:7])}."
    return JitteredBackend.reply(prompt)


class TestRecordThenReplay:
    @pytest.mark.parametrize("command", ["rag", "gen-qa", "eval-hyde", "chunk-proposition"])
    def test_replay_alone_reproduces_the_recorded_outputs(
        self, tmp_path, book_records, qa_file, monkeypatch, command
    ):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[1]
        argv, outputs = {
            "rag": (
                ["rag", "--chunks", str(chunk_path), "--questions", str(qa_file)],
                ["answers.jsonl", "summary.json"],
            ),
            "gen-qa": (["gen-qa", "--document", str(book_records), "-n", "4"], ["qa.jsonl"]),
            "eval-hyde": (
                ["eval", "--chunks", str(chunk_path), "--qa", str(qa_file), "--hyde"],
                ["reports.jsonl"],
            ),
            "chunk-proposition": (
                ["chunk", "--document", str(book_records), "--method", "proposition"],
                ["chunks.jsonl"],
            ),
        }[command]

        def run(out_dir, *flags):
            if command == "gen-qa":
                flags = (*flags, "--output", str(out_dir / "qa.jsonl"))
            else:
                flags = (*flags, "--output-dir", str(out_dir))
            assert main([*argv, *flags]) == 0
            return {name: (out_dir / name).read_bytes() for name in outputs}

        cache_path = tmp_path / "recorded.jsonl"
        with monkeypatch.context() as patch:
            backend = ScriptedBackend(recordable_reply)
            patch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
            recorded = run(tmp_path / "record", "--record-cache", str(cache_path))
        assert all(recorded.values())
        assert len(ResponseCache(cache_path)) > 0
        assert run(tmp_path / "replay", "--replay-cache", str(cache_path)) == recorded


class TestRecordCacheFlag:
    def test_listed_in_run_config_when_used(self, tmp_path, book_records):
        record = tmp_path / "record.jsonl"
        seed_lumber_cache(book_records, tmp_path / "replay.jsonl")
        out = tmp_path / "out"
        code = main(
            [
                "chunk", "--document", str(book_records), "--method", "lumber",
                "--replay-cache", str(tmp_path / "replay.jsonl"),
                "--record-cache", str(record), "--output-dir", str(out),
            ]
        )
        assert code == 0
        assert record.exists()
        run_config = json.loads((out / "run_config.json").read_text())
        assert run_config["caches"]["completion"] == str(record)

    def test_paragraph_run_config_lists_no_completion_cache(self, tmp_path, book_records):
        out = tmp_path / "out"
        code = main(
            ["chunk", "--document", str(book_records), "--method", "paragraph", "--output-dir", str(out)]
        )
        assert code == 0
        assert json.loads((out / "run_config.json").read_text())["caches"]["completion"] is None


class TestUnusedCompletionFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chunk", "--document", "d.jsonl", "--method", "paragraph"],
            ["chunk", "--document", "d.jsonl", "--method", "recursive"],
            ["chunk", "--document", "d.jsonl", "--method", "semantic"],
            ["eval", "--chunks", "c.jsonl", "--qa", "q.jsonl"],
        ],
        ids=["chunk-paragraph", "chunk-recursive", "chunk-semantic", "eval"],
    )
    @pytest.mark.parametrize(
        "flag",
        [
            ("--replay-cache", "nothere.jsonl"),
            ("--backend-url", "http://127.0.0.1:9"),
            ("--model", "m"),
            ("--model-id", "m"),
            ("--record-cache", "record.jsonl"),
        ],
        ids=lambda flag: flag[0],
    )
    def test_rejected_where_no_backend_is_built(self, tmp_path, argv, flag, capsys):
        out = tmp_path / "out"
        code = main([*argv, *flag, "--output-dir", str(out)])
        assert code == 1
        assert f"{flag[0]} not supported by" in capsys.readouterr().err
        assert not out.exists()


class TestUnusedEmbeddingFlags:
    @pytest.mark.parametrize("method", ["paragraph", "recursive", "lumber", "proposition"])
    @pytest.mark.parametrize(
        "flag",
        [
            ("--embed", "http"),
            ("--embed-url", "http://127.0.0.1:9"),
            ("--embed-model", "m"),
            ("--embed-cache", "nothere.jsonl"),
        ],
        ids=lambda flag: flag[0],
    )
    def test_rejected_where_nothing_embeds(self, tmp_path, method, flag, capsys):
        out = tmp_path / "out"
        code = main(
            ["chunk", "--document", "d.jsonl", "--method", method, *flag, "--output-dir", str(out)]
        )
        assert code == 1
        assert f"{' '.join(flag) if flag[0] == '--embed' else flag[0]} not supported by" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--chunks", "c.jsonl", "--qa", "q.jsonl"],
            ["sweep", "--documents", "d.jsonl", "--qa", "q.jsonl"],
            ["rag", "--chunks", "c.jsonl", "--questions", "q.jsonl"],
            ["chunk", "--document", "d.jsonl", "--method", "semantic"],
        ],
        ids=["eval", "sweep", "rag", "chunk-semantic"],
    )
    @pytest.mark.parametrize(
        "flags, named",
        [
            (
                ["--embed", "http", "--embed-url", "http://127.0.0.1:9", "--embed-model", "m",
                 "--embed-dim", "8", "--embed-seed", "3"],
                "--embed-dim, --embed-seed not supported by {command} with --embed http",
            ),
            (
                ["--embed-url", "http://x", "--embed-model", "m"],
                "--embed-url, --embed-model not supported by {command} with --embed mock",
            ),
        ],
        ids=["mock-flags-with-http", "http-flags-with-mock"],
    )
    def test_rejected_where_the_embedder_does_not_read_them(
        self, tmp_path, argv, flags, named, capsys
    ):
        out = tmp_path / "out"
        code = main([*argv, *flags, "--output-dir", str(out)])
        assert code == 1
        command = "chunk --method semantic" if argv[0] == "chunk" else argv[0]
        assert f"error: {named.format(command=command)}" in capsys.readouterr().err
        assert not out.exists()

    def test_semantic_rejects_embedding_cache(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "chunk", "--document", "d.jsonl", "--method", "semantic",
                "--embed-cache", "nothere.jsonl", "--output-dir", str(out),
            ]
        )
        assert code == 1
        assert "--embed-cache not supported by chunk --method semantic" in capsys.readouterr().err
        assert not out.exists()


class TestUnusableBackendUrl:
    @pytest.mark.parametrize("url", ["ftp://x", "http://"])
    def test_exits_1_before_any_request(self, tmp_path, book_records, url, capsys):
        started = time.perf_counter()
        code = main(
            [
                "chunk", "--document", str(book_records), "--method", "lumber",
                "--backend-url", url, "--model", "m", "--output-dir", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad URL")
        assert "Traceback" not in err
        assert time.perf_counter() - started < 1.0  # no backoff sleeps


def first_split_responder(prompt: str) -> str:
    return f"Answer: ID {prompt_ids(prompt)[1]:04d}"


class TestModelKeyedCache:
    def test_two_models_in_one_file_replay_their_own_answers(
        self, tmp_path, book_records, monkeypatch
    ):
        cache_path = tmp_path / "splits.jsonl"
        responders = {"model-a": last_id_responder, "model-b": first_split_responder}

        def chunk(out_dir, *flags):
            argv = [
                "chunk", "--document", str(book_records), "--method", "lumber",
                "--theta", "120", "--output-dir", str(out_dir), *flags,
            ]
            assert main(argv) == 0
            return (out_dir / "chunks.jsonl").read_bytes()

        recorded = {}
        for model, respond in responders.items():
            with monkeypatch.context() as patch:
                backend = ScriptedBackend(respond)
                patch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
                recorded[model] = chunk(
                    tmp_path / f"record-{model}", "--model", model, "--record-cache", str(cache_path)
                )
        assert recorded["model-a"] != recorded["model-b"]
        for model in responders:
            out_dir = tmp_path / f"replay-{model}"
            assert chunk(out_dir, "--model", model, "--replay-cache", str(cache_path)) == recorded[model]
            run_config = json.loads((out_dir / "run_config.json").read_text())
            assert run_config["backend"]["model_id"] == model


class TestResumeHint:
    @pytest.mark.parametrize("command", ["chunk", "sweep"])
    def test_abort_while_recording_says_how_to_resume(
        self, tmp_path, book_records, qa_file, monkeypatch, capsys, command
    ):
        backend = FailingBackend(respond=last_id_responder, fail_after=2)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        cache_path = tmp_path / "splits.jsonl"
        if command == "chunk":
            argv = ["chunk", "--document", str(book_records), "--method", "lumber", "--theta", "120"]
        else:
            argv = ["sweep", "--documents", str(book_records), "--qa", str(qa_file), "--thetas", "120"]
        code = main(
            [*argv, "--record-cache", str(cache_path), "--output-dir", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "transport down" in err and "Traceback" not in err
        assert (
            f"re-run the same command to resume from the 2 answers recorded in {cache_path}" in err
        )

    def test_no_hint_without_record_cache(self, tmp_path, book_records, monkeypatch, capsys):
        backend = FailingBackend(respond=last_id_responder, fail_after=2)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        code = main(
            [
                "chunk", "--document", str(book_records), "--method", "lumber",
                "--theta", "120", "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "transport down" in err and "re-run" not in err


class TestDamagedCache:
    def chunk_lumber(self, book_records, out_dir, *flags):
        return main(
            [
                "chunk", "--document", str(book_records), "--method", "lumber",
                "--theta", "120", "--output-dir", str(out_dir), *flags,
            ]
        )

    def test_corrupt_middle_line_is_a_clean_error(self, tmp_path, book_records, capsys):
        cache_path = tmp_path / "splits.jsonl"
        seed_lumber_cache(book_records, cache_path, thetas=(120,))
        lines = cache_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(1, '{"key": "x", "response": \n')
        cache_path.write_text("".join(lines), encoding="utf-8")
        code = self.chunk_lumber(book_records, tmp_path / "out", "--replay-cache", str(cache_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "splits.jsonl, line 2" in err
        assert "Traceback" not in err

    def test_record_resumes_after_torn_final_line(self, tmp_path, book_records, monkeypatch):
        backend = CountingBackend(last_id_responder)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        cache_path = tmp_path / "splits.jsonl"
        flags = ("--record-cache", str(cache_path))
        assert self.chunk_lumber(book_records, tmp_path / "first", *flags) == 0
        recorded_calls = backend.calls
        assert recorded_calls >= 2
        data = cache_path.read_bytes()
        cache_path.write_bytes(data[:-10])  # the last append was cut short

        assert self.chunk_lumber(book_records, tmp_path / "second", *flags) == 0
        assert backend.calls == recorded_calls + 1  # only the torn prompt is asked again
        assert cache_path.read_bytes() == data
        assert (tmp_path / "first" / "chunks.jsonl").read_bytes() == (
            tmp_path / "second" / "chunks.jsonl"
        ).read_bytes()


class TestUnreadChunkFlags:
    @pytest.mark.parametrize(
        "method, flags, named",
        [
            ("paragraph", ["--embed-dim", "8", "--embed-seed", "3"], "--embed-dim, --embed-seed"),
            ("recursive", ["--theta", "900", "--percentile", "10"], "--theta, --percentile"),
            ("paragraph", ["--max-retries", "1"], "--max-retries"),
            ("paragraph", ["--min-tail-paragraphs", "1"], "--min-tail-paragraphs"),
            ("paragraph", ["--id-width", "6"], "--id-width"),
            ("paragraph", ["--max-tokens", "100"], "--max-tokens"),
            ("paragraph", ["--min-unit", "sentence"], "--min-unit"),
            ("semantic", ["--theta", "900", "--max-tokens", "100"], "--theta, --max-tokens"),
            ("lumber", ["--max-tokens", "100", "--embed-seed", "1"], "--max-tokens, --embed-seed"),
            ("lumber", ["--percentile", "80", "--min-unit", "paragraph"], "--percentile, --min-unit"),
            ("proposition", ["--theta", "550"], "--theta"),
            (
                "semantic",
                ["--embed", "http", "--embed-url", "http://127.0.0.1:9", "--embed-model", "m",
                 "--embed-dim", "8"],
                "--embed-dim",
            ),
        ],
    )
    def test_rejected_where_the_method_does_not_read_them(
        self, tmp_path, book_records, method, flags, named, capsys
    ):
        out = tmp_path / "out"
        code = main(
            ["chunk", "--document", str(book_records), "--method", method, *flags,
             "--output-dir", str(out)]
        )
        assert code == 1
        assert f"error: {named} not supported by chunk --method {method}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, flags, chunker, embedding",
        [
            ("paragraph", [], {"method": "paragraph"}, {"kind": "none"}),
            ("recursive", [], {"method": "recursive", "max_tokens": 450}, {"kind": "none"}),
            ("recursive", ["--max-tokens", "100"], {"method": "recursive", "max_tokens": 100},
             {"kind": "none"}),
            (
                "semantic",
                [],
                {"method": "semantic", "percentile": 95.0, "min_unit": "paragraph"},
                {"kind": "mock", "dimension": 64, "seed": 0},
            ),
            (
                "semantic",
                ["--percentile", "80", "--min-unit", "sentence", "--embed-dim", "16",
                 "--embed-seed", "3"],
                {"method": "semantic", "percentile": 80.0, "min_unit": "sentence"},
                {"kind": "mock", "dimension": 16, "seed": 3},
            ),
            (
                "lumber",
                [],
                {"method": "lumber", "theta": 550, "max_retries": 3, "min_tail_paragraphs": 2,
                 "id_width": 4},
                {"kind": "none"},
            ),
            (
                "lumber",
                ["--theta", "120", "--max-retries", "1", "--min-tail-paragraphs", "3",
                 "--id-width", "5"],
                {"method": "lumber", "theta": 120, "max_retries": 1, "min_tail_paragraphs": 3,
                 "id_width": 5},
                {"kind": "none"},
            ),
        ],
    )
    def test_run_config_records_given_or_default_values(
        self, tmp_path, book_records, monkeypatch, method, flags, chunker, embedding
    ):
        monkeypatch.setattr(
            cli, "_completion_backend",
            lambda args, needed_for: ScriptedBackend(last_id_responder),
        )
        out = tmp_path / "out"
        code = main(
            ["chunk", "--document", str(book_records), "--method", method, *flags,
             "--output-dir", str(out)]
        )
        assert code == 0
        text = (out / "run_config.json").read_text(encoding="utf-8")
        record = json.loads(text)
        assert record["chunker"] == chunker
        assert record["embedding"] == embedding
        if method == "semantic":
            assert f'"percentile": {chunker["percentile"]}' in text  # still a float

    @pytest.mark.parametrize(
        "flags, embedding, seed",
        [
            ([], {"kind": "mock", "dimension": 64, "seed": 0}, 0),
            (["--embed-dim", "16", "--embed-seed", "5"], {"kind": "mock", "dimension": 16, "seed": 5}, 5),
        ],
    )
    def test_eval_records_mock_embedder_and_seed(
        self, tmp_path, book_records, qa_file, flags, embedding, seed
    ):
        chunk_path = tmp_path / "chunks.jsonl"
        write_chunks(lumberchunk(
            load_document(book_records, "paragraph_records"), ChunkerConfig(theta=200),
            ScriptedBackend(last_id_responder),
        ), chunk_path)
        out = tmp_path / "eval"
        code = main(
            ["eval", "--chunks", str(chunk_path), "--qa", str(qa_file), *flags,
             "--output-dir", str(out)]
        )
        assert code == 0
        record = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
        assert record["embedding"] == embedding
        assert record["seed"] == seed


class CountingHydeBackend(CompletionBackend):
    """Writes a hypothetical passage per question, counting calls per prompt.

    Replies are delayed by a few ms chosen from the prompt hash, so
    concurrent rewrites finish out of order.
    """

    backend_id = "counting-hyde"

    def __init__(self, passages: dict[str, str]):
        self.passages = passages
        self.lock = threading.Lock()
        self.calls: dict[str, int] = {}

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        time.sleep(hashlib.sha256(prompt.encode("utf-8")).digest()[0] / 255 * 0.004)
        with self.lock:
            self.calls[prompt] = self.calls.get(prompt, 0) + 1
        question = prompt.rsplit("Question: ", 1)[1]
        return self.passages[question]


class TestHydeRewrites:
    def test_one_rewrite_per_question_for_all_chunk_files(
        self, tmp_path, book_records, monkeypatch
    ):
        monkeypatch.setattr(parallel, "WORKERS", 4)
        document = load_document(book_records, "paragraph_records")
        pairs = [
            QAPair("book", f"what happens in part {i}?", "a", document.paragraphs[i].text)
            for i in range(10)
        ]
        pairs.append(pairs[3])  # a repeated question is rewritten once too
        qa_path = tmp_path / "qa.jsonl"
        write_qa(pairs, qa_path)
        passages = {pair.question: document.paragraphs[(i * 7) % 12].text for i, pair in enumerate(pairs)}
        chunk_files = TestEvalCommand().make_chunk_files(tmp_path, book_records)

        # the reference: one sequential rewrite per question, then each file in turn
        sequential = CountingHydeBackend(passages)
        rewrites = {pair.question: hyde_transform(pair.question, sequential) for pair in pairs}
        expected = [
            evaluate(
                read_chunks(path), pairs, MockEmbeddingBackend(dimension=64, seed=0),
                rewrites.__getitem__, method=path.stem + "+hyde",
            )
            for path in chunk_files
        ]
        write_reports(expected, tmp_path / "expected.jsonl")

        backend = CountingHydeBackend(passages)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        out = tmp_path / "eval"
        code = main(
            ["eval", "--chunks", *[str(p) for p in chunk_files], "--qa", str(qa_path), "--hyde",
             "--output-dir", str(out)]
        )
        assert code == 0
        assert sorted(backend.calls.values()) == [1] * 10
        assert backend.calls.keys() == sequential.calls.keys()
        assert (out / "reports.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chunk", "--document", "{book}", "--method", "recursive", "--max-tokens", "0",
             "--output-dir", "{out}"],
            ["eval", "--chunks", "{chunks}", "--qa", "{qa}", "--ks", "0", "--output-dir", "{out}"],
            ["eval", "--chunks", "{chunks}", "--qa", "{qa}", "--ks", "5", "5", "1",
             "--output-dir", "{out}"],
            ["eval", "--chunks", "{chunks}", "--qa", "{qa}", "--embed-dim", "1",
             "--output-dir", "{out}"],
            ["sweep", "--documents", "{book}", "--qa", "{qa}", "--thetas", "0",
             "--replay-cache", "{cache}", "--output-dir", "{out}"],
            ["sweep", "--documents", "{book}", "--qa", "{qa}", "--max-retries", "-1",
             "--replay-cache", "{cache}", "--output-dir", "{out}"],
            ["gen-qa", "--document", "{book}", "-n", "-1", "--replay-cache", "{cache}",
             "--output", "{out}"],
        ],
        ids=["max-tokens", "ks", "ks-duplicate", "embed-dim", "thetas", "max-retries", "gen-qa-n"],
    )
    def test_one_error_line_and_no_traceback(self, tmp_path, book_records, qa_file, argv, capsys):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[1]
        cache_path = tmp_path / "empty.jsonl"
        cache_path.write_text("", encoding="utf-8")
        paths = {
            "book": book_records, "qa": qa_file, "chunks": chunk_path, "cache": cache_path,
            "out": tmp_path / "out",
        }
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


class TestFlagTable:
    def test_every_flag_is_read_by_a_row_and_every_row_names_real_flags(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        commands = {row.split()[0] for row in cli._READS}
        assert set(subparsers.choices) == commands | {"rag-answer"}
        methods = {row.split()[-1] for row in cli._READS if row.startswith("chunk ")}
        assert methods == set(chunk_method_names())
        for command in commands:
            dests = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
            read = set()
            for row, names in cli._READS.items():
                if row.split()[0] == command:
                    read.update(names)
            if "embed" in read:
                for names in cli._EMBEDDERS.values():
                    read.update(names)
            assert read <= dests, command
            # chunk takes --embed-cache with the other embedding flags, only to
            # reject it: no method reads it
            assert dests - read == ({"embed_cache"} if command == "chunk" else set()), command

    def test_one_error_line_names_unread_flags_from_two_groups(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["chunk", "--document", "d.jsonl", "--method", "paragraph", "--model", "m",
             "--embed-url", "u", "--output-dir", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: --model, --embed-url not supported by chunk --method paragraph"]
        assert not out.exists()


class TestHydeBackendFailure:
    @pytest.mark.parametrize("record", [False, True], ids=["live", "recording"])
    def test_exits_1_and_writes_no_reports(
        self, tmp_path, book_records, qa_file, monkeypatch, capsys, record
    ):
        backend = FailingBackend()
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        cache_path = tmp_path / "hyde.jsonl"
        out = tmp_path / "eval"
        code = main(
            ["eval", "--chunks", str(chunk_path), "--qa", str(qa_file), "--hyde",
             *(["--record-cache", str(cache_path)] if record else []), "--output-dir", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "transport down" in errors[0]
        hint = f"re-run the same command to resume from the 0 answers recorded in {cache_path}"
        assert errors[0].endswith(hint) == record
        assert not (out / "reports.jsonl").exists()


def _one_error_line(code: int, err: str) -> str:
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    return errors[0]


class TestNonUtf8Input:
    """A 0xE9 byte on line 2 of a JSONL input file is named with its file and line."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["eval", "--chunks", "{chunks}", "--qa", "{bad_qa}", "--output-dir", "{out}"],
             "bad_qa"),
            (["eval", "--chunks", "{bad_chunks}", "--qa", "{qa}", "--output-dir", "{out}"],
             "bad_chunks"),
            (["rag", "--chunks", "{bad_chunks}", "--questions", "{qa}", "--replay-cache",
              "{cache}", "--output-dir", "{out}"], "bad_chunks"),
            (["chunk", "--document", "{bad_records}", "--method", "paragraph", "--output-dir",
              "{out}"], "bad_records"),
            (["sweep", "--documents", "{records}", "{bad_records}", "--qa", "{qa}", "--thetas",
              "550", "--replay-cache", "{cache}", "--output-dir", "{out}"], "bad_records"),
        ],
        ids=["eval-qa", "eval-chunks", "rag-chunks", "chunk-document", "sweep-documents"],
    )
    def test_one_error_line_naming_file_and_line(
        self, tmp_path, book_records, qa_file, argv, bad, capsys
    ):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        cache_path = tmp_path / "empty.jsonl"
        cache_path.write_bytes(b"")
        paths = {
            "chunks": chunk_path, "qa": qa_file, "cache": cache_path, "out": tmp_path / "out",
            "records": book_records, "bad_qa": tmp_path / "bad_qa.jsonl",
            "bad_chunks": tmp_path / "bad_chunks.jsonl", "bad_records": tmp_path / "bad_records.jsonl",
        }
        sources = (("bad_qa", qa_file), ("bad_chunks", chunk_path), ("bad_records", book_records))
        for name, source in sources:
            first, second, *rest = source.read_bytes().splitlines(keepends=True)
            paths[name].write_bytes(first + second.replace(b'"', b'"\xe9', 1) + b"".join(rest))
        code = main([arg.format(**paths) for arg in argv])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == f"error: {paths[bad]}, line 2: not valid UTF-8"
        assert not (tmp_path / "out").exists()

    def test_delimited_qa_names_the_file(self, tmp_path, book_records, capsys):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        qa_path = tmp_path / "qa.csv"
        qa_path.write_bytes(b"doc_id,question,answer,supporting_passage\nbook,q\xe9,a,p\n")
        code = main(
            ["eval", "--chunks", str(chunk_path), "--qa", str(qa_path), "--output-dir",
             str(tmp_path / "out")]
        )
        error = _one_error_line(code, capsys.readouterr().err)
        assert error.startswith(f"error: {qa_path} is not valid UTF-8")


def test_sweep_rejects_duplicate_cutoffs_before_chunking(
    tmp_path, book_records, qa_file, monkeypatch, capsys
):
    backend = CountingBackend(last_id_responder)
    monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
    code = main(
        ["sweep", "--documents", str(book_records), "--qa", str(qa_file), "--ks", "5", "5", "1",
         "--backend-url", "http://127.0.0.1:9", "--model", "m", "--output-dir", str(tmp_path)]
    )
    error = _one_error_line(code, capsys.readouterr().err)
    assert error == "error: ks must be non-empty, distinct and each >= 1, got [5, 5, 1]"
    assert backend.calls == 0
