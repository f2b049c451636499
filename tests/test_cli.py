"""End-to-end CLI tests; every command runs in-process through main()."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import pytest

from conftest import (
    CountingBackend,
    CountingEmbeddingBackend,
    FailingBackend,
    RecordingEmbeddingBackend,
    make_document,
    prompt_ids,
    words,
)
from lumberkit import backends, chunker, cli, parallel, ragpipe
from lumberkit.backends import (
    BackendError,
    CompletionBackend,
    EmbeddingBackend,
    EmbeddingCache,
    MockEmbeddingBackend,
    ResponseCache,
    ScriptedBackend,
    prompt_key,
)
from lumberkit.baselines import HYDE_PROMPT_TEMPLATE, hyde_transform, paragraph_chunks
from lumberkit.chunker import PROMPT_HEADER, ChunkerConfig, lumberchunk, read_chunks, write_chunks
from lumberkit.cli import main
from lumberkit.corpus import (
    Document,
    QAPair,
    generate_qa,
    load_document,
    write_document,
    write_qa,
)
from lumberkit.evaluation import evaluate, write_reports
from lumberkit.index import bm25_build, embed_chunks
from lumberkit.ragpipe import RERANK_PROMPT_TEMPLATE, answer_question, qa_accuracy, retrieve

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
        QAPair("book", "first thing?", "a1", document.paragraphs[1]),
        QAPair("book", "second thing?", "a2", document.paragraphs[7]),
        QAPair("book", "third thing?", "a3", document.paragraphs[10]),
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
    def test_help_names_the_records_doc_id_as_the_default(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ingest", "--help"])
        assert info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps the help text
        default = "(default: the records' doc_id, else the file stem)"
        assert f"--doc-id DOC_ID document identifier {default}" in out

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

    @pytest.mark.parametrize("format", ["plain_text", "paragraph_records"])
    def test_empty_doc_id_flag_is_kept(self, tmp_path, book_records, format):
        source = tmp_path / "book.txt"
        source.write_text("First.\n\nSecond.\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        document = source if format == "plain_text" else book_records
        code = main(
            ["ingest", "--input", str(document), "--format", format, "--doc-id", "",
             "--output", str(out)]
        )
        assert code == 0
        run_config = json.loads(out.with_name("out.jsonl.run.json").read_text())
        assert run_config["flags"]["doc_id"] == ""
        assert load_document(out, "paragraph_records").doc_id == ""

    def test_empty_plain_text_names_the_file(self, tmp_path, capsys):
        source = tmp_path / "empty.txt"
        source.write_text("\n  \n\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(["ingest", "--input", str(source), "--output", str(out)])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == f"error: {source} contains no paragraphs"
        assert not out.exists()

    def test_missing_input_fails_with_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        code = main(["ingest", "--input", str(missing), "--output", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.txt" in err


class TestChunkCommand:
    def test_each_chunk_is_counted_once(self, tmp_path, book_records, monkeypatch):
        counted = mock.Mock(side_effect=chunker.count_tokens)
        monkeypatch.setattr(chunker, "count_tokens", counted)
        argv = ["chunk", "--document", str(book_records), "--method", "paragraph"]
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
        assert counted.call_count == 12  # one per chunk, for the record and the stats
        assert json.loads((tmp_path / "out" / "stats.json").read_text())["max_tokens"] == 54

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

    def test_files_sharing_a_stem_get_distinct_rows(self, tmp_path, book_records, qa_file):
        # README's example: out/recursive/chunks.jsonl and out/lumber/chunks.jsonl
        made = self.make_chunk_files(tmp_path, book_records)
        chunk_files = []
        for method, path in zip(("recursive", "lumber"), made):
            target = tmp_path / "out" / method / "chunks.jsonl"
            target.parent.mkdir(parents=True)
            path.rename(target)
            chunk_files.append(str(target))
        out_dir = tmp_path / "eval"
        code = main(
            ["eval", "--chunks", *chunk_files, "--qa", str(qa_file), "--output-dir", str(out_dir)]
        )
        assert code == 0
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert [row["method"] for row in rows] == ["recursive/chunks", "lumber/chunks"]

    @pytest.mark.parametrize(
        "paths, labels",
        [
            (["a/x.jsonl", "b/y.jsonl"], ["x", "y"]),
            (["a/x.jsonl", "a/x.jsonl"], ["x", "x"]),
            (["a/x.jsonl", "./a/x.jsonl"], ["x", "x"]),
            (["r/a/x.jsonl", "r/b/x.jsonl", "s/b/x.jsonl"], ["a/x", "r/b/x", "s/b/x"]),
            (["x.jsonl", "a/x.jsonl"], ["x.jsonl", "a/x"]),
            (["a/x.jsonl", "a/x.json"], ["a/x.jsonl", "a/x.json"]),
        ],
        ids=["distinct-stems", "same-path", "same-path-twice", "deeper", "prefix", "suffix"],
    )
    def test_labels(self, paths, labels):
        assert cli._labels(paths) == labels

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
            [paragraph_chunks(document)],
            load_qa(qa_file),
            MockEmbeddingBackend(),
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
            cache.put(prompt, document.paragraphs[1])
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

        expected = evaluate([chunks], load_qa(qa_file), MockEmbeddingBackend())
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
    embedder = MockEmbeddingBackend()
    vector_index = embed_chunks(chunks, embedder)
    bm25_index = bm25_build(chunks)

    def respond(prompt: str) -> str:
        if "Order the numbered documents" in prompt:
            return "2, 1, 3"
        return "A recorded answer."

    backend = CountingBackend(respond)
    for pair in qa_pairs:
        query_vector = embedder.embed([pair.question])[0]
        answer_question(retrieve(pair.question, bm25_index, vector_index, query_vector), backend)
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

    def run_rag(self, rag_inputs, out_dir):
        chunk_path, qa_path, cache_path = rag_inputs
        return main(
            [
                "rag",
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

    def test_failed_rerank_ends_the_run(self, tmp_path, rag_inputs, monkeypatch, capsys):
        def respond(prompt):
            if prompt.startswith(RERANK_PROMPT_TEMPLATE.partition("{")[0]):
                raise BackendError("rerank endpoint down")
            return "an answer"

        backend = CountingBackend(respond)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        chunk_path, _qa_path, _cache_path = rag_inputs
        qa_path = tmp_path / "one.jsonl"
        write_qa([QAPair("book", "What did Joshua Haldeman study?", "chiropractic", "p1")], qa_path)
        out_dir = tmp_path / "out"
        code = main(["rag", "--chunks", str(chunk_path), "--questions", str(qa_path),
                     "--output-dir", str(out_dir)])
        assert _one_error_line(code, capsys.readouterr().err) == "error: rerank endpoint down"
        assert backend.calls == 1
        assert not out_dir.exists()


class TestEmptyInputs:
    """A QA or chunk file with nothing to score ends in one error line naming it."""

    @pytest.mark.parametrize(
        "argv, empty",
        [
            (["eval", "--chunks", "{chunks}", "--qa", "{empty_qa}"], "empty_qa"),
            (["eval", "--chunks", "{chunks}", "--qa", "{no_passage_qa}"], "no_passage_qa"),
            (["sweep", "--documents", "{records}", "--qa", "{empty_qa}", "--thetas", "500",
              "--backend-url", "http://127.0.0.1:9", "--model", "m"], "empty_qa"),
            (["rag", "--chunks", "{chunks}", "--questions", "{empty_qa}",
              "--backend-url", "http://127.0.0.1:9", "--model", "m"], "empty_qa"),
            (["eval", "--chunks", "{empty_chunks}", "{chunks}", "--qa", "{qa}"], "empty_chunks"),
            (["eval", "--chunks", "{chunks}", "{empty_chunks}", "--qa", "{qa}", "--hyde"],
             "empty_chunks"),
            (["rag", "--chunks", "{empty_chunks}", "--questions", "{qa}",
              "--backend-url", "http://127.0.0.1:9", "--model", "m"], "empty_chunks"),
        ],
        ids=["eval-qa", "eval-qa-without-passages", "sweep-qa", "rag-qa", "eval-chunks",
             "eval-hyde-later-chunks", "rag-chunks"],
    )
    def test_rejected_before_any_call(
        self, tmp_path, book_records, qa_file, argv, empty, monkeypatch, capsys
    ):
        backend = CountingBackend(last_id_responder)
        embedders = []

        def counting_embedder(args):
            embedders.append(CountingEmbeddingBackend())
            return embedders[-1]

        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        monkeypatch.setattr(cli, "_embedding_backend", counting_embedder)
        paths = {
            "chunks": TestEvalCommand().make_chunk_files(tmp_path, book_records)[0],
            "records": book_records, "qa": qa_file, "empty_qa": tmp_path / "empty_qa.jsonl",
            "no_passage_qa": tmp_path / "no_passage_qa.jsonl",
            "empty_chunks": tmp_path / "empty_chunks.jsonl",
        }
        paths["empty_qa"].write_bytes(b"\n")
        paths["empty_chunks"].write_bytes(b"")
        row = {"doc_id": "book", "question": "q?", "answer": "a", "supporting_passage": " "}
        paths["no_passage_qa"].write_text(json.dumps(row) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main([*(arg.format(**paths) for arg in argv), "--output-dir", str(out)])
        error = _one_error_line(code, capsys.readouterr().err)
        what = "chunk records" if empty == "empty_chunks" else "QA records with a supporting passage"
        assert error == f"error: {paths[empty]} contains no {what}"
        assert backend.calls == 0
        assert sum(embedder.calls for embedder in embedders) == 0
        assert not out.exists()


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

    def complete(self, prompt: str) -> str:
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
        embedder = MockEmbeddingBackend()
        vector_index = embed_chunks(chunks, embedder)
        bm25_index = bm25_build(chunks)
        backend = ScriptedBackend(JitteredBackend.reply)
        lines = []
        scored = []
        for pair in pairs:
            query_vector = embedder.embed([pair.question])[0]
            retrieval = retrieve(pair.question, bm25_index, vector_index, query_vector)
            result = answer_question(retrieval, backend)
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

    def test_questions_are_retrieved_on_the_calling_thread(self, tmp_path, inputs, monkeypatch):
        retrieved_on, called_on = [], []
        traced = ragpipe.hybrid_retrieve

        def hybrid_retrieve(*args, **kwargs):
            retrieved_on.append(threading.get_ident())
            return traced(*args, **kwargs)

        class ThreadRecordingBackend(JitteredBackend):
            def complete(self, prompt: str) -> str:
                with self.lock:
                    called_on.append(threading.get_ident())
                return super().complete(prompt)

        monkeypatch.setattr(ragpipe, "hybrid_retrieve", hybrid_retrieve)
        assert self.run_rag(inputs, ThreadRecordingBackend(), tmp_path / "rag", monkeypatch) == 0
        caller = threading.get_ident()
        assert retrieved_on == [caller] * self.QUESTIONS
        assert len(called_on) == 2 * self.QUESTIONS
        assert caller not in called_on

    def test_failed_retrieval_stops_before_later_questions(
        self, tmp_path, inputs, monkeypatch, capsys
    ):
        traced = ragpipe.hybrid_retrieve
        retrievals = []

        def hybrid_retrieve(query, *args, **kwargs):
            retrievals.append(query)
            if len(retrievals) == 3:
                raise ragpipe.RagPipelineError("index went away at question 3")
            return traced(query, *args, **kwargs)

        backend = CountingBackend(JitteredBackend.reply)
        monkeypatch.setattr(ragpipe, "hybrid_retrieve", hybrid_retrieve)
        code = self.run_rag(inputs, backend, tmp_path / "rag", monkeypatch)
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == "error: index went away at question 3"
        questions = [pair.question for pair in inputs[1]]
        assert retrievals == questions[:3]
        # only the two questions retrieved before it reached the backend
        asked = {q for q in questions if any(q in prompt for prompt in backend.prompts)}
        assert asked <= set(questions[:2])
        assert not (tmp_path / "rag").exists()

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
        assert len(ResponseCache(record)) == len(ResponseCache(tmp_path / "replay.jsonl"))
        run_config = json.loads((out / "run_config.json").read_text())
        assert run_config["flags"]["record_cache"] == str(record)


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
            ("--embed-url", "http://127.0.0.1:9"),
            ("--embed-model", "m"),
            ("--embed-cache", "nothere.jsonl"),
        ],
        ids=lambda flag: flag[0],
    )
    def test_rejected_where_nothing_embeds(self, tmp_path, book_records, method, flag, capsys):
        out = tmp_path / "out"
        code = main(
            ["chunk", "--document", str(book_records), "--method", method, *flag,
             "--output-dir", str(out)]
        )
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == f"error: {flag[0]} not supported by chunk --method {method}"
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
        "flag", [("--embed-url", "http://x"), ("--embed-model", "m")], ids=lambda flag: flag[0]
    )
    def test_one_http_embedder_flag_alone_is_refused_before_input_is_read(
        self, tmp_path, argv, flag, capsys
    ):
        out = tmp_path / "out"
        code = main([*argv, *flag, "--output-dir", str(out)])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == "error: --embed-url and --embed-model select the HTTP embedder only together"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["http", "mock"])
    def test_removed_embed_flag_ends_in_a_usage_error(self, tmp_path, value, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--chunks", "c.jsonl", "--qa", "q.jsonl", "--embed", value,
                  "--output-dir", str(out)])
        assert excinfo.value.code == 2
        assert f"error: unrecognized arguments: --embed {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_semantic_reads_embedding_cache(self, tmp_path, book_records):
        out = tmp_path / "out"
        cache = tmp_path / "embed.jsonl"
        code = main(
            [
                "chunk", "--document", str(book_records), "--method", "semantic",
                "--embed-cache", str(cache), "--output-dir", str(out),
            ]
        )
        assert code == 0
        paragraphs = load_document(book_records, "paragraph_records").paragraphs
        assert len(EmbeddingCache(cache, "mock:64:0")) == len(set(paragraphs))


class TestUnusableBackendUrl:
    @pytest.mark.parametrize("url", ["ftp://x", "http://"])
    @pytest.mark.parametrize(
        "method, flags",
        [("lumber", ["--backend-url", "--model"]), ("semantic", ["--embed-url", "--embed-model"])],
        ids=["backend-url", "embed-url"],
    )
    def test_exits_1_before_any_request(self, tmp_path, book_records, method, flags, url, capsys):
        started = time.perf_counter()
        code = main(
            [
                "chunk", "--document", str(book_records), "--method", method,
                flags[0], url, flags[1], "m", "--output-dir", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad URL")
        assert "Traceback" not in err
        assert time.perf_counter() - started < 1.0  # no backoff sleeps


class TestReplayCacheFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chunk", "--document", "{missing}", "--method", "lumber", "--output-dir", "{out}"],
            ["chunk", "--document", "{missing}", "--method", "proposition", "--output-dir", "{out}"],
            ["eval", "--chunks", "{missing}", "--qa", "{missing}", "--hyde", "--output-dir", "{out}"],
            ["sweep", "--documents", "{missing}", "--qa", "{missing}", "--output-dir", "{out}"],
            ["rag", "--chunks", "{missing}", "--questions", "{missing}", "--output-dir", "{out}"],
            ["gen-qa", "--document", "{missing}", "-n", "1", "--output", "{out}/qa.jsonl"],
        ],
        ids=["chunk-lumber", "chunk-proposition", "eval-hyde", "sweep", "rag", "gen-qa"],
    )
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--replay-cache", "{out}.jsonl", "--backend-url", "http://127.0.0.1:9",
              "--model", "m"], "--replay-cache and --backend-url exclude each other"),
            (["--backend-url", "http://127.0.0.1:9"], "--backend-url requires --model"),
        ],
        ids=["beside-replay-cache", "without-model"],
    )
    def test_backend_url_is_rejected_before_input_is_read(
        self, tmp_path, argv, flags, named, capsys
    ):
        out = tmp_path / "out"
        paths = {"missing": tmp_path / "missing.jsonl", "out": out}
        code = main([arg.format(**paths) for arg in argv + flags])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error.startswith(f"error: {named}")
        assert not out.exists()

    def test_a_miss_names_the_cache_file(self, tmp_path, book_records, capsys):
        cache_path = tmp_path / "mistyped.jsonl"  # no such file: it opens as an empty store
        code = main(
            ["chunk", "--document", str(book_records), "--method", "lumber",
             "--replay-cache", str(cache_path), "--output-dir", str(tmp_path / "out")]
        )
        error = _one_error_line(code, capsys.readouterr().err)
        assert f"no recorded response in {cache_path} for prompt key " in error


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


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("chunk_id", 0, "chunk ('book', 0) repeats the chunk on line 1"),
        ("text", 7, "field 'text' must be str, not int"),
    ],
    ids=["repeated-chunk", "wrong-type"],
)
def test_eval_checks_every_chunk_file_before_any_call(
    tmp_path, book_records, qa_file, monkeypatch, capsys, field, value, reason
):
    backend = CountingBackend(last_id_responder)
    embedders = []

    def counting_embedder(args):
        embedders.append(CountingEmbeddingBackend())
        return embedders[-1]

    monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
    monkeypatch.setattr(cli, "_embedding_backend", counting_embedder)
    good, lumber = TestEvalCommand().make_chunk_files(tmp_path, book_records)
    first, second, *_ = lumber.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(first + json.dumps({**json.loads(second), field: value}) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["eval", "--chunks", str(good), str(bad), "--qa", str(qa_file), "--hyde",
         "--output-dir", str(out)]
    )
    assert _one_error_line(code, capsys.readouterr().err) == f"error: {bad}, line 2: {reason}"
    assert backend.calls == 0
    assert sum(embedder.calls for embedder in embedders) == 0
    assert not out.exists()


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

    @pytest.mark.parametrize("theta", ["120", "100000"], ids=["answers-recorded", "none-recorded"])
    def test_embedder_failure_while_recording_says_how_to_resume(
        self, tmp_path, book_records, qa_file, monkeypatch, capsys, theta
    ):
        backend = CountingBackend(last_id_responder)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        monkeypatch.setattr(
            cli, "_embedding_backend", lambda args: TestSweepScoringFailure.DyingEmbedder(fail_on=1)
        )
        cache_path = tmp_path / "splits.jsonl"
        code = main(
            ["sweep", "--documents", str(book_records), "--qa", str(qa_file), "--thetas", theta,
             "--record-cache", str(cache_path), "--output-dir", str(tmp_path / "out")]
        )
        error = _one_error_line(code, capsys.readouterr().err)
        assert error.startswith("error: embedding failed for texts 0..")
        if theta == "120":
            assert backend.calls > 0
            assert error.endswith(
                f": embedding endpoint went away; re-run the same command to resume from the "
                f"{backend.calls} answers recorded in {cache_path}"
            )
        else:  # the whole document fits under theta: no split was asked for
            assert backend.calls == 0
            assert error.endswith(": embedding endpoint went away")

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
            ("recursive", ["--theta", "900", "--percentile", "10"], "--theta, --percentile"),
            ("paragraph", ["--max-tokens", "100"], "--max-tokens"),
            ("paragraph", ["--min-unit", "sentence"], "--min-unit"),
            ("semantic", ["--theta", "900", "--max-tokens", "100"], "--theta, --max-tokens"),
            ("lumber", ["--max-tokens", "100", "--embed-cache", "e.jsonl"], "--max-tokens, --embed-cache"),
            ("lumber", ["--percentile", "80", "--min-unit", "paragraph"], "--percentile, --min-unit"),
            ("proposition", ["--theta", "550"], "--theta"),
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
        "argv, removed",
        [
            (["chunk", "--document", "{book}", "--method", "lumber", "--output-dir", "{out}"],
             "--min-tail-paragraphs 3 --id-width 5"),
            (["sweep", "--documents", "{book}", "--qa", "{qa}", "--output-dir", "{out}"],
             "--min-tail-paragraphs 3 --id-width 5"),
            (["chunk", "--document", "{book}", "--method", "lumber", "--output-dir", "{out}"],
             "--max-retries 1 --model-id m"),
            (["chunk", "--document", "{book}", "--method", "semantic", "--output-dir", "{out}"],
             "--embed-dim 16 --embed-seed 3"),
            (["chunk", "--document", "{book}", "--method", "proposition", "--output-dir", "{out}"],
             "--model-id m"),
            (["eval", "--chunks", "{book}", "--qa", "{qa}", "--output-dir", "{out}"],
             "--model-id m --embed-dim 16 --embed-seed 3"),
            (["sweep", "--documents", "{book}", "--qa", "{qa}", "--output-dir", "{out}"],
             "--max-retries 1 --model-id m --embed-dim 16 --embed-seed 3"),
            (["rag", "--chunks", "{book}", "--questions", "{qa}", "--output-dir", "{out}"],
             "--model-id m --embed-dim 16 --embed-seed 3"),
            (["gen-qa", "--document", "{book}", "-n", "1", "--output", "{out}"], "--model-id m"),
            (["ingest", "--input", "{book}", "--output", "{out}/book.jsonl"], "--title T"),
        ],
        ids=["chunk-lumber", "sweep", "chunk-lumber-retries", "chunk-semantic", "chunk-proposition",
             "eval", "sweep-retries", "rag", "gen-qa", "ingest-title"],
    )
    def test_removed_lumber_flags_are_unrecognized(
        self, tmp_path, book_records, qa_file, argv, removed, capsys
    ):
        out = tmp_path / "out"
        paths = {"book": book_records, "qa": qa_file, "out": out}
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(**paths) for arg in argv] + removed.split())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {removed}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["chunk", "--document", "{book}", "--method", "recursive", "--output-dir", "{out}"],
             "--ma 100"),
            (["chunk", "--document", "{book}", "--method", "lumber", "--output-dir", "{out}"],
             "--the 900"),
            (["ingest", "--input", "{book}", "--output", "{out}/book.jsonl"], "--out {out}/o.jsonl"),
        ],
        ids=["max-tokens", "theta", "output"],
    )
    def test_flag_prefixes_are_unrecognized(self, tmp_path, book_records, argv, prefix, capsys):
        out = tmp_path / "out"
        paths = {"book": book_records, "out": out}
        extra = prefix.format(**paths).split()
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(**paths) for arg in argv] + extra)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(extra)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_removed_rag_answer_alias_is_an_invalid_command(
        self, tmp_path, book_records, qa_file, capsys
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["rag-answer", "--chunks", str(book_records), "--questions", str(qa_file),
                  "--output-dir", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'rag-answer'" in err
        assert "Traceback" not in err
        assert not out.exists()


class CountingHydeBackend(CompletionBackend):
    """Writes a hypothetical passage per question, counting calls per prompt.

    Replies are delayed by a few ms chosen from the prompt hash, so
    concurrent rewrites finish out of order.
    """

    def __init__(self, passages: dict[str, str]):
        self.passages = passages
        self.lock = threading.Lock()
        self.calls: dict[str, int] = {}

    def complete(self, prompt: str) -> str:
        time.sleep(hashlib.sha256(prompt.encode("utf-8")).digest()[0] / 255 * 0.004)
        with self.lock:
            self.calls[prompt] = self.calls.get(prompt, 0) + 1
        question = prompt.rsplit("Question: ", 1)[1]
        return self.passages[question]


class TestHydeRewrites:
    def test_bad_ks_ends_the_run_before_any_rewrite(
        self, tmp_path, book_records, qa_file, monkeypatch, capsys
    ):
        backend = CountingHydeBackend({})
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        out = tmp_path / "eval"
        code = main(
            ["eval", "--chunks", str(chunk_path), "--qa", str(qa_file), "--hyde", "--ks", "0",
             "--output-dir", str(out)]
        )
        error = _one_error_line(code, capsys.readouterr().err)
        assert "ks must be non-empty, distinct and each >= 1, got [0]" in error
        assert backend.calls == {}
        assert not out.exists()

    def test_one_rewrite_per_question_for_all_chunk_files(
        self, tmp_path, book_records, monkeypatch
    ):
        monkeypatch.setattr(parallel, "WORKERS", 4)
        document = load_document(book_records, "paragraph_records")
        pairs = [
            QAPair("book", f"what happens in part {i}?", "a", document.paragraphs[i])
            for i in range(10)
        ]
        pairs.append(pairs[3])  # a repeated question is rewritten once too
        qa_path = tmp_path / "qa.jsonl"
        write_qa(pairs, qa_path)
        passages = {pair.question: document.paragraphs[(i * 7) % 12] for i, pair in enumerate(pairs)}
        chunk_files = TestEvalCommand().make_chunk_files(tmp_path, book_records)

        # the reference: one sequential rewrite per question, then each file in turn
        sequential = CountingHydeBackend(passages)
        rewrites = {pair.question: hyde_transform(pair.question, sequential) for pair in pairs}
        rewritten = [dataclasses.replace(pair, question=rewrites[pair.question]) for pair in pairs]
        expected = [
            evaluate(
                [read_chunks(path)], rewritten, MockEmbeddingBackend(), method=path.stem + "+hyde"
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

    def test_one_pool_rewrites_only_questions_some_file_scores(self, tmp_path, monkeypatch):
        # file one holds document a, file two document b; document c is in no file
        from lumberkit.baselines import paragraph_chunks

        documents = {doc_id: make_document([30] * 4, doc_id=doc_id) for doc_id in "abc"}
        chunk_files = []
        for doc_id in "ab":
            chunk_files.append(tmp_path / f"{doc_id}.jsonl")
            write_chunks(paragraph_chunks(documents[doc_id]), chunk_files[-1])
        asked = [("a", "q1"), ("a", "shared"), ("b", "shared"), ("b", "q2"), ("c", "q3")]
        pairs = [
            QAPair(doc_id, question, "x", documents[doc_id].paragraphs[i % 4])
            for i, (doc_id, question) in enumerate(asked)
        ]
        write_qa(pairs, tmp_path / "qa.jsonl")
        passages = {question: f"a passage about {question}" for _, question in asked}
        backend = CountingHydeBackend(passages)
        embedder = RecordingEmbeddingBackend()
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        monkeypatch.setattr(cli, "_embedding_backend", lambda args: embedder)
        pools = []

        class CountedPool(parallel.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountedPool)
        code = main(
            ["eval", "--chunks", *map(str, chunk_files), "--qa", str(tmp_path / "qa.jsonl"),
             "--hyde", "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0
        scored = ["q1", "shared", "q2"]
        assert backend.calls == {HYDE_PROMPT_TEMPLATE.format(query=q): 1 for q in scored}
        chunk_texts = {c.text for path in chunk_files for c in read_chunks(path)}
        embedded = [text for call in embedder.calls for text in call if text not in chunk_texts]
        assert embedded == [passages[q] for q in ("q1", "shared", "shared", "q2")]
        assert len(pools) == 1


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chunk", "--document", "{book}", "--method", "recursive", "--max-tokens", "0",
             "--output-dir", "{out}"],
            ["eval", "--chunks", "{chunks}", "--qa", "{qa}", "--ks", "0", "--output-dir", "{out}"],
            ["eval", "--chunks", "{chunks}", "--qa", "{qa}", "--ks", "5", "5", "1",
             "--output-dir", "{out}"],
            ["sweep", "--documents", "{book}", "--qa", "{qa}", "--thetas", "0",
             "--replay-cache", "{cache}", "--output-dir", "{out}"],
            ["gen-qa", "--document", "{book}", "-n", "-1", "--replay-cache", "{cache}",
             "--output", "{out}"],
        ],
        ids=["max-tokens", "ks", "ks-duplicate", "thetas", "gen-qa-n"],
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


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


_COMPLETION_FLAGS = [
    (flag, None, None, False, None)
    for flag in ("--replay-cache", "--backend-url", "--model", "--record-cache")
]
_EMBEDDING_FLAGS = [
    (flag, None, None, False, None) for flag in ("--embed-url", "--embed-model", "--embed-cache")
]
# each command's flags in parser order, as hand-built parsers declared them
# before the parsers were built from cli._FLAGS: (option, nargs, type,
# required, choices); --hyde is a store_true flag, whose nargs is 0
PARSER_FLAGS = {
    "ingest": [
        ("--input", None, None, True, None),
        ("--format", None, None, False, ["plain_text", "paragraph_records"]),
        ("--doc-id", None, None, False, None),
        ("--output", None, None, True, None),
    ],
    "chunk": [
        ("--document", None, None, True, None),
        ("--method", None, None, True, ["paragraph", "recursive", "semantic", "lumber",
                                        "proposition"]),
        ("--theta", None, int, False, None),
        ("--max-tokens", None, int, False, None),
        ("--percentile", None, float, False, None),
        ("--min-unit", None, None, False, ["sentence", "paragraph"]),
        ("--output-dir", None, None, True, None),
        *_COMPLETION_FLAGS,
        *_EMBEDDING_FLAGS,
    ],
    "eval": [
        ("--chunks", "+", None, True, None),
        ("--qa", None, None, True, None),
        ("--ks", "+", int, False, None),
        ("--hyde", 0, None, False, None),
        ("--output-dir", None, None, True, None),
        *_COMPLETION_FLAGS,
        *_EMBEDDING_FLAGS,
    ],
    "sweep": [
        ("--documents", "+", None, True, None),
        ("--qa", None, None, True, None),
        ("--thetas", "+", int, False, None),
        ("--ks", "+", int, False, None),
        ("--output-dir", None, None, True, None),
        *_COMPLETION_FLAGS,
        *_EMBEDDING_FLAGS,
    ],
    "rag": [
        ("--chunks", None, None, True, None),
        ("--questions", None, None, True, None),
        ("--output-dir", None, None, True, None),
        *_COMPLETION_FLAGS,
        *_EMBEDDING_FLAGS,
    ],
    "gen-qa": [
        ("--document", None, None, True, None),
        ("-n", None, int, True, None),
        ("--seed", None, int, False, None),
        ("--output", None, None, True, None),
        *_COMPLETION_FLAGS,
    ],
}


def _read_options(command: str) -> set[str]:
    """The option strings of every flag some _READS row of command reads."""
    return {
        ("-" if len(name) == 1 else "--") + name.replace("_", "-")
        for row, names in cli._READS.items()
        if row.split()[0] == command
        for name in names
    }


class TestFlagTable:
    def test_built_parsers_take_the_flags_the_hand_built_ones_took(self):
        built = {
            command: [
                (" ".join(a.option_strings), a.nargs, a.type, a.required,
                 None if a.choices is None else list(a.choices))
                for a in subparser._actions
                if a.dest != "help"
            ]
            for command, subparser in _subparsers(cli.build_parser()).items()
        }
        assert built == PARSER_FLAGS

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_exits_0_and_names_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"] if command is None else [command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        names = ["--quiet", *cli._COMMANDS] if command is None else _read_options(command)
        for name in names:
            assert re.search(rf"(?<![\w-]){re.escape(name)}\b", out), name

    def test_every_flag_is_read_by_a_row_and_every_row_names_real_flags(self):
        subparsers = _subparsers(cli.build_parser())
        commands = {row.split()[0] for row in cli._READS}
        assert set(subparsers) == commands
        for command in commands:
            dests = {a.dest for a in subparsers[command]._actions if a.dest != "help"}
            read = set()
            for row, names in cli._READS.items():
                if row.split()[0] == command:
                    read.update(names)
            assert read == dests, command

    def test_readme_table_is_the_reads_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Which flags each command reads", 1)[1].split("\n## ", 1)[0]
        table = {}
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            command, own, *groups = (cell.strip() for cell in line.strip("|").split("|"))
            flags = re.findall(r"`([^`]+)`", own)
            if own.startswith("the same"):  # the flags of the command's first row, plus these
                flags = base + flags
            else:
                base = flags
            table[re.match(r"`([^`]+)`", command).group(1)] = (flags, [g == "yes" for g in groups])
        groups = (*cli._COMPLETION, *cli._EMBEDDING)
        expected = {
            row: (
                [("-" if len(name) == 1 else "--") + name.replace("_", "-")
                 for name in names if name not in groups],
                [set(group) <= set(names) for group in (cli._COMPLETION, cli._EMBEDDING)],
            )
            for row, names in cli._READS.items()
        }
        assert table == expected

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
        assert "re-run the same command" not in errors[0]  # no answer was recorded
        assert not (out / "reports.jsonl").exists()


def _one_error_line(code: int, err: str) -> str:
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    return errors[0]


class TestNonUtf8Input:
    """A 0xE9 byte in any input file is named with its file and line."""

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
        assert error == f"error: {qa_path}, line 2: not valid UTF-8"

    def test_delimited_qa_cell_past_the_field_limit_names_its_line(
        self, tmp_path, book_records, capsys
    ):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        qa_path = tmp_path / "qa.csv"
        # a quote left open on line 2 runs its cell on through the 20,000 rows after it
        rows = ['book,"q,a,p'] + ["book,q,a,p"] * 20_000
        qa_path.write_text(
            "doc_id,question,answer,supporting_passage\n" + "\n".join(rows) + "\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        code = main(["eval", "--chunks", str(chunk_path), "--qa", str(qa_path), "--output-dir",
                     str(out)])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == f"error: {qa_path}, line 2: field larger than field limit (131072)"
        assert not out.exists()

    def test_delimited_qa_row_with_extra_cells_names_its_line(
        self, tmp_path, book_records, capsys
    ):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        qa_path = tmp_path / "qa.csv"
        qa_path.write_text(
            "doc_id,question,answer,supporting_passage\nbook,q,a,p,extra\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        code = main(["eval", "--chunks", str(chunk_path), "--qa", str(qa_path), "--output-dir",
                     str(out)])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == f"error: {qa_path}, line 2: 5 cells under a 4-column header"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["qa.csv", "qa.tsv", "book.txt"])
    def test_bad_byte_past_the_first_read_names_its_line(
        self, tmp_path, book_records, name, capsys
    ):
        # the decoder reads 8 KB ahead; the error names the line, not that offset
        bad, out = tmp_path / name, tmp_path / "out"
        if name == "book.txt":
            lines = [f"Sentence {i} of the book." for i in range(1, 1001)]
            argv = ["ingest", "--input", str(bad), "--output", str(out / "book.jsonl")]
        else:
            sep = "\t" if name == "qa.tsv" else ","
            lines = [sep.join(("doc_id", "question", "answer", "supporting_passage"))]
            lines += [sep.join(("book", f"question {i}?", "a", "p")) for i in range(1, 1000)]
            chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
            argv = ["eval", "--chunks", str(chunk_path), "--qa", str(bad), "--output-dir", str(out)]
        data = [line.encode("utf-8") + b"\n" for line in lines]
        data[700] = b"\xe9" + data[700]
        assert len(b"".join(data[:700])) > 8192
        bad.write_bytes(b"".join(data))
        error = _one_error_line(main(argv), capsys.readouterr().err)
        assert error == f"error: {bad}, line 701: not valid UTF-8"
        assert not out.exists()


LONE_SURROGATE = "a \\u escape holds a lone surrogate, which is not text"
CHUNK_ID_RANGE = "bad chunk record: chunk_id must be in [0, 2**63), got 9223372036854775808"
BAD_SPAN = "bad chunk record: invalid paragraph span [3, 2]"
NEGATIVE_TOKENS = "bad chunk record: token_count must be >= 0"


class TestTextAndIdsThatOutputsCannotHold:
    """Text that no UTF-8 output can hold, a chunk_id that retrieval cannot rank, and
    a chunk span or token count that no chunker writes stop where they enter: one
    error line naming the file and line, or the flag. A lone surrogate in a
    completion reply becomes U+FFFD instead."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["ingest", "--input", "{surrogate_records}", "--format", "paragraph_records",
              "--output", "{out}/book.jsonl"], "{surrogate_records}, line 2: " + LONE_SURROGATE),
            (["chunk", "--document", "{surrogate_records}", "--method", "paragraph",
              "--output-dir", "{out}"], "{surrogate_records}, line 2: " + LONE_SURROGATE),
            (["eval", "--chunks", "{chunks}", "--qa", "{surrogate_qa}", "--output-dir", "{out}"],
             "{surrogate_qa}, line 2: " + LONE_SURROGATE),
            (["rag", "--chunks", "{surrogate_chunks}", "--questions", "{qa}", "--replay-cache",
              "{cache}", "--output-dir", "{out}"], "{surrogate_chunks}, line 2: " + LONE_SURROGATE),
            (["ingest", "--input", "{records}", "--format", "paragraph_records", "--doc-id",
              "\udcff", "--output", "{out}/book.jsonl"], "--doc-id is not valid UTF-8: '\\udcff'"),
            (["chunk", "--document", "{records}", "--method", "lumber", "--replay-cache", "{cache}",
              "--model", "\udcff", "--output-dir", "{out}"], "--model is not valid UTF-8"),
            (["eval", "--chunks", "{chunks}", "--qa", "{qa}", "--embed-url", "http://127.0.0.1:9",
              "--embed-model", "\udcff", "--output-dir", "{out}"],
             "--embed-model is not valid UTF-8"),
            (["rag", "--chunks", "{chunks}", "--questions", "{qa}", "--replay-cache", "{cache}",
              "--output-dir", "{out}\udcff"], "--output-dir is not valid UTF-8"),
            (["eval", "--chunks", "{chunks}", "{big_id_chunks}", "--qa", "{qa}", "--output-dir",
              "{out}"], "{big_id_chunks}, line 2: " + CHUNK_ID_RANGE),
            (["rag", "--chunks", "{big_id_chunks}", "--questions", "{qa}", "--replay-cache",
              "{cache}", "--output-dir", "{out}"], "{big_id_chunks}, line 2: " + CHUNK_ID_RANGE),
            (["eval", "--chunks", "{bad_span_chunks}", "--qa", "{qa}", "--output-dir", "{out}"],
             "{bad_span_chunks}, line 2: " + BAD_SPAN),
            (["rag", "--chunks", "{bad_span_chunks}", "--questions", "{qa}", "--replay-cache",
              "{cache}", "--output-dir", "{out}"], "{bad_span_chunks}, line 2: " + BAD_SPAN),
            (["eval", "--chunks", "{negative_chunks}", "--qa", "{qa}", "--output-dir", "{out}"],
             "{negative_chunks}, line 2: " + NEGATIVE_TOKENS),
            (["rag", "--chunks", "{negative_chunks}", "--questions", "{qa}", "--replay-cache",
              "{cache}", "--output-dir", "{out}"], "{negative_chunks}, line 2: " + NEGATIVE_TOKENS),
            (["chunk", "--document", "{records}", "--method", "lumber", "--backend-url",
              "http://127.0.0.1:9", "--model", "m", "--record-cache", "{record}",
              "--output-dir", "{out}"], None),
        ],
        ids=["ingest-text", "chunk-text", "eval-text", "rag-text", "ingest-argv", "chunk-argv",
             "eval-argv", "rag-argv", "eval-chunk-id", "rag-chunk-id", "eval-span", "rag-span",
             "eval-token-count", "rag-token-count", "chunk-reply"],
    )
    def test_one_error_line_or_u_fffd(
        self, tmp_path, book_records, qa_file, monkeypatch, argv, named, capsys
    ):
        def exchange(client, request):
            prompt = json.loads(request.partition(b"\r\n\r\n")[2])["messages"][0]["content"]
            # as the wire carries it: an escaped surrogate pair, then a lone half
            content = last_id_responder(prompt) + " \\ud83d\\ude00 \\ud83d"
            return json.loads('{"choices": [{"message": {"content": "%s"}}]}' % content)

        monkeypatch.setattr(backends._JsonClient, "_exchange", exchange)
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        cache_path = tmp_path / "empty.jsonl"
        cache_path.write_bytes(b"")
        paths = {
            "records": book_records, "chunks": chunk_path, "qa": qa_file, "cache": cache_path,
            "record": tmp_path / "record.jsonl", "out": tmp_path / "out",
        }
        line_2_edits = {  # name: (source, text in line 2, its replacement)
            "surrogate_records": (book_records, '"text": "', '"text": "\\ud800'),
            "surrogate_qa": (qa_file, '"question": "', '"question": "\\udc80'),
            "surrogate_chunks": (chunk_path, '"text": "', '"text": "\\ud800'),
            "big_id_chunks": (chunk_path, '"chunk_id": 1,', '"chunk_id": 9223372036854775808,'),
            "bad_span_chunks": (chunk_path, '"start_para": 2,', '"start_para": 3,'),
            "negative_chunks": (chunk_path, '"token_count": 54,', '"token_count": -1,'),
        }
        for name, (source, old, new) in line_2_edits.items():
            first, second, *rest = source.read_text(encoding="utf-8").splitlines(keepends=True)
            assert old in second
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(first + second.replace(old, new) + "".join(rest), "utf-8")
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        if named is None:
            assert code == 0, err
            recorded = paths["record"].read_text(encoding="utf-8")
            assert recorded.count("\U0001f600 \ufffd") == len(ResponseCache(paths["record"], "m"))
            return
        error = _one_error_line(code, err)
        assert error.startswith("error: " + named.format(**paths))
        assert not paths["out"].exists()


class TestConflictingRecords:
    """Records that parse but contradict their file end in one error line naming it."""

    @staticmethod
    def argv(command: str, chunks: Path, qa: Path, tmp_path: Path) -> list[str]:
        if command == "eval":
            argv = ["eval", "--chunks", str(chunks), "--qa", str(qa)]
        else:
            replay = tmp_path / "empty.jsonl"
            replay.write_bytes(b"")
            argv = ["rag", "--chunks", str(chunks), "--questions", str(qa), "--replay-cache", str(replay)]
        return [*argv, "--output-dir", str(tmp_path / "out")]

    @pytest.mark.parametrize("command", ["eval", "rag"])
    def test_repeated_chunk_id_names_its_line(self, tmp_path, book_records, qa_file, command, capsys):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        first, second, third, *_ = chunk_path.read_text(encoding="utf-8").splitlines(keepends=True)
        repeat = {**json.loads(third), "chunk_id": json.loads(first)["chunk_id"]}
        duplicated = tmp_path / "dup.jsonl"
        duplicated.write_text(first + second + json.dumps(repeat) + "\n", encoding="utf-8")
        code = main(self.argv(command, duplicated, qa_file, tmp_path))
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == f"error: {duplicated}, line 3: chunk ('book', 0) repeats the chunk on line 1"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "rag"])
    def test_reappearing_document_names_its_line(
        self, tmp_path, book_records, qa_file, command, capsys
    ):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        first, second, third, *_ = chunk_path.read_text(encoding="utf-8").splitlines(keepends=True)
        other = json.dumps({**json.loads(first), "doc_id": "other"}) + "\n"
        interleaved = tmp_path / "interleaved.jsonl"
        interleaved.write_text(first + second + other + third, encoding="utf-8")
        code = main(self.argv(command, interleaved, qa_file, tmp_path))
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == (
            f"error: {interleaved}, line 4: document 'book' reappears after another document's records"
        )
        assert not (tmp_path / "out").exists()

    def test_rag_question_without_chunks_is_refused_before_any_call(
        self, tmp_path, book_records, qa_file, monkeypatch, capsys
    ):
        backend = FailingBackend()
        embedders = []

        def counting_embedder(args):
            embedders.append(CountingEmbeddingBackend())
            return embedders[-1]

        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        monkeypatch.setattr(cli, "_embedding_backend", counting_embedder)
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        lines = qa_file.read_text(encoding="utf-8").splitlines(keepends=True)
        lost = json.dumps({**json.loads(lines[0]), "doc_id": "lost"}) + "\n"
        qa_path = tmp_path / "lost.jsonl"
        qa_path.write_text(lines[0] + lost + "".join(lines[1:]), encoding="utf-8")
        code = main(["rag", "--chunks", str(chunk_path), "--questions", str(qa_path),
                     "--backend-url", "http://127.0.0.1:9", "--model", "m",
                     "--output-dir", str(tmp_path / "out")])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == f"error: {qa_path}, question 2: document 'lost' has no chunks in {chunk_path}"
        assert backend.calls == 0
        assert sum(embedder.calls for embedder in embedders) == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "rag"])
    @pytest.mark.parametrize(
        "lengths, lazy, reason",
        [
            ([2], False, "{cache} holds vectors of length 2, but the embedder returns length 64"),
            ([64, 63], False,
             "{cache}, line 2: vector has length 63, but earlier vectors have length 64"),
            # the embedder learns its length from its first reply, and the cache
            # answers every chunk, so only a question's vector can reveal the clash
            ([2] * 64, True,
             "{cache} holds vectors of length 2, but the embedder returns length 64"),
        ],
        ids=["embedder", "file", "embedder-of-unknown-length"],
    )
    def test_embed_cache_vectors_of_another_length(
        self, tmp_path, book_records, qa_file, monkeypatch, command, lengths, lazy, reason, capsys
    ):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        texts = [chunk.text for chunk in read_chunks(chunk_path)]
        if lazy:
            assert len(lengths) >= len(texts)
            monkeypatch.setattr(cli, "_embedding_backend", lambda args: LazyLengthEmbedder())
        cache = tmp_path / "embed.jsonl"
        cache.write_text(
            "".join(
                json.dumps({"key": prompt_key("mock:64:0", text), "vector": [1.0] * length}) + "\n"
                for text, length in zip(texts, lengths)
            ),
            encoding="utf-8",
        )
        argv = self.argv(command, chunk_path, qa_file, tmp_path)
        code = main([*argv, "--embed-cache", str(cache)])
        error = _one_error_line(code, capsys.readouterr().err)
        assert error == "error: " + reason.format(cache=cache)


class LazyLengthEmbedder(EmbeddingBackend):
    """The default mock embedder, with dimension 0 until its first reply, as
    HttpEmbeddingBackend has."""

    def __init__(self):
        self.inner = MockEmbeddingBackend()
        self.backend_id = self.inner.backend_id
        self.dimension = 0

    def embed(self, texts):
        rows = self.inner.embed(texts)
        self.dimension = rows.shape[1]
        return rows


def embed_cache_reply(prompt: str) -> str:
    """A pure reply to every prompt that sweep, rag and eval --hyde send."""
    if prompt.startswith(PROMPT_HEADER):
        return last_id_responder(prompt)
    return recordable_reply(prompt)


class TestEmbedCache:
    """--embed-cache holds every text a command embeds: chunks, questions,
    HyDE rewrites and semantic units."""

    @pytest.mark.parametrize("command", ["eval", "eval-hyde", "sweep", "rag", "chunk-semantic"])
    def test_warm_run_embeds_nothing_and_changes_no_output(
        self, tmp_path, book_records, qa_file, monkeypatch, command
    ):
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[1]
        argv = {
            "eval": ["eval", "--chunks", str(chunk_path), "--qa", str(qa_file)],
            "eval-hyde": ["eval", "--chunks", str(chunk_path), "--qa", str(qa_file), "--hyde"],
            "sweep": ["sweep", "--documents", str(book_records), "--qa", str(qa_file),
                      "--thetas", "200", "550"],
            "rag": ["rag", "--chunks", str(chunk_path), "--questions", str(qa_file)],
            "chunk-semantic": ["chunk", "--document", str(book_records), "--method", "semantic"],
        }[command]
        backend = ScriptedBackend(embed_cache_reply)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        embedders = []

        def counting_embedder(args):
            embedders.append(CountingEmbeddingBackend())
            return embedders[-1]

        monkeypatch.setattr(cli, "_embedding_backend", counting_embedder)

        def run(name, *flags):
            out_dir = tmp_path / name
            assert main([*argv, *flags, "--output-dir", str(out_dir)]) == 0
            outputs = {}
            for path in sorted(out_dir.iterdir()):
                text = path.read_text(encoding="utf-8")
                if path.name == "run_config.json":
                    record = json.loads(text.replace(str(out_dir), "{out}"))
                    assert record["flags"].pop("embed_cache") == (flags[1] if flags else None)
                    outputs[path.name] = record
                elif path.name != "timing.json":  # wall-clock seconds
                    outputs[path.name] = re.sub(r', "chunking_seconds": [^,}]+', "", text)
            return outputs, embedders[-1].calls

        cache, second_cache = tmp_path / "embed.jsonl", tmp_path / "embed-again.jsonl"
        plain, _ = run("plain")
        cold, cold_calls = run("cold", "--embed-cache", str(cache))
        recorded = cache.read_bytes()
        warm, warm_calls = run("warm", "--embed-cache", str(cache))
        again, _ = run("again", "--embed-cache", str(second_cache))
        assert cold_calls > 0 and warm_calls == 0
        assert "run_config.json" in plain and len(plain) > 1
        assert cold == warm == again == plain
        assert cache.read_bytes() == recorded == second_cache.read_bytes()


class TestRagDropsEmbedder:
    """rag frees its embedder, and any --embed-cache store, before BM25 is built."""

    @pytest.mark.parametrize("embed_cache", [False, True], ids=["mock", "embed-cache"])
    def test_unreachable_when_bm25_is_built(
        self, tmp_path, book_records, qa_file, monkeypatch, embed_cache
    ):
        backend = ScriptedBackend(embed_cache_reply)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        refs = []

        def embedding_backend(args):
            embedder = MockEmbeddingBackend()
            refs.append(weakref.ref(embedder))
            return embedder

        def tracking_embed_chunks(chunks, embedder):
            if embed_cache:  # the CachingEmbedder and its store
                refs.extend([weakref.ref(embedder), weakref.ref(embedder.cache)])
            return embed_chunks(chunks, embedder)

        def checked_bm25_build(chunks):
            assert len(refs) == (3 if embed_cache else 1)
            assert [ref() for ref in refs] == [None] * len(refs)
            built.append(len(chunks))
            return bm25_build(chunks)

        built = []
        monkeypatch.setattr(cli, "_embedding_backend", embedding_backend)
        monkeypatch.setattr(cli, "embed_chunks", tracking_embed_chunks)
        monkeypatch.setattr(cli, "bm25_build", checked_bm25_build)
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[1]
        argv = ["rag", "--chunks", str(chunk_path), "--questions", str(qa_file),
                "--output-dir", str(tmp_path / "out")]
        if embed_cache:
            argv += ["--embed-cache", str(tmp_path / "embed.jsonl")]
        assert main(argv) == 0
        assert built == [len(read_chunks(chunk_path))]


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


def test_sweep_rejects_a_repeated_theta_before_reading_input(
    tmp_path, book_records, qa_file, monkeypatch, capsys
):
    backend = CountingBackend(last_id_responder)
    monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
    monkeypatch.setattr(cli, "load_document", mock.Mock(side_effect=AssertionError("read")))
    out_dir = tmp_path / "out"
    code = main(
        ["sweep", "--documents", str(book_records), "--qa", str(qa_file), "--thetas", "450", "450",
         "--backend-url", "http://127.0.0.1:9", "--model", "m", "--output-dir", str(out_dir)]
    )
    assert _one_error_line(code, capsys.readouterr().err) == "error: --thetas repeats 450"
    assert backend.calls == 0
    assert not out_dir.exists()


def test_eval_rejects_one_chunk_file_named_twice_before_reading_input(
    tmp_path, book_records, qa_file, monkeypatch, capsys
):
    chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_qa", mock.Mock(side_effect=AssertionError("read")))
    monkeypatch.setattr(cli, "iter_documents", mock.Mock(side_effect=AssertionError("read")))
    code = main(
        ["eval", "--chunks", chunk_path.name, f"./{chunk_path.name}", "--qa", str(qa_file),
         "--output-dir", "out"]
    )
    error = _one_error_line(code, capsys.readouterr().err)
    assert error == "error: --chunks repeats paragraph.jsonl as ./paragraph.jsonl"
    assert not (tmp_path / "out").exists()


class TestSweepScoringFailure:
    THETAS = ("200", "300", "400", "500")
    WAIT_S = 10  # bounds every wait below, so a broken order fails instead of hanging

    class SlowCountingBackend(CompletionBackend):
        """Answers each split with its last ID after 2 ms; counts calls thread-safely.

        With a gate, a worker's first split call of its second theta (the
        second window it sends that starts at ID 1) reports the worker as
        parked, then waits for the gate before it is counted.
        """

        def __init__(self, gate: threading.Event | None = None):
            self.lock = threading.Lock()
            self.calls = 0
            self.gate = gate
            self.parked = threading.Semaphore(0)
            self.starts: dict[int, int] = {}  # thread id -> windows sent from ID 1

        def complete(self, prompt: str) -> str:
            if self.gate is not None and prompt_ids(prompt)[0] == 1:
                thread = threading.get_ident()
                self.starts[thread] = self.starts.get(thread, 0) + 1
                if self.starts[thread] == 2:
                    self.parked.release()
                    self.gate.wait(TestSweepScoringFailure.WAIT_S)
            with self.lock:
                self.calls += 1
            time.sleep(0.002)
            return last_id_responder(prompt)

    class DyingEmbedder(CountingEmbeddingBackend):
        """Raises on call fail_on; given parked, first waits for every worker to park."""

        def __init__(self, fail_on: int | None, parked: threading.Semaphore | None = None):
            super().__init__()
            self.fail_on = fail_on
            self.parked = parked

        def embed(self, texts):
            if self.calls + 1 == self.fail_on:
                for _ in range(parallel.WORKERS if self.parked else 0):
                    self.parked.acquire(timeout=TestSweepScoringFailure.WAIT_S)
                raise BackendError("embedding endpoint went away")
            return super().embed(texts)

    def run_sweep(self, tmp_path, monkeypatch, fail_on, backend):
        paths = []
        pairs = []
        for d in range(4):
            document = make_document([40] * 30, doc_id=f"doc{d}")
            paths.append(tmp_path / f"doc{d}.jsonl")
            write_document(document, paths[-1])
            pairs += [QAPair(f"doc{d}", f"q{i}?", "a", document.paragraphs[i]) for i in (2, 20)]
        qa_path = tmp_path / "qa.jsonl"
        write_qa(pairs, qa_path)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        monkeypatch.setattr(
            cli, "_embedding_backend", lambda args: self.DyingEmbedder(fail_on, backend.parked)
        )
        return main(
            ["sweep", "--documents", *map(str, paths), "--qa", str(qa_path),
             "--thetas", *self.THETAS, "--backend-url", "http://127.0.0.1:9", "--model", "m",
             "--output-dir", str(tmp_path / f"out-{fail_on}")]
        )

    def test_embedder_dying_mid_sweep_stops_the_workers(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(parallel, "WORKERS", 2)
        document = make_document([40] * 30)
        per_theta = []
        for theta in self.THETAS:
            counting = CountingBackend(last_id_responder)
            lumberchunk(document, ChunkerConfig(theta=int(theta)), counting)
            per_theta.append(counting.calls)
        healthy = self.SlowCountingBackend()
        assert self.run_sweep(tmp_path, monkeypatch, None, healthy) == 0
        assert healthy.calls == 4 * sum(per_theta)
        capsys.readouterr()

        # Each worker chunks its document at theta 200, then parks on its
        # first split call at theta 300. Call 1 embeds the first scored
        # document's chunks; call 2, its questions, fails once both workers
        # are parked. The gate opens when stream_map shuts its pool down,
        # which is after it has told the workers to stop.
        gate = threading.Event()

        class GatedPool(parallel.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                gate.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", GatedPool)
        threads = threading.active_count()
        backend = self.SlowCountingBackend(gate)
        code = self.run_sweep(tmp_path, monkeypatch, 2, backend)
        calls_at_exit = backend.calls
        error = _one_error_line(code, capsys.readouterr().err)
        assert error.startswith("error: embedding failed for texts 0..")
        assert error.endswith(": embedding endpoint went away")
        assert threading.active_count() == threads
        time.sleep(0.05)
        assert backend.calls == calls_at_exit
        # two of the four documents were started, and each stopped after its
        # current theta (300) instead of chunking all four
        assert calls_at_exit == 2 * (per_theta[0] + per_theta[1])
        assert not (tmp_path / "out-2").exists()


class TestNumbersTooLongForInt:
    """A reply holding a run of more digits than int() converts is unusable, not
    a traceback: a split answer falls back, a rerank index is dropped."""

    LONG = "9" * 5000

    def test_split_answer_retries_then_falls_back(self, tmp_path, book_records, monkeypatch):
        backend = CountingBackend(lambda prompt: "Answer: ID " + self.LONG)
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
        out_dir = tmp_path / "out"
        assert main(["chunk", "--document", str(book_records), "--method", "lumber",
                     "--theta", "200", "--backend-url", "http://127.0.0.1:9", "--model", "m",
                     "--output-dir", str(out_dir)]) == 0
        chunks = read_chunks(out_dir / "chunks.jsonl")
        # every window is asked 1 + MAX_RETRIES times, then becomes one chunk
        assert backend.calls == 4 * sum(chunk.paragraph_count > 1 for chunk in chunks)
        assert [(chunk.start_para, chunk.end_para) for chunk in chunks] == [
            (1, 4), (5, 8), (9, 12)
        ]

    def test_rerank_index_is_dropped(self, tmp_path, book_records, qa_file, monkeypatch):
        def respond(prompt):
            return self.LONG if prompt.startswith("Order the numbered") else "an answer"

        monkeypatch.setattr(
            cli, "_completion_backend", lambda args, needed_for: ScriptedBackend(respond)
        )
        chunk_path = TestEvalCommand().make_chunk_files(tmp_path, book_records)[0]
        argv = ["rag", "--chunks", str(chunk_path), "--questions", str(qa_file),
                "--backend-url", "http://127.0.0.1:9", "--model", "m", "--output-dir"]
        assert main([*argv, str(tmp_path / "long")]) == 0
        # a reply with no usable index keeps the retrieval order, as "none" does
        monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: ScriptedBackend(
            lambda prompt: "none" if prompt.startswith("Order the numbered") else "an answer"
        ))
        assert main([*argv, str(tmp_path / "none")]) == 0
        answers = (tmp_path / "long" / "answers.jsonl").read_text(encoding="utf-8")
        assert answers == (tmp_path / "none" / "answers.jsonl").read_text(encoding="utf-8")


class TestEvalMemory:
    """eval holds the chunks of one document at a time, whatever the file holds."""

    @staticmethod
    def write_documents(path: Path, count: int) -> None:
        # equal documents: the same texts under other doc_ids, so the mock
        # embedder's token table is the same size for one document as for six;
        # paragraphs share their words, so that table stays small
        document = Document("doc", tuple(f"p{i} {words(99)}" for i in range(300)))
        write_chunks(
            [
                dataclasses.replace(chunk, doc_id=f"doc{d}")
                for d in range(count)
                for chunk in paragraph_chunks(document)
            ],
            path,
        )
        questions = [
            QAPair(f"doc{d}", "which words?", "a", document.paragraphs[7]) for d in range(count)
        ]
        write_qa(questions, path.with_suffix(".qa.jsonl"))

    @staticmethod
    def traced(work) -> tuple[int, int]:
        """(retained, peak) bytes that work allocates, measured from zero."""
        tracemalloc.start()
        try:
            result = work()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return retained, peak

    def test_peak_is_one_documents_chunks(self, tmp_path):
        one, six = tmp_path / "one.jsonl", tmp_path / "six.jsonl"
        self.write_documents(one, 1)
        self.write_documents(six, 6)
        document_bytes, _ = self.traced(lambda: read_chunks(one))

        def peak_of_eval(path: Path) -> int:
            argv = ["--quiet", "eval", "--chunks", str(path), "--qa",
                    str(path.with_suffix(".qa.jsonl")), "--output-dir", str(path.with_suffix(""))]
            return self.traced(lambda: main(argv))[1]

        peak_of_eval(one)  # warm-up: imports and caches
        assert document_bytes > 150_000
        # holding a second document at once would add document_bytes
        assert peak_of_eval(six) - peak_of_eval(one) < document_bytes / 2
