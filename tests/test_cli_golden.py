"""Byte-for-byte records of every CLI command and chunk method.

Each case runs one command in-process, with a scripted completion backend in
place of a live or replayed one, and compares what it writes with the records
spelled out below: the run record (run_config.json, or <output>.run.json for
ingest and gen-qa) for every command, plus stats.json for chunk, summary.json
and answers.jsonl for rag and the QA file of gen-qa. A second test runs every
row of the CLI's flag table and checks that its run record lists exactly the
flags the row reads, and a third runs eval and rag over one chunk file that
holds two documents.
"{tmp}" stands for the test's tmp_path. A JSON record is expected as indent-2
text with sorted keys, no ASCII escaping and a trailing newline; a JSONL file
as one compact record per line.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from conftest import last_id_responder, make_document, words
from lumberkit import cli
from lumberkit.backends import MockEmbeddingBackend, ScriptedBackend
from lumberkit.baselines import RecursiveConfig, SemanticConfig, paragraph_chunks
from lumberkit.chunker import PROMPT_HEADER, ChunkerConfig, write_chunks
from lumberkit.cli import main
from lumberkit.corpus import Document, QAPair, write_document, write_qa


def golden_reply(prompt: str) -> str:
    """A pure reply to every prompt the CLI sends."""
    if prompt.startswith(PROMPT_HEADER):
        return last_id_responder(prompt)
    if prompt.startswith("You are given an excerpt"):
        excerpt = prompt.rsplit("Passage:", 1)[1].split()
        return (
            f"Question: What comes after {excerpt[0]}?\nAnswer: {excerpt[1]}\n"
            f"Supporting Passage: {' '.join(excerpt[:10])}"
        )
    if prompt.startswith("Rewrite the passage"):
        passage = prompt.rsplit("Passage:", 1)[1].split()
        return f"{' '.join(passage[:3])}.\n\n{' '.join(passage[3:7])}."
    if "Order the numbered documents" in prompt:
        return "2, 1, 3"
    return f"answer {hashlib.sha256(prompt.encode('utf-8')).hexdigest()[:8]}"


@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    """The book as text and as records, three questions and a chunk file.

    Every completion comes from golden_reply; a command given --embed-url
    embeds with the default mock, so no case opens a connection.
    """
    document = make_document([40] * 12, doc_id="book")
    (tmp_path / "book.txt").write_text(
        "\n\n".join(document.paragraphs) + "\n", encoding="utf-8"
    )
    write_document(document, tmp_path / "book.jsonl")
    write_qa(
        [
            QAPair("book", "What did Joshua Haldeman study?", "p2w1", document.paragraphs[1]),
            QAPair("book", "what happened next?", "answer 0cced83a", document.paragraphs[7]),
            QAPair("book", "third thing?", "a3", document.paragraphs[10]),
        ],
        tmp_path / "qa.jsonl",
    )
    write_chunks(paragraph_chunks(document), tmp_path / "paragraph.jsonl")
    backend = ScriptedBackend(golden_reply)
    monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
    embedding_backend = cli._embedding_backend
    monkeypatch.setattr(
        cli,
        "_embedding_backend",
        lambda args: MockEmbeddingBackend() if args.embed_url else embedding_backend(args),
    )
    return tmp_path


NO_COMPLETION = {"replay_cache": None, "backend_url": None, "model": None, "record_cache": None}
REPLAY = NO_COMPLETION | {"replay_cache": "{tmp}/replay.jsonl"}
LIVE_FLAGS = ["--backend-url", "http://127.0.0.1:9", "--model", "m"]
LIVE = NO_COMPLETION | {"backend_url": "http://127.0.0.1:9", "model": "m",
                        "record_cache": "{tmp}/record.jsonl"}
MOCK = {"embed_url": None, "embed_model": None, "embed_cache": None}
HTTP_FLAGS = ["--embed-url", "http://127.0.0.1:9", "--embed-model", "em"]
HTTP = {"embed_url": "http://127.0.0.1:9", "embed_model": "em", "embed_cache": None}
KS = [1, 2, 5, 10, 20]
RAG_SUMMARY = {"qa_accuracy": 33.333333333333336, "questions": 3}
RAG_ANSWERS = [
    {"question": "What did Joshua Haldeman study?", "mentions": ["Joshua Haldeman"], "bm25_k": 3,
     "retrieved": [10, 6, 7, 3, 8], "answer": "answer ae0a0674"},
    {"question": "what happened next?", "mentions": [], "bm25_k": 1,
     "retrieved": [0, 9, 5, 1, 8], "answer": "answer 0cced83a"},
    {"question": "third thing?", "mentions": [], "bm25_k": 1,
     "retrieved": [1, 8, 5, 11, 7], "answer": "answer d53eeb35"},
]


def chunk_case(method, argv, flags, stats):
    out = "{tmp}/out"
    return ["chunk", "--document", "{tmp}/book.jsonl", "--method", method, *argv,
            "--output-dir", out], {
        "out/run_config.json": {
            "command": "chunk",
            "flags": {"document": "{tmp}/book.jsonl", "method": method, "output_dir": out,
                      **flags},
        },
        "out/stats.json": stats,
    }


PARAGRAPH_STATS = {
    "count": 12, "mean_tokens": 54.0, "min_tokens": 54, "max_tokens": 54, "mean_paragraphs": 1.0,
}
SEMANTIC_STATS = {
    "count": 2, "mean_tokens": 320.0, "min_tokens": 320, "max_tokens": 320, "mean_paragraphs": 6.0,
}
SEMANTIC_DEFAULTS = {"percentile": 95.0, "min_unit": "paragraph"}
EVAL = {"chunks": ["{tmp}/paragraph.jsonl"], "qa": "{tmp}/qa.jsonl", "ks": KS, "hyde": False,
        "output_dir": "{tmp}/out"}
SWEEP = {"documents": ["{tmp}/book.jsonl"], "qa": "{tmp}/qa.jsonl", "output_dir": "{tmp}/out"}
RAG = {"chunks": "{tmp}/paragraph.jsonl", "questions": "{tmp}/qa.jsonl",
       "output_dir": "{tmp}/out"}

CASES = {
    "ingest": (
        ["ingest", "--input", "{tmp}/book.txt", "--doc-id", "book",
         "--output", "{tmp}/out/book.jsonl"],
        {
            "out/book.jsonl.run.json": {
                "command": "ingest",
                "flags": {"input": "{tmp}/book.txt", "format": "plain_text", "doc_id": "book",
                          "output": "{tmp}/out/book.jsonl"},
            },
        },
    ),
    "chunk-paragraph": chunk_case("paragraph", [], {}, PARAGRAPH_STATS),
    "chunk-recursive": chunk_case(
        "recursive", [], {"max_tokens": 450},
        {"count": 2, "mean_tokens": 320.5, "min_tokens": 214, "max_tokens": 427,
         "mean_paragraphs": 6.0},
    ),
    "chunk-recursive-flags": chunk_case(
        "recursive", ["--max-tokens", "100"], {"max_tokens": 100}, PARAGRAPH_STATS
    ),
    "chunk-semantic": chunk_case("semantic", [], SEMANTIC_DEFAULTS | MOCK, SEMANTIC_STATS),
    "chunk-semantic-flags": chunk_case(
        "semantic",
        ["--percentile", "80", "--min-unit", "sentence"],
        {"percentile": 80.0, "min_unit": "sentence"} | MOCK,
        {"count": 3, "mean_tokens": 213.66666666666666, "min_tokens": 107, "max_tokens": 320,
         "mean_paragraphs": 4.0},
    ),
    "chunk-semantic-http": chunk_case(
        "semantic", HTTP_FLAGS, SEMANTIC_DEFAULTS | HTTP, SEMANTIC_STATS
    ),
    "chunk-lumber": chunk_case(
        "lumber",
        ["--replay-cache", "{tmp}/replay.jsonl"],
        {"theta": 550} | REPLAY,
        {"count": 2, "mean_tokens": 320.5, "min_tokens": 107, "max_tokens": 534,
         "mean_paragraphs": 6.0},
    ),
    "chunk-lumber-flags": chunk_case(
        "lumber",
        ["--theta", "120", *LIVE_FLAGS, "--record-cache", "{tmp}/record.jsonl"],
        {"theta": 120} | LIVE,
        {"count": 6, "mean_tokens": 107.0, "min_tokens": 107, "max_tokens": 107,
         "mean_paragraphs": 2.0},
    ),
    "chunk-proposition": chunk_case(
        "proposition",
        ["--replay-cache", "{tmp}/replay.jsonl"],
        REPLAY,
        {"count": 24, "mean_tokens": 5.0, "min_tokens": 4, "max_tokens": 6,
         "mean_paragraphs": 1.0},
    ),
    "eval": (
        ["eval", "--chunks", "{tmp}/paragraph.jsonl", "--qa", "{tmp}/qa.jsonl",
         "--output-dir", "{tmp}/out"],
        {"out/run_config.json": {"command": "eval", "flags": EVAL | MOCK}},
    ),
    "eval-flags": (
        ["eval", "--chunks", "{tmp}/paragraph.jsonl", "--qa", "{tmp}/qa.jsonl", "--ks", "1", "5",
         "--embed-cache", "{tmp}/embed.jsonl", "--output-dir", "{tmp}/out"],
        {
            "out/run_config.json": {
                "command": "eval",
                "flags": EVAL | MOCK | {"ks": [1, 5], "embed_cache": "{tmp}/embed.jsonl"},
            },
        },
    ),
    "eval-hyde": (
        ["eval", "--chunks", "{tmp}/paragraph.jsonl", "--qa", "{tmp}/qa.jsonl", "--hyde",
         *LIVE_FLAGS, "--record-cache", "{tmp}/record.jsonl", "--output-dir", "{tmp}/out"],
        {"out/run_config.json": {"command": "eval", "flags": EVAL | {"hyde": True} | LIVE | MOCK}},
    ),
    "sweep": (
        ["sweep", "--documents", "{tmp}/book.jsonl", "--qa", "{tmp}/qa.jsonl",
         "--replay-cache", "{tmp}/replay.jsonl", "--output-dir", "{tmp}/out"],
        {
            "out/run_config.json": {
                "command": "sweep",
                "flags": SWEEP | {"thetas": [450, 550, 650, 1000], "ks": KS} | REPLAY | MOCK,
            },
        },
    ),
    "sweep-flags": (
        ["sweep", "--documents", "{tmp}/book.jsonl", "--qa", "{tmp}/qa.jsonl",
         "--thetas", "650", "120", "--ks", "1", *LIVE_FLAGS,
         "--record-cache", "{tmp}/record.jsonl",
         "--embed-cache", "{tmp}/embed.jsonl", "--output-dir", "{tmp}/out"],
        {
            "out/run_config.json": {
                "command": "sweep",
                "flags": SWEEP | {"thetas": [650, 120], "ks": [1]} | LIVE
                | MOCK | {"embed_cache": "{tmp}/embed.jsonl"},
            },
        },
    ),
    "rag": (
        ["rag", "--chunks", "{tmp}/paragraph.jsonl", "--questions", "{tmp}/qa.jsonl",
         "--replay-cache", "{tmp}/replay.jsonl", "--output-dir", "{tmp}/out"],
        {
            "out/run_config.json": {"command": "rag", "flags": RAG | REPLAY | MOCK},
            "out/summary.json": RAG_SUMMARY,
            "out/answers.jsonl": RAG_ANSWERS,
        },
    ),
    "rag-flags": (
        ["rag", "--chunks", "{tmp}/paragraph.jsonl", "--questions", "{tmp}/qa.jsonl",
         *LIVE_FLAGS, "--record-cache", "{tmp}/record.jsonl", *HTTP_FLAGS,
         "--embed-cache", "{tmp}/embed.jsonl", "--output-dir", "{tmp}/out"],
        {
            "out/run_config.json": {
                "command": "rag",
                "flags": RAG | LIVE | HTTP | {"embed_cache": "{tmp}/embed.jsonl"},
            },
            "out/summary.json": RAG_SUMMARY,
            "out/answers.jsonl": RAG_ANSWERS,
        },
    ),
    "gen-qa": (
        ["gen-qa", "--document", "{tmp}/book.jsonl", "-n", "2", "--seed", "11",
         *LIVE_FLAGS, "--record-cache", "{tmp}/record.jsonl", "--output", "{tmp}/out/qa.jsonl"],
        {
            "out/qa.jsonl.run.json": {
                "command": "gen-qa",
                "flags": {"document": "{tmp}/book.jsonl", "n": 2, "seed": 11,
                          "output": "{tmp}/out/qa.jsonl"} | LIVE,
            },
            "out/qa.jsonl": [
                {"doc_id": "book", "question": "What comes after p7w0?", "answer": "p7w1",
                 "supporting_passage": "p7w0 p7w1 p7w2 p7w3 p7w4 p7w5 p7w6 p7w7 p7w8 p7w9"},
                {"doc_id": "book", "question": "What comes after p4w0?", "answer": "p4w1",
                 "supporting_passage": "p4w0 p4w1 p4w2 p4w3 p4w4 p4w5 p4w6 p4w7 p4w8 p4w9"},
            ],
        },
    ),
}


def expected_bytes(expected, tmp) -> str:
    if isinstance(expected, list):
        text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in expected)
    else:
        text = json.dumps(expected, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    return text.replace("{tmp}", str(tmp))


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_the_records(inputs, case):
    argv, files = CASES[case]
    assert main([arg.replace("{tmp}", str(inputs)) for arg in argv]) == 0
    for name, expected in files.items():
        assert (inputs / name).read_text(encoding="utf-8") == expected_bytes(expected, inputs), name
    timing = inputs / "out" / "timing.json"
    if argv[0] == "chunk":
        assert re.fullmatch(r'\{\n  "seconds": [0-9.e-]+\n\}\n', timing.read_text(encoding="utf-8"))


CHUNK_ARGV = ["chunk", "--document", "{tmp}/book.jsonl", "--output-dir", "{tmp}/out", "--method"]
# the fewest flags each row of cli._READS runs with; the fixture supplies the backends
ROW_ARGV = {
    "ingest": ["ingest", "--input", "{tmp}/book.txt", "--output", "{tmp}/out/book.jsonl"],
    **{f"chunk --method {method}": [*CHUNK_ARGV, method]
       for method in ("paragraph", "recursive", "semantic", "lumber", "proposition")},
    "eval": ["eval", "--chunks", "{tmp}/paragraph.jsonl", "--qa", "{tmp}/qa.jsonl",
             "--output-dir", "{tmp}/out"],
    "eval --hyde": ["eval", "--chunks", "{tmp}/paragraph.jsonl", "--qa", "{tmp}/qa.jsonl",
                    "--hyde", "--output-dir", "{tmp}/out"],
    "sweep": ["sweep", "--documents", "{tmp}/book.jsonl", "--qa", "{tmp}/qa.jsonl",
              "--output-dir", "{tmp}/out"],
    "rag": ["rag", "--chunks", "{tmp}/paragraph.jsonl", "--questions", "{tmp}/qa.jsonl",
            "--output-dir", "{tmp}/out"],
    "gen-qa": ["gen-qa", "--document", "{tmp}/book.jsonl", "-n", "1",
               "--output", "{tmp}/out/qa.jsonl"],
}
METHOD_DEFAULTS = {
    "theta": ChunkerConfig().theta,
    "max_tokens": RecursiveConfig().max_tokens,
    "percentile": SemanticConfig().breakpoint_percentile,
    "min_unit": SemanticConfig().min_unit,
}


@pytest.mark.parametrize(
    "row, embed_http",
    [pytest.param(row, False, id=row) for row in cli._READS]
    + [
        pytest.param(row, True, id=f"{row} --embed-url")
        for row, reads in cli._READS.items()
        if "embed_url" in reads
    ],
)
def test_run_record_lists_the_rows_flags_resolved(inputs, row, embed_http):
    argv = ROW_ARGV[row] + (HTTP_FLAGS if embed_http else [])
    assert main([arg.replace("{tmp}", str(inputs)) for arg in argv]) == 0
    name = {"ingest": "book.jsonl.run.json", "gen-qa": "qa.jsonl.run.json"}.get(argv[0])
    record = json.loads((inputs / "out" / (name or "run_config.json")).read_text(encoding="utf-8"))
    assert record["command"] == argv[0]
    flags = record["flags"]
    assert set(flags) == set(cli._READS[row])
    for method_flag, default in METHOD_DEFAULTS.items():
        if method_flag in flags:
            assert flags[method_flag] == default and default is not None
    if "embed_url" in flags:
        assert flags["embed_url"] == ("http://127.0.0.1:9" if embed_http else None)


# a chunk file that holds document a's paragraph chunks, then document b's
TWO_DOC_QUESTIONS = [
    QAPair("b", "What did Maye Haldeman find in b3?", "b3w1", "b3w0 b3w1 b3w2 b3w3"),
    QAPair("a", "what came first?", "a1w1", "a1w0 a1w1 a1w2"),
    QAPair("b", "what came last?", "b6w2", "b6w0 b6w1 b6w2 b6w3"),
]
TWO_DOC_THIRD = 33.333333333333336
TWO_DOC_REPORT = {
    "method": "two", "ks": KS,
    "dcg": {"1": TWO_DOC_THIRD, "2": TWO_DOC_THIRD, "5": 60.58431217693116,
            "10": 60.58431217693116, "20": 60.58431217693116},
    "recall": {"1": TWO_DOC_THIRD, "2": TWO_DOC_THIRD, "5": 100.0, "10": 100.0, "20": 100.0},
    "query_count": 3,
}
TWO_DOC_ANSWERS = [
    {"question": "What did Maye Haldeman find in b3?", "mentions": ["Maye Haldeman"], "bm25_k": 3,
     "retrieved": [0, 1, 4, 3, 2], "answer": "answer b2aaf57f"},
    {"question": "what came first?", "mentions": [], "bm25_k": 1,
     "retrieved": [1, 0, 2, 4, 3], "answer": "answer 6538fb94"},
    {"question": "what came last?", "mentions": [], "bm25_k": 1,
     "retrieved": [3, 4, 1, 0, 2], "answer": "answer 1d2546e5"},
]


def test_two_documents_in_one_chunk_file(inputs, monkeypatch):
    """eval scores, and rag retrieves, each question among its own document's
    chunks only: no prompt about one document holds text of the other."""
    documents = [
        Document(doc_id, tuple(words(30, tag=f"{doc_id}{i}w") for i in range(1, 7)))
        for doc_id in ("a", "b")
    ]
    chunks = [chunk for document in documents for chunk in paragraph_chunks(document)]
    write_chunks(chunks, inputs / "two.jsonl")
    write_qa(TWO_DOC_QUESTIONS, inputs / "two-qa.jsonl")
    prompts = []

    def recording_reply(prompt):
        prompts.append(prompt)
        return golden_reply(prompt)

    backend = ScriptedBackend(recording_reply)
    monkeypatch.setattr(cli, "_completion_backend", lambda args, needed_for: backend)
    files = ["--chunks", f"{inputs}/two.jsonl", "--output-dir"]
    assert main(["eval", *files, f"{inputs}/eval", "--qa", f"{inputs}/two-qa.jsonl"]) == 0
    assert main(["rag", *files, f"{inputs}/rag", "--questions", f"{inputs}/two-qa.jsonl",
                 "--replay-cache", f"{inputs}/replay.jsonl"]) == 0
    for name, expected in {
        "eval/reports.jsonl": [TWO_DOC_REPORT],
        "rag/answers.jsonl": TWO_DOC_ANSWERS,
        "rag/summary.json": {"qa_accuracy": 0.0, "questions": 3},
    }.items():
        assert (inputs / name).read_text(encoding="utf-8") == expected_bytes(expected, inputs), name
    # a rerank and an answer prompt per question, each holding only its document's text
    assert len(prompts) == 2 * len(TWO_DOC_QUESTIONS)
    for prompt in prompts:
        (pair,) = [pair for pair in TWO_DOC_QUESTIONS if pair.question in prompt]
        other = "b" if pair.doc_id == "a" else "a"
        assert re.search(rf"\b{pair.doc_id}\d+w", prompt)
        assert not re.search(rf"\b{other}\d+w", prompt)
