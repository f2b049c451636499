"""Retrieval scoring: relevance judging, DCG@k and Recall@k, and the theta sweep.

Both metrics live on a 0-100 scale. Each question carries a single gold
passage, so DCG@k reduces to 100 / log2(rank + 1) when the gold chunk sits at
rank <= k and 0 otherwise, averaged over questions; at k=1 that equals
Recall@1 exactly.
"""

from __future__ import annotations

import functools
import logging
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .backends import CompletionBackend, EmbeddingBackend
from .chunker import Chunk, ChunkerConfig, lumberchunk
from .corpus import Document, QAPair, write_jsonl
from .errors import ConfigError, LumberkitError
from .index import cosine_topk, embed_chunks, embed_texts
from .parallel import stream_map

logger = logging.getLogger(__name__)

DEFAULT_KS = (1, 2, 5, 10, 20)
DEFAULT_THETAS = (450, 550, 650, 1000)
# judge_relevance's rule, read at each call: a chunk holding 80% of the
# passage's word trigrams is relevant.
NGRAM_SIZE = 3
NGRAM_THRESHOLD = 0.8


class EvaluationError(LumberkitError):
    """Problem while scoring retrieval runs."""


@dataclass(frozen=True)
class RetrievalRun:
    """One scored question: the ranking it saw and where the gold chunk sat."""

    qa: QAPair
    ranked_chunks: tuple[Chunk, ...]
    gold_rank: int | None

    def __post_init__(self) -> None:
        if self.gold_rank is not None and self.gold_rank < 1:
            raise ValueError(f"gold_rank must be >= 1 or None, got {self.gold_rank}")


@dataclass(frozen=True)
class MetricsReport:
    """DCG@k and Recall@k for one method over one question set."""

    method: str
    ks: tuple[int, ...]
    dcg: Mapping[int, float]
    recall: Mapping[int, float]
    query_count: int
    chunking_seconds: float | None = None
    theta: int | None = None


_PUNCTUATION_RE = re.compile(r"[^\w\s]")


def normalize_for_matching(text: str) -> str:
    """Lowercase, turn punctuation into spaces, collapse whitespace runs."""
    return " ".join(_PUNCTUATION_RE.sub(" ", text.lower()).split())


def judge_relevance(text: str, passage: str) -> bool:
    """Decide whether a chunk's text contains a QA pair's supporting passage.

    Both arguments must already be normalized by normalize_for_matching. The
    text is relevant if the passage is a direct substring, or if at least
    NGRAM_THRESHOLD of the passage's word NGRAM_SIZE-grams occur in the text.
    Passages shorter than NGRAM_SIZE words rely on the substring rule alone,
    and an empty passage is never relevant.

    Normalized texts are whitespace-free words joined by single spaces, so a
    word n-gram occurs in the text's word list exactly when " w1 ... wn " is
    a substring of the text padded with one space on each side. Counting
    stops once even a hit on every remaining n-gram could not reach the
    threshold; the final ratio could only be lower, so the answer is exact.
    """
    if not passage:
        return False
    if passage in text:
        return True
    ngram_size, ngram_threshold = NGRAM_SIZE, NGRAM_THRESHOLD
    passage_words = passage.split()
    total = len(passage_words) - ngram_size + 1
    if total < 1:
        return False
    padded = f" {text} "
    hits = 0
    for start in range(total):
        if f" {' '.join(passage_words[start : start + ngram_size])} " in padded:
            hits += 1
        elif (hits + total - start - 1) / total < ngram_threshold:
            return False
    return hits / total >= ngram_threshold


def check_ks(ks: Sequence[int]) -> None:
    """Raise ConfigError unless the metric cutoffs are non-empty, distinct and each >= 1."""
    if not ks or min(ks) < 1 or len(set(ks)) != len(ks):
        raise ConfigError(f"ks must be non-empty, distinct and each >= 1, got {list(ks)}")


def _check_runs_and_k(runs: Sequence[RetrievalRun], k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not runs:
        raise EvaluationError("no runs to score")


def dcg_at_k(runs: Sequence[RetrievalRun], k: int) -> float:
    """Mean single-gold DCG on the 0-100 scale."""
    _check_runs_and_k(runs, k)
    total = 0.0
    for run in runs:
        if run.gold_rank is not None and run.gold_rank <= k:
            total += 100.0 / math.log2(run.gold_rank + 1)
    return total / len(runs)


def recall_at_k(runs: Sequence[RetrievalRun], k: int) -> float:
    """Percentage of runs whose gold chunk appears within the top k."""
    _check_runs_and_k(runs, k)
    within = sum(1 for run in runs if run.gold_rank is not None and run.gold_rank <= k)
    return 100.0 * within / len(runs)


def build_runs(
    chunks: Sequence[Chunk],
    qa_pairs: Sequence[QAPair],
    embed_backend: EmbeddingBackend,
    *,
    depth: int = max(DEFAULT_KS),
) -> list[RetrievalRun]:
    """Rank the questions of qa_pairs about one document against its chunks.

    Runs come back in question order. The chunks are embedded only if there
    is such a question, the questions through one embed_texts. A gold rank is
    the first ranked chunk that judge_relevance, looked up at every call,
    accepts; each distinct text is normalized once per call.
    """
    if not chunks:
        raise EvaluationError("no chunks to rank against")
    questions = [qa for qa in qa_pairs if qa.doc_id == chunks[0].doc_id]
    if not questions:
        return []
    index = embed_chunks(chunks, embed_backend)
    query_vectors = embed_texts([qa.question for qa in questions], embed_backend)
    normalize = functools.cache(normalize_for_matching)
    runs = []
    for qa, query_vector in zip(questions, query_vectors, strict=True):
        ranked = tuple(chunk for chunk, _score in cosine_topk(index, query_vector, depth))
        passage = normalize(qa.supporting_passage)
        judged = (judge_relevance(normalize(chunk.text), passage) for chunk in ranked)
        gold_rank = next((rank for rank, hit in enumerate(judged, start=1) if hit), None)
        runs.append(RetrievalRun(qa, ranked, gold_rank))
    return runs


def _report(qa_pairs: Sequence[QAPair], ranks: Mapping[str, list], ks, **fields) -> MetricsReport:
    """Fold each scored document's gold ranks into a report over qa_pairs, in their
    order; one warning counts the questions whose document was not scored."""
    pending = {doc_id: iter(found) for doc_id, found in ranks.items()}
    runs = [RetrievalRun(qa, (), next(pending.get(qa.doc_id, iter(())), None)) for qa in qa_pairs]
    missing = sum(qa.doc_id not in pending for qa in qa_pairs)
    if missing:
        logger.warning("%d question(s) referenced documents with no chunks", missing)
    return report_from_runs(runs, ks, **fields)


def report_from_runs(
    runs: Sequence[RetrievalRun],
    ks: Sequence[int] = DEFAULT_KS,
    *,
    method: str = "",
    chunking_seconds: float | None = None,
    theta: int | None = None,
) -> MetricsReport:
    """Assemble the per-k metric tables from scored runs."""
    ks = tuple(ks)
    return MetricsReport(
        method=method,
        ks=ks,
        dcg={k: dcg_at_k(runs, k) for k in ks},
        recall={k: recall_at_k(runs, k) for k in ks},
        query_count=len(runs),
        chunking_seconds=chunking_seconds,
        theta=theta,
    )


def evaluate(
    documents: Iterable[Sequence[Chunk]],
    qa_pairs: Sequence[QAPair],
    embed_backend: EmbeddingBackend,
    ks: Sequence[int] = DEFAULT_KS,
    *,
    method: str = "",
) -> MetricsReport:
    """Score one chunking method: rank every question, then fold into metrics.

    documents yields each document's chunks once, as iter_documents does (a
    second list for one doc_id raises EvaluationError), and each question is
    ranked against its own document's chunks with build_runs. Ranking depth
    is max(ks). ks must be distinct.
    """
    check_ks(ks)
    gold_ranks: dict[str, list[int | None]] = {}
    for chunks in documents:
        if chunks and chunks[0].doc_id in gold_ranks:
            raise EvaluationError(f"document {chunks[0].doc_id!r} is given twice")
        runs = build_runs(chunks, qa_pairs, embed_backend, depth=max(ks))
        gold_ranks[chunks[0].doc_id] = [run.gold_rank for run in runs]
        del chunks, runs  # hold no chunks while the next document is read
    return _report(qa_pairs, gold_ranks, ks, method=method)


def sweep_theta(
    documents: Sequence[Document],
    qa_pairs: Sequence[QAPair],
    thetas: Sequence[int],
    backend: CompletionBackend,
    embed_backend: EmbeddingBackend,
    *,
    ks: Sequence[int] = DEFAULT_KS,
) -> list[MetricsReport]:
    """Chunk every document at each theta and evaluate each result.

    Reports come back sorted by ascending theta, labeled
    "lumberchunker(θ=<value>)", each carrying its chunking time summed over
    the documents. Documents are chunked concurrently, each on one worker
    that runs its thetas in ascending order: windows recur across thetas, and
    only that order makes a later theta replay the earlier theta's cached
    answer with the same backend calls as a sequential run. The calling thread
    scores each document's chunks at one theta with build_runs as soon as they
    exist, while the workers go on chunking, so chunking times include waits
    for the interpreter lock that scoring holds. A scoring failure stops the
    workers after their current theta. Empty qa_pairs or duplicate doc_ids raise
    EvaluationError and empty or repeated thetas or bad ks raise ConfigError,
    all before any chunking.
    """
    if not thetas or len(set(thetas)) != len(thetas):
        raise ConfigError(f"thetas must be non-empty and distinct, got {list(thetas)}")
    check_ks(ks)
    if not qa_pairs:
        raise EvaluationError("no questions to score")
    doc_ids = [document.doc_id for document in documents]
    repeated = [doc_id for doc_id in doc_ids if doc_ids.count(doc_id) > 1]
    if repeated:
        raise EvaluationError(f"duplicate doc_id {repeated[0]!r} in sweep documents")
    ordered = sorted(thetas)
    gold_ranks: list[dict[str, list[int | None]]] = [{} for _ in ordered]
    seconds = [0.0] * len(ordered)

    def chunk_document(document: Document) -> Iterator[tuple[int, list[Chunk], float]]:
        for step, theta in enumerate(ordered):
            started = time.perf_counter()
            chunks = lumberchunk(document, ChunkerConfig(theta=theta), backend)
            yield step, chunks, time.perf_counter() - started

    def score_document(_index: int, chunked: tuple[int, list[Chunk], float]) -> None:
        step, chunks, took = chunked
        seconds[step] += took
        runs = build_runs(chunks, qa_pairs, embed_backend, depth=max(ks))
        gold_ranks[step][chunks[0].doc_id] = [run.gold_rank for run in runs]

    stream_map(chunk_document, documents, score_document)
    return [
        _report(qa_pairs, ranks, ks, method=f"lumberchunker(θ={theta})", theta=theta,
                chunking_seconds=seconds[step])
        for step, (theta, ranks) in enumerate(zip(ordered, gold_ranks))
    ]


def format_report_table(reports: Sequence[MetricsReport]) -> str:
    """Render reports as a plain-text comparison table."""
    if not reports:
        raise EvaluationError("no reports to format")
    ks = reports[0].ks
    for report in reports:
        if report.ks != ks:
            raise EvaluationError("all reports in one table must share the same ks")
    headers = ["method"] + [f"DCG@{k}" for k in ks] + [f"Recall@{k}" for k in ks]
    rows = [
        [report.method]
        + [f"{report.dcg[k]:.2f}" for k in ks]
        + [f"{report.recall[k]:.2f}" for k in ks]
        for report in reports
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        for col in range(len(headers))
    ]

    def fmt(cells: list[str]) -> str:
        padded = [cells[0].ljust(widths[0])] + [
            cell.rjust(widths[col]) for col, cell in enumerate(cells) if col > 0
        ]
        return "  ".join(padded)

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def report_to_record(report: MetricsReport) -> dict:
    """Flatten a report into a JSON-serializable record."""
    record: dict = {
        "method": report.method,
        "ks": list(report.ks),
        "dcg": {str(k): report.dcg[k] for k in report.ks},
        "recall": {str(k): report.recall[k] for k in report.ks},
        "query_count": report.query_count,
    }
    if report.chunking_seconds is not None:
        record["chunking_seconds"] = report.chunking_seconds
    if report.theta is not None:
        record["theta"] = report.theta
    return record


def write_reports(reports: Iterable[MetricsReport], path: str | Path) -> None:
    """Write one JSON record per report, machine-readable for plotting."""
    write_jsonl(map(report_to_record, reports), path)
