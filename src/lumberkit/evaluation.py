"""Retrieval scoring: relevance judging, DCG@k and Recall@k, and the theta sweep.

Both metrics live on a 0-100 scale. Each question carries a single gold
passage, so DCG@k reduces to 100 / log2(rank + 1) when the gold chunk sits at
rank <= k and 0 otherwise, averaged over questions; at k=1 that equals
Recall@1 exactly.
"""

from __future__ import annotations

import json
import logging
import math
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .backends import CompletionBackend, EmbeddingBackend, EmbeddingCache, ResponseCache
from .chunker import Chunk, ChunkerConfig, lumberchunk
from .corpus import Document, QAPair, TokenCounter
from .errors import LumberkitError
from .index import VectorIndex, cosine_topk, embed_chunks
from .parallel import ordered_map

logger = logging.getLogger(__name__)

DEFAULT_KS = (1, 2, 5, 10, 20)
DEFAULT_THETAS = (450, 550, 650, 1000)

RelevanceJudge = Callable[[Chunk, QAPair], bool]
QueryTransform = Callable[[str], str]


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

    def __post_init__(self) -> None:
        for table in (self.dcg, self.recall):
            for k, value in table.items():
                if not 0.0 <= value <= 100.0:
                    raise ValueError(f"metric value {value} at k={k} outside [0, 100]")


_PUNCTUATION_RE = re.compile(r"[^\w\s]")


def normalize_for_matching(text: str) -> str:
    """Lowercase, turn punctuation into spaces, collapse whitespace runs."""
    return " ".join(_PUNCTUATION_RE.sub(" ", text.lower()).split())


def judge_relevance(
    chunk: Chunk,
    qa: QAPair,
    *,
    ngram_size: int = 3,
    ngram_threshold: float = 0.8,
) -> bool:
    """Decide whether a chunk contains the QA pair's supporting passage.

    Both texts are normalized first. The chunk is relevant if the passage is
    a direct substring, or if at least ngram_threshold of the passage's word
    n-grams occur in the chunk. Passages shorter than ngram_size words rely on
    the substring rule alone.
    """
    passage = normalize_for_matching(qa.supporting_passage)
    text = normalize_for_matching(chunk.text)
    if not passage:
        return False
    if passage in text:
        return True
    passage_words = passage.split()
    if len(passage_words) < ngram_size:
        return False
    chunk_words = text.split()
    chunk_grams = {
        tuple(chunk_words[i : i + ngram_size])
        for i in range(len(chunk_words) - ngram_size + 1)
    }
    passage_grams = [
        tuple(passage_words[i : i + ngram_size])
        for i in range(len(passage_words) - ngram_size + 1)
    ]
    hits = sum(1 for gram in passage_grams if gram in chunk_grams)
    return hits / len(passage_grams) >= ngram_threshold


def _check_runs_and_k(runs: Sequence[RetrievalRun], k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
    query_transform: QueryTransform | None = None,
    *,
    depth: int = max(DEFAULT_KS),
    judge: RelevanceJudge | None = None,
    embed_cache: EmbeddingCache | None = None,
) -> list[RetrievalRun]:
    """Rank each question against its own document's chunks.

    Chunks are grouped by doc_id and embedded once per document. Questions
    whose doc_id has no chunks get an absent gold rank and a warning. The
    gold rank is the first position, scanning down the ranking, whose chunk
    the judge accepts.
    """
    judge = judge or judge_relevance
    by_doc: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        by_doc.setdefault(chunk.doc_id, []).append(chunk)
    indexes: dict[str, VectorIndex] = {}
    runs: list[RetrievalRun] = []
    missing = 0
    for qa in qa_pairs:
        doc_chunks = by_doc.get(qa.doc_id)
        if not doc_chunks:
            runs.append(RetrievalRun(qa, (), None))
            missing += 1
            continue
        index = indexes.get(qa.doc_id)
        if index is None:
            index = embed_chunks(doc_chunks, embed_backend, embed_cache)
            indexes[qa.doc_id] = index
        query_text = query_transform(qa.question) if query_transform else qa.question
        query_vector = embed_backend.embed([query_text])[0]
        ranked = cosine_topk(index, query_vector, depth)
        gold_rank = None
        for position, (chunk, _score) in enumerate(ranked, start=1):
            if judge(chunk, qa):
                gold_rank = position
                break
        runs.append(RetrievalRun(qa, tuple(chunk for chunk, _ in ranked), gold_rank))
    if missing:
        logger.warning("%d question(s) referenced documents with no chunks", missing)
    return runs


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
    chunks: Sequence[Chunk],
    qa_pairs: Sequence[QAPair],
    embed_backend: EmbeddingBackend,
    query_transform: QueryTransform | None = None,
    ks: Sequence[int] = DEFAULT_KS,
    *,
    judge: RelevanceJudge | None = None,
    method: str = "",
    chunking_seconds: float | None = None,
    theta: int | None = None,
    embed_cache: EmbeddingCache | None = None,
) -> MetricsReport:
    """Score one chunking method: rank every question, then fold into metrics.

    query_transform, when given, rewrites the question text before embedding
    (the HyDE route); ranking depth is max(ks).
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    runs = build_runs(
        chunks,
        qa_pairs,
        embed_backend,
        query_transform,
        depth=max(ks),
        judge=judge,
        embed_cache=embed_cache,
    )
    return report_from_runs(
        runs, ks, method=method, chunking_seconds=chunking_seconds, theta=theta
    )


def sweep_theta(
    documents: Sequence[Document],
    qa_pairs: Sequence[QAPair],
    thetas: Sequence[int],
    backend: CompletionBackend,
    embed_backend: EmbeddingBackend,
    *,
    config: ChunkerConfig | None = None,
    counter: TokenCounter | None = None,
    cache: ResponseCache | None = None,
    ks: Sequence[int] = DEFAULT_KS,
    judge: RelevanceJudge | None = None,
    embed_cache: EmbeddingCache | None = None,
) -> list[MetricsReport]:
    """Chunk every document at each theta and evaluate each result.

    Reports come back sorted by ascending theta, labeled
    "lumberchunker(θ=<value>)", each carrying its chunking time summed over
    the documents. Documents are chunked concurrently, each on one worker
    that runs its thetas in ascending order: windows recur across thetas, and
    only that order makes a later theta replay the earlier theta's cached
    answer with the same backend calls as a sequential run. Duplicate doc_ids
    raise EvaluationError.
    """
    if not thetas:
        raise ValueError("thetas must be non-empty")
    seen: set[str] = set()
    for document in documents:
        if document.doc_id in seen:
            raise EvaluationError(f"duplicate doc_id {document.doc_id!r} in sweep documents")
        seen.add(document.doc_id)
    base = config or ChunkerConfig()
    ordered = sorted(set(thetas))

    def chunk_document(document: Document) -> list[tuple[list[Chunk], float]]:
        timed = []
        for theta in ordered:
            started = time.perf_counter()
            chunks = lumberchunk(document, replace(base, theta=theta), backend, counter, cache)
            timed.append((chunks, time.perf_counter() - started))
        return timed

    per_document = ordered_map(chunk_document, documents)
    reports: list[MetricsReport] = []
    for position, theta in enumerate(ordered):
        all_chunks = [chunk for timed in per_document for chunk in timed[position][0]]
        reports.append(
            evaluate(
                all_chunks,
                qa_pairs,
                embed_backend,
                ks=ks,
                judge=judge,
                method=f"lumberchunker(θ={theta})",
                chunking_seconds=sum(timed[position][1] for timed in per_document),
                theta=theta,
                embed_cache=embed_cache,
            )
        )
    return reports


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for report in reports:
            fh.write(json.dumps(report_to_record(report), ensure_ascii=False) + "\n")
