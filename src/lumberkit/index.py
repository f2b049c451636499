"""Retrieval substrate: exact cosine top-k over embeddings and Okapi BM25."""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .backends import BackendError, EmbeddingBackend
from .chunker import Chunk
from .errors import LumberkitError

BM25_K1 = 1.2
BM25_B = 0.75
# Texts per embedding request; embed_texts is the only reader.
EMBED_BATCH = 64


class IndexingError(LumberkitError):
    """Problem building or querying a retrieval index."""


@dataclass(frozen=True)
class VectorIndex:
    """Chunks with their embedding matrix, row i belonging to chunks[i]."""

    chunks: tuple[Chunk, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        if len(self.chunks) != self.vectors.shape[0]:
            raise ValueError(
                f"{len(self.chunks)} chunks but {self.vectors.shape[0]} vectors"
            )
        if not self.chunks:
            raise ValueError("a vector index needs at least one chunk")

    def __len__(self) -> int:
        return len(self.chunks)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])


def embed_texts(texts: Sequence[str], backend: EmbeddingBackend) -> np.ndarray:
    """Embed texts EMBED_BATCH per backend call, one row per text, in order.

    A backend failure raises IndexingError naming the positions of the
    failed batch's texts.
    """
    batches = []
    for begin in range(0, len(texts), EMBED_BATCH):
        batch = texts[begin : begin + EMBED_BATCH]
        try:
            batches.append(backend.embed(batch))
        except BackendError as exc:
            raise IndexingError(
                f"embedding failed for texts {begin}..{begin + len(batch) - 1}: {exc}"
            ) from exc
    return np.vstack(batches) if batches else np.empty((0, backend.dimension))


def embed_chunks(chunks: Sequence[Chunk], backend: EmbeddingBackend) -> VectorIndex:
    """Embed chunk texts into a vector index through embed_texts."""
    if not chunks:
        raise IndexingError("no chunks to index")
    return VectorIndex(tuple(chunks), embed_texts([chunk.text for chunk in chunks], backend))


def cosine_topk(
    index: VectorIndex, query_vector: np.ndarray, k: int
) -> list[tuple[Chunk, float]]:
    """Exact top-k by cosine similarity; ties break by ascending chunk_id.

    Brute force over every row; k larger than the index returns everything.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query_vector, dtype=np.float64).reshape(-1)
    if query.shape[0] != index.dimension:
        raise IndexingError(
            f"query dimension {query.shape[0]} != index dimension {index.dimension}"
        )
    query_norm = float(np.linalg.norm(query))
    row_norms = np.linalg.norm(index.vectors, axis=1)
    dots = index.vectors @ query
    denominators = row_norms * query_norm
    safe = denominators > 0.0
    scores = np.where(safe, dots / np.where(safe, denominators, 1.0), 0.0)
    return _ranked(index.chunks, scores, k)


def _ranked(
    chunks: Sequence[Chunk], scores: np.ndarray, k: int
) -> list[tuple[Chunk, float]]:
    """The k best chunks by descending score, ties by ascending chunk_id.

    lexsort is stable, so chunks tied on both (equal chunk_ids from different
    documents) keep their index order.
    """
    chunk_ids = np.fromiter((c.chunk_id for c in chunks), dtype=np.int64, count=len(chunks))
    order = np.lexsort((chunk_ids, -scores))[:k]
    return [(chunks[i], float(scores[i])) for i in order.tolist()]


_TOKEN_RE = re.compile(r"[^\W_]+")


def bm25_tokenize(text: str) -> list[str]:
    """Analyzer: lowercase, split on non-alphanumerics, drop empty tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Index:
    """Okapi BM25 over a chunk list, with every (term, chunk) weight precomputed.

    The weights are stored as one flat CSR: term t (id terms[t]) occurs in the
    chunks rows[starts[id]:starts[id + 1]] (C ints), in ascending order, with
    the Okapi weights weights[starts[id]:starts[id + 1]].
    """

    chunks: tuple[Chunk, ...]
    terms: dict[str, int] = field(repr=False)
    starts: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.chunks)


def bm25_build(chunks: Sequence[Chunk]) -> Bm25Index:
    """Build a BM25 index over chunk texts analyzed by bm25_tokenize.

    k1 and b are BM25_K1 and BM25_B, read when the index is built.
    idf(t) = log(1 + (N - df + 0.5) / (df + 0.5)), which is strictly positive.
    Postings are collected in typed C-int (4-byte) buffers, each dropped once
    sorted by term. The weights are computed in place with the textbook
    per-chunk loop's float64 operations in its order, so scores are
    bit-identical to it.
    """
    if not chunks:
        raise IndexingError("no chunks to index")
    terms: dict[str, int] = {}
    posting_terms, posting_rows, posting_tfs = array("i"), array("i"), array("i")
    lengths: list[int] = []
    for row, chunk in enumerate(chunks):
        tokens = bm25_tokenize(chunk.text)
        lengths.append(len(tokens))
        counts = Counter(tokens)
        posting_terms.extend([terms.setdefault(term, len(terms)) for term in counts])
        posting_rows.extend(repeat(row, len(counts)))
        posting_tfs.extend(counts.values())
    n = len(chunks)
    average_length = sum(lengths) / n or 1.0  # 0 only when every chunk is empty
    df = np.bincount(np.frombuffer(posting_terms, dtype=np.intc), minlength=len(terms))
    order = np.argsort(np.frombuffer(posting_terms, dtype=np.intc), kind="stable")
    del posting_terms
    rows = np.frombuffer(posting_rows, dtype=np.intc)[order]
    del posting_rows
    tf = np.frombuffer(posting_tfs, dtype=np.intc)[order]
    del posting_tfs, order
    starts = np.zeros(len(terms) + 1, dtype=np.intp)
    np.cumsum(df, out=starts[1:])
    idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df.tolist()])
    length_norm = 1.0 - BM25_B + BM25_B * np.array(lengths, dtype=np.int64) / average_length
    # idf * tf * (k1 + 1) / (tf + k1 * length_norm); postings are sorted by term
    weights = np.repeat(idf, df)
    weights *= tf
    weights *= BM25_K1 + 1.0
    denominators = length_norm[rows]
    denominators *= BM25_K1
    denominators += tf
    weights /= denominators
    return Bm25Index(tuple(chunks), terms, starts, rows, weights)


def bm25_scores(index: Bm25Index, query: str) -> np.ndarray:
    """Score every chunk against the query.

    A chunk scores exactly 0 iff it shares no term with the query. Each query
    token occurrence adds its term's weights once more, in query order.
    """
    scores = np.zeros(len(index), dtype=np.float64)
    for token in bm25_tokenize(query):
        term = index.terms.get(token)
        if term is None:
            continue
        begin, end = index.starts[term], index.starts[term + 1]
        scores[index.rows[begin:end]] += index.weights[begin:end]
    return scores


def bm25_topk(index: Bm25Index, query: str, k: int) -> list[tuple[Chunk, float]]:
    """Top-k chunks by BM25 score; ties break by ascending chunk_id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _ranked(index.chunks, bm25_scores(index, query), k)
