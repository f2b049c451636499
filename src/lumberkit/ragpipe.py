"""Hybrid-retrieval question answering.

The pipeline routes each query by whether it names people or events, fuses
lexical and dense hits with a fixed placement rule, reverses the back half of
long context lists, asks a completion backend for a relevance ordering, and
answers from the top five chunks.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .backends import CompletionBackend
from .chunker import Chunk
from .errors import LumberkitError
from .evaluation import normalize_for_matching
from .index import Bm25Index, VectorIndex, bm25_topk, cosine_topk

logger = logging.getLogger(__name__)

T = TypeVar("T")

MENTION_BM25_K = 3
FALLBACK_BM25_K = 1
DENSE_K = 15
MIDPOINT_MIN_LENGTH = 6
ANSWER_TOP_N = 5


class RagPipelineError(LumberkitError):
    """Problem inside the question-answering pipeline."""


@dataclass(frozen=True)
class RoutingDecision:
    """How many lexical hits to retrieve for a query and why."""

    mention_strings: tuple[str, ...]
    bm25_k: int


_MENTION_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*")
_SENTENCE_END_RE = re.compile(r"[.!?]")

# question openers and other function words that are capitalized only because
# they start a sentence; they never begin a name run there
_SENTENCE_START_SKIP = frozenset(
    """
    a an the this that these those what which who whom whose where when why
    how did do does done is are was were am be been being has have had will
    would shall should can could may might must tell name describe explain
    list give state identify say in on at of to for from by with about
    after before during
    """.split()
)


def heuristic_mentions(query: str) -> list[str]:
    """Find capitalized spans that look like names of people or events.

    A run of two or more capitalized words counts anywhere; a single
    capitalized word counts only away from a sentence start. The pronoun I is
    ignored, runs never cross sentence-ending punctuation, and a capitalized
    question opener ("Did", "Where", ...) cannot begin a run at sentence
    start, so "Did Maye" yields just "Maye".
    """
    tokens = list(_MENTION_TOKEN_RE.finditer(query))
    mentions: list[str] = []
    run: list[str] = []
    run_has_non_initial = False
    previous_end = 0
    for position, token in enumerate(tokens):
        between = query[previous_end : token.start()]
        sentence_start = position == 0 or bool(_SENTENCE_END_RE.search(between))
        word = token.group()
        capitalized = (
            word[0].isupper()
            and word != "I"
            and not (sentence_start and word.lower() in _SENTENCE_START_SKIP)
        )
        if capitalized and not (run and sentence_start):
            run.append(word)
            run_has_non_initial = run_has_non_initial or not sentence_start
        else:
            if run and (len(run) >= 2 or run_has_non_initial):
                mentions.append(" ".join(run))
            run = [word] if capitalized else []
            run_has_non_initial = capitalized and not sentence_start
        previous_end = token.end()
    if run and (len(run) >= 2 or run_has_non_initial):
        mentions.append(" ".join(run))
    return mentions


def detect_mentions(query: str) -> RoutingDecision:
    """Route the query: 3 lexical hits when heuristic_mentions finds a name, otherwise 1."""
    mentions = tuple(heuristic_mentions(query))
    return RoutingDecision(mentions, MENTION_BM25_K if mentions else FALLBACK_BM25_K)


@dataclass(frozen=True)
class AssemblyEntry:
    """One chunk in the assembled context plus the retriever that found it."""

    chunk: Chunk
    source: str  # "lexical" or "dense"


@dataclass(frozen=True)
class ContextAssembly:
    """Ordered fusion of lexical and dense retrieval results."""

    entries: tuple[AssemblyEntry, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, int]] = set()
        for entry in self.entries:
            key = (entry.chunk.doc_id, entry.chunk.chunk_id)
            if key in seen:
                raise ValueError(f"duplicate chunk in assembly: {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def chunks(self) -> list[Chunk]:
        return [entry.chunk for entry in self.entries]


def hybrid_retrieve(
    query: str,
    bm25_index: Bm25Index,
    vector_index: VectorIndex,
    decision: RoutingDecision,
    query_vector: np.ndarray,
) -> ContextAssembly:
    """Fuse lexical hits for query and dense hits for its embedding, query_vector.

    BM25 hits that already appear in the dense top-15 are dropped. The best
    surviving BM25 hit leads the assembly, the dense results follow in rank
    order, and the remaining BM25 hits close it.
    """
    if not bm25_index.chunks or not vector_index.chunks:
        raise RagPipelineError("both indexes must be non-empty")
    lexical_hits = [chunk for chunk, _score in bm25_topk(bm25_index, query, decision.bm25_k)]
    dense_hits = [chunk for chunk, _score in cosine_topk(vector_index, query_vector, DENSE_K)]
    dense_keys = {(chunk.doc_id, chunk.chunk_id) for chunk in dense_hits}
    surviving = [
        chunk for chunk in lexical_hits if (chunk.doc_id, chunk.chunk_id) not in dense_keys
    ]
    entries: list[AssemblyEntry] = []
    if surviving:
        entries.append(AssemblyEntry(surviving[0], "lexical"))
    entries.extend(AssemblyEntry(chunk, "dense") for chunk in dense_hits)
    entries.extend(AssemblyEntry(chunk, "lexical") for chunk in surviving[1:])
    return ContextAssembly(tuple(entries))


def midpoint_reverse(chunks: Sequence[T]) -> list[T]:
    """Reverse the suffix from the midpoint when six or more items are present.

    Shorter lists come back unchanged; applying the reorder twice restores
    the original order.
    """
    items = list(chunks)
    if len(items) < MIDPOINT_MIN_LENGTH:
        return items
    midpoint = len(items) // 2
    return items[:midpoint] + items[midpoint:][::-1]


RERANK_PROMPT_TEMPLATE = (
    "Order the numbered documents below by decreasing relevance to the query. "
    "Reply with the document numbers only, most relevant first, separated by "
    "commas.\n"
    "\n"
    "Query: {query}\n"
    "\n"
    "Documents:\n"
    "{documents}"
)


def rerank(chunks: Sequence[Chunk], query: str, backend: CompletionBackend) -> list[Chunk]:
    """Ask the backend for a relevance ordering of the chunks.

    The response is read as a sequence of 1-based indices; duplicates and
    out-of-range values are dropped, and indices the response never mentions
    keep their prior order at the end. A response with no usable index keeps
    the input order with a warning. A BackendError propagates; the backend
    does its own retrying.
    """
    chunks = list(chunks)
    if len(chunks) < 2:
        return chunks
    documents = "\n".join(f"[{i}] {chunk.text}" for i, chunk in enumerate(chunks, start=1))
    prompt = RERANK_PROMPT_TEMPLATE.format(query=query, documents=documents)
    order: list[int] = []
    for digits in re.findall(r"\d+", backend.complete(prompt)):
        try:
            value = int(digits)
        except ValueError:  # more digits than int() converts: out of range anyway
            continue
        if 1 <= value <= len(chunks) and value not in order:
            order.append(value)
    if not order:
        logger.warning("rerank response had no usable indices; keeping the retrieval order")
        return chunks
    order.extend(i for i in range(1, len(chunks) + 1) if i not in order)
    return [chunks[i - 1] for i in order]


ANSWER_PROMPT_TEMPLATE = (
    "Answer the question using only the passages below. Be direct and "
    "concise; if the passages do not contain the answer, say so.\n"
    "\n"
    "{passages}\n"
    "\n"
    "Question: {query}\n"
    "Answer:"
)


def answer(query: str, reranked_chunks: Sequence[Chunk], backend: CompletionBackend) -> str:
    """Generate the final answer from the top five reranked chunks."""
    kept = list(reranked_chunks)[:ANSWER_TOP_N]
    if not kept:
        raise RagPipelineError("no chunks available to answer from")
    passages = "\n\n".join(
        f"Passage {i}:\n{chunk.text}" for i, chunk in enumerate(kept, start=1)
    )
    prompt = ANSWER_PROMPT_TEMPLATE.format(passages=passages, query=query)
    return backend.complete(prompt)


def normalized_match_judge(generated: str, gold: str) -> bool:
    """The answer judge: normalized containment in either direction."""
    generated_norm = normalize_for_matching(generated)
    gold_norm = normalize_for_matching(gold)
    if not generated_norm or not gold_norm:
        return False
    return gold_norm in generated_norm or generated_norm in gold_norm


def qa_accuracy(answers: Iterable[tuple[str, str]]) -> float:
    """Percentage of (generated, gold) pairs normalized_match_judge accepts, 0-100."""
    pairs = list(answers)
    if not pairs:
        return 0.0
    correct = sum(1 for generated, gold in pairs if normalized_match_judge(generated, gold))
    return 100.0 * correct / len(pairs)


@dataclass(frozen=True)
class Retrieval:
    """One question's routing and its fused, midpoint-reversed context."""

    question: str
    decision: RoutingDecision
    chunks: tuple[Chunk, ...]


@dataclass(frozen=True)
class RagAnswer:
    """The pipeline's output for one question."""

    question: str
    decision: RoutingDecision
    retrieved_ids: tuple[int, ...]
    answer: str


def retrieve(
    query: str, bm25_index: Bm25Index, vector_index: VectorIndex, query_vector: np.ndarray
) -> Retrieval:
    """Route one query, given its embedding, then fuse and reorder its hits; no backend call."""
    decision = detect_mentions(query)
    assembly = hybrid_retrieve(query, bm25_index, vector_index, decision, query_vector)
    return Retrieval(query, decision, tuple(midpoint_reverse(assembly.chunks)))


def answer_question(retrieval: Retrieval, backend: CompletionBackend) -> RagAnswer:
    """Rerank one retrieval's chunks and answer its question from the top five."""
    reranked = rerank(retrieval.chunks, retrieval.question, backend)
    text = answer(retrieval.question, reranked, backend)
    used = reranked[:ANSWER_TOP_N]
    return RagAnswer(
        retrieval.question, retrieval.decision, tuple(chunk.chunk_id for chunk in used), text
    )
