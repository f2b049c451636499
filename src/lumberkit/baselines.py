"""Baseline chunkers: paragraph, recursive, semantic, propositions, and HyDE.

These share the Chunk type with the dynamic chunker so every method feeds the
same retrieval and evaluation path.
"""

from __future__ import annotations

import bisect
import logging
import re
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .backends import CompletionBackend, EmbeddingBackend
from .chunker import Chunk
from .corpus import PARAGRAPH_SEPARATOR, Document, count_tokens
from .errors import ConfigError
from .index import embed_texts

logger = logging.getLogger(__name__)


def paragraph_chunks(document: Document) -> list[Chunk]:
    """One chunk per paragraph: the identity partition."""
    return [
        Chunk(document.doc_id, i, i + 1, i + 1, text)
        for i, text in enumerate(document.paragraphs)
    ]


DEFAULT_SEPARATORS = ("\n\n", "\n", " ", "")


@dataclass(frozen=True)
class RecursiveConfig:
    """Settings for the recursive splitter.

    DEFAULT_SEPARATORS are tried in order; the final empty string splits
    into single characters so no piece is ever stuck above the limit unless a
    lone character already exceeds it.
    """

    max_tokens: int = 450

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")


def _split_keep_separator(text: str, separator: str) -> list[str]:
    # the separator stays attached to the preceding piece so that
    # concatenating the pieces reproduces the text exactly
    if separator == "":
        return list(text)
    parts = text.split(separator)
    if len(parts) == 1:
        return parts
    pieces = [part + separator for part in parts[:-1]]
    if parts[-1]:
        pieces.append(parts[-1])
    return pieces


def _split_recursive(text: str, level: int, max_tokens: int) -> list[str]:
    if count_tokens(text) <= max_tokens:
        return [text]
    if level >= len(DEFAULT_SEPARATORS):
        return [text]  # indivisible at every level
    pieces = _split_keep_separator(text, DEFAULT_SEPARATORS[level])
    if len(pieces) <= 1:
        return _split_recursive(text, level + 1, max_tokens)
    out: list[str] = []
    for piece in pieces:
        if count_tokens(piece) <= max_tokens:
            out.append(piece)
        else:
            out.extend(_split_recursive(piece, level + 1, max_tokens))
    return out


def _greedy_pack(pieces: list[str], max_tokens: int) -> list[str]:
    chunks: list[str] = []
    buffer = ""
    for piece in pieces:
        if not buffer:
            buffer = piece
            continue
        candidate = buffer + piece
        if count_tokens(candidate) <= max_tokens:
            buffer = candidate
        else:
            chunks.append(buffer)
            buffer = piece
    if buffer:
        chunks.append(buffer)
    return chunks


def _paragraph_span(starts: list[int], begin: int, end: int) -> tuple[int, int]:
    # starts[i] is the char offset of paragraph i+1 in the joined text;
    # the separator after a paragraph belongs to that paragraph's region
    first = bisect.bisect_right(starts, begin) - 1
    last = bisect.bisect_right(starts, end - 1) - 1
    return first + 1, last + 1


def recursive_chunks(document: Document, config: RecursiveConfig | None = None) -> list[Chunk]:
    """Greedy recursive splitting over a separator hierarchy.

    Splits at the highest-priority separator whose pieces fit under
    max_tokens, descending the hierarchy only for oversized pieces, then packs
    consecutive pieces greedily. Separators stay attached to the preceding
    piece, so concatenating the chunk texts reproduces document.text exactly.
    start_para/end_para are the paragraph ranges each chunk's characters
    overlap; unlike the dynamic chunker these ranges may share boundary
    paragraphs between neighboring chunks.
    """
    config = config or RecursiveConfig()
    text = document.text
    pieces = _split_recursive(text, 0, config.max_tokens)
    packed = _greedy_pack(pieces, config.max_tokens)

    starts: list[int] = []
    offset = 0
    for text in document.paragraphs:
        starts.append(offset)
        offset += len(text) + len(PARAGRAPH_SEPARATOR)

    chunks: list[Chunk] = []
    position = 0
    for i, chunk_text in enumerate(packed):
        begin, end = position, position + len(chunk_text)
        start_para, end_para = _paragraph_span(starts, begin, end)
        chunks.append(Chunk(document.doc_id, i, start_para, end_para, chunk_text))
        position = end
    return chunks


@dataclass(frozen=True)
class SemanticConfig:
    """Settings for embedding-distance splitting."""

    breakpoint_percentile: float = 95.0
    min_unit: Literal["sentence", "paragraph"] = "paragraph"

    def __post_init__(self) -> None:
        if not 0.0 < self.breakpoint_percentile < 100.0:
            raise ConfigError(
                f"breakpoint_percentile must be in (0, 100), got {self.breakpoint_percentile}"
            )
        if self.min_unit not in ("sentence", "paragraph"):
            raise ConfigError(f"min_unit must be 'sentence' or 'paragraph', got {self.min_unit}")


_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+")


def _semantic_units(document: Document, config: SemanticConfig) -> list[tuple[int, str]]:
    """(paragraph index, text) for each of the document's paragraphs, or its sentences."""
    if config.min_unit == "paragraph":
        return list(enumerate(document.paragraphs, start=1))
    units: list[tuple[int, str]] = []
    for index, text in enumerate(document.paragraphs, start=1):
        for sentence in _SENTENCE_BOUNDARY_RE.split(text):
            sentence = sentence.strip()
            if sentence:
                units.append((index, sentence))
    return units


def semantic_chunks(
    document: Document,
    embed: EmbeddingBackend,
    config: SemanticConfig | None = None,
) -> list[Chunk]:
    """Split where the embedding distance between consecutive units spikes.

    Every unit is embedded, consecutive units get a cosine distance, and a
    breakpoint lands wherever a distance strictly exceeds the configured
    percentile of all consecutive distances in the document.
    """
    config = config or SemanticConfig()
    units = _semantic_units(document, config)
    joiner = PARAGRAPH_SEPARATOR if config.min_unit == "paragraph" else " "

    def to_chunk(chunk_id: int, members: list[tuple[int, str]]) -> Chunk:
        text = joiner.join(unit_text for _index, unit_text in members)
        return Chunk(document.doc_id, chunk_id, members[0][0], members[-1][0], text)

    if len(units) == 1:
        return [to_chunk(0, units)]

    vectors = embed_texts([text for _index, text in units], embed)
    norms = np.linalg.norm(vectors, axis=1)
    norms[norms == 0.0] = 1.0
    unit_rows = vectors / norms[:, None]
    similarities = np.sum(unit_rows[:-1] * unit_rows[1:], axis=1)
    distances = 1.0 - similarities
    threshold = float(np.percentile(distances, config.breakpoint_percentile))

    chunks: list[Chunk] = []
    members: list[tuple[int, str]] = [units[0]]
    for i in range(1, len(units)):
        if distances[i - 1] > threshold:
            chunks.append(to_chunk(len(chunks), members))
            members = []
        members.append(units[i])
    chunks.append(to_chunk(len(chunks), members))
    return chunks


PROPOSITION_PROMPT_TEMPLATE = (
    "Rewrite the passage below as a list of minimal, self-contained factual "
    "statements. Each statement must stand on its own, with pronouns resolved "
    "where the passage allows it. Output one statement per line with no "
    "numbering or bullets.\n"
    "\n"
    "Passage:\n"
    "{passage}"
)


def propositionize(chunk: Chunk, backend: CompletionBackend) -> list[Chunk]:
    """Decompose one chunk into proposition-granularity chunks.

    Each non-empty response line becomes a chunk inheriting the parent's
    paragraph span. An empty response is asked again once, via backend.retry;
    after that the parent chunk passes through unchanged with a warning.
    """
    prompt = PROPOSITION_PROMPT_TEMPLATE.format(passage=chunk.text)
    for ask in (backend.complete, backend.retry):
        response = ask(prompt)
        lines = [line.strip() for line in response.splitlines()]
        statements = [line for line in lines if line]
        if statements:
            return [
                Chunk(chunk.doc_id, i, chunk.start_para, chunk.end_para, statement)
                for i, statement in enumerate(statements)
            ]
    logger.warning(
        "propositionize: empty response twice for chunk %d; keeping it unchanged",
        chunk.chunk_id,
    )
    return [chunk]


def proposition_chunks(document: Document, backend: CompletionBackend) -> list[Chunk]:
    """Propositionize every paragraph of the document, renumbered sequentially."""
    out: list[Chunk] = []
    for parent in paragraph_chunks(document):
        for prop in propositionize(parent, backend):
            out.append(replace(prop, chunk_id=len(out)))
    return out


HYDE_PROMPT_TEMPLATE = (
    "Write a short passage of two or three sentences that could plausibly "
    "appear in a book and that directly answers the question below. Write "
    "only the passage.\n"
    "\n"
    "Question: {query}"
)


def hyde_transform(query: str, backend: CompletionBackend) -> str:
    """Replace a query with a hypothetical answer passage for embedding.

    One backend call per query; a blank reply falls back to the original
    query.
    """
    prompt = HYDE_PROMPT_TEMPLATE.format(query=query)
    return backend.complete(prompt).strip() or query
