"""Dynamic LLM-driven chunking.

The chunker walks a document with a token-bounded window of paragraphs, asks
a completion backend for the paragraph where the content shifts, closes the
current chunk just before that paragraph, and restarts the window there. Any
backend behavior, including garbage output, still yields a gap-free and
overlap-free partition of the document because every step consumes at least
one paragraph.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .backends import BackendError, CachingBackend, CompletionBackend, ResponseCache
from .corpus import (
    PARAGRAPH_SEPARATOR,
    CorpusError,
    Document,
    MalformedRecordError,
    count_tokens,
    read_records,
    write_jsonl,
)
from .errors import ConfigError, LumberkitError

logger = logging.getLogger(__name__)


class ChunkerError(LumberkitError):
    """Problem while chunking a document."""


class ParseError(ChunkerError):
    """The backend response holds no paragraph ID, or one outside the group."""


# Digits of the zero-padded IDs in a split prompt, the paper's 'ID XXXX'; a
# document whose last index needs more digits widens it.
ID_WIDTH = 4
# How often an unusable split answer is asked again before the window falls
# back to one chunk; read for each window.
MAX_RETRIES = 3


@dataclass(frozen=True)
class ChunkerConfig:
    """The chunking loop's one setting.

    theta is the token threshold a group must exceed before the backend is
    asked for a split point.
    """

    theta: int = 550

    def __post_init__(self) -> None:
        if self.theta < 1:
            raise ConfigError(f"theta must be >= 1, got {self.theta}")


@dataclass(frozen=True)
class Group:
    """A window of consecutive paragraph texts, from paragraph start_index, shown to the model."""

    start_index: int
    paragraphs: tuple[str, ...]
    token_total: int

    def __post_init__(self) -> None:
        if not self.paragraphs:
            raise ValueError("a group must contain at least one paragraph")

    def __len__(self) -> int:
        return len(self.paragraphs)

    @property
    def end_index(self) -> int:
        return self.start_index + len(self.paragraphs) - 1


@dataclass(frozen=True)
class Chunk:
    """A contiguous span of paragraphs emitted by a chunker."""

    doc_id: str
    chunk_id: int
    start_para: int
    end_para: int
    text: str

    def __post_init__(self) -> None:
        if not 0 <= self.chunk_id < 2**63:  # retrieval ranks ids as int64
            raise ValueError(f"chunk_id must be in [0, 2**63), got {self.chunk_id}")
        if not 1 <= self.start_para <= self.end_para:
            raise ValueError(
                f"invalid paragraph span [{self.start_para}, {self.end_para}]"
            )

    @property
    def token_count(self) -> int:
        return count_tokens(self.text)

    @property
    def paragraph_count(self) -> int:
        return self.end_para - self.start_para + 1


@dataclass(frozen=True)
class LumberStep:
    """One loop iteration: the window examined and the chunk it produced."""

    group: Group
    chunk: Chunk
    used_llm: bool
    fell_back: bool
    attempts: int


PROMPT_HEADER = (
    "You will receive as input an English document with paragraphs identified by "
    "'ID XXXX: <text>'.\n"
    "\n"
    "Task: Find the first paragraph (not the first one) where the content clearly "
    "changes compared to the previous paragraphs.\n"
    "\n"
    "Output: Return the ID of the paragraph with the content shift as in the "
    "exemplified format: 'Answer: ID XXXX'.\n"
    "\n"
    "Additional Considerations: Avoid very long groups of paragraphs. Aim for a good "
    "balance between identifying content shifts and keeping groups manageable.\n"
    "\n"
    "Document:\n"
)

_ANSWER_ID_RE = re.compile(r"answer\s*:\s*id\s*:?\s*(\d+)", re.IGNORECASE)
_BARE_ID_RE = re.compile(r"\bid\s*:?\s*(\d+)", re.IGNORECASE)


def build_group(document: Document, start: int, config: ChunkerConfig | None = None) -> Group:
    """Accumulate paragraphs from start until the token total exceeds theta.

    The paragraph that pushes the total over theta is included. A group always
    holds at least one paragraph and never runs past the document end.
    """
    config = config or ChunkerConfig()
    if not 1 <= start <= len(document):
        raise ChunkerError(f"start index {start} outside 1..{len(document)}")
    members: list[str] = []
    total = 0
    for text in document.paragraphs[start - 1 :]:
        members.append(text)
        total += count_tokens(text)
        if total > config.theta:
            break
    return Group(start, tuple(members), total)


def render_prompt(group: Group) -> str:
    """Render the split prompt for a group, byte-identically for equal inputs.

    Paragraphs appear as zero-padded 'ID NNNN: <text>' lines separated by
    blank lines; the pad width grows past ID_WIDTH when the largest index
    needs more digits.
    """
    width = max(ID_WIDTH, len(str(group.end_index)))
    lines = (
        f"ID {index:0{width}d}: {text}"
        for index, text in enumerate(group.paragraphs, start=group.start_index)
    )
    return PROMPT_HEADER + "\n" + "\n\n".join(lines)


def parse_split_id(response: str, group: Group) -> int:
    """Extract the answered paragraph ID and validate it against the group.

    Looks for 'Answer: ID <digits>' first (case- and whitespace-tolerant) and
    falls back to a bare 'ID <digits>'. Valid IDs lie strictly after the
    group's first paragraph and at most at its last.
    """
    match = _ANSWER_ID_RE.search(response) or _BARE_ID_RE.search(response)
    if match is None:
        raise ParseError("no paragraph ID found in response")
    try:
        split_id = int(match.group(1))
    except ValueError:  # more digits than int() converts
        raise ParseError("paragraph ID has too many digits") from None
    if not group.start_index < split_id <= group.end_index:
        raise ParseError(
            f"ID {split_id} outside permitted range "
            f"({group.start_index}, {group.end_index}]"
        )
    return split_id


def _make_chunk(document: Document, chunk_id: int, start: int, end: int) -> Chunk:
    text = PARAGRAPH_SEPARATOR.join(document.paragraphs[start - 1 : end])
    return Chunk(document.doc_id, chunk_id, start, end, text)


def _ask_for_split(group: Group, backend: CompletionBackend | None) -> tuple[int, int, bool]:
    """Return (end, attempts, fell_back): the chunk ends just before the answered
    ID, or at the group end once every attempt was unusable."""
    if backend is None:
        raise ChunkerError(
            "a completion backend is required to split groups larger than theta"
        )
    prompt = render_prompt(group)
    for attempts in range(1, MAX_RETRIES + 2):
        ask = backend.complete if attempts == 1 else backend.retry
        response = ask(prompt)
        try:
            return parse_split_id(response, group) - 1, attempts, False
        except ParseError as exc:
            logger.debug("split attempt %d rejected: %s", attempts, exc)
    logger.warning(
        "no usable split for paragraphs %d-%d after %d attempt(s); "
        "falling back to the end of the group",
        group.start_index,
        group.end_index,
        attempts,
    )
    return group.end_index, attempts, True


def lumber_steps(
    document: Document,
    config: ChunkerConfig | None = None,
    backend: CompletionBackend | None = None,
) -> Iterator[LumberStep]:
    """Yield one LumberStep per emitted chunk while walking the document.

    The loop builds a group from the current start. A group that fits within
    theta (only the document end allows that) or holds one paragraph has no
    split point to ask for, so it becomes a chunk without the backend.
    Otherwise the backend is asked for a split ID, and the chunk closes just
    before it, or at the end of the group after exhausted retries. The next
    group starts after the chunk.
    """
    config = config or ChunkerConfig()
    n = len(document)
    start = 1
    chunk_id = 0
    iterations = 0
    while start <= n:
        iterations += 1
        if iterations > n:  # each step consumes >= 1 paragraph, so this cannot trip
            raise ChunkerError("chunking loop failed to make progress")
        group = build_group(document, start, config)
        used_llm = len(group) > 1 and group.token_total > config.theta
        if used_llm:
            end, attempts, fell_back = _ask_for_split(group, backend)
        else:
            end, attempts, fell_back = group.end_index, 0, False
        chunk = _make_chunk(document, chunk_id, start, end)
        yield LumberStep(group, chunk, used_llm=used_llm, fell_back=fell_back, attempts=attempts)
        chunk_id += 1
        start = end + 1


def lumberchunk(
    document: Document,
    config: ChunkerConfig | None = None,
    backend: CompletionBackend | None = None,
    cache: ResponseCache | None = None,
) -> list[Chunk]:
    """Chunk the whole document with the iterative split loop.

    Returns chunks whose paragraph spans partition the document in order.
    Given a cache, backend is wrapped in a CachingBackend over it, so a
    recorded run replays to identical chunks. An unrecoverable backend failure
    raises BackendError naming the document, the last chunk emitted and the cause.
    """
    if cache is not None and backend is not None:
        backend = CachingBackend(backend, cache)
    chunks: list[Chunk] = []
    try:
        for step in lumber_steps(document, config, backend):
            chunks.append(step.chunk)
    except BackendError as exc:
        if chunks:
            last = chunks[-1]
            progress = (
                f"last emitted chunk {last.chunk_id} "
                f"(paragraphs {last.start_para}-{last.end_para})"
            )
        else:
            progress = "no chunks emitted"
        raise BackendError(
            f"backend failure while chunking {document.doc_id!r}; {progress}: {exc}"
        ) from exc
    return chunks


def verify_partition(chunks: Iterable[Chunk], paragraph_count: int) -> None:
    """Raise ChunkerError unless the chunk spans partition 1..paragraph_count."""
    ordered = sorted(chunks, key=lambda c: c.start_para)
    expected = 1
    for chunk in ordered:
        if chunk.start_para != expected:
            raise ChunkerError(
                f"chunk {chunk.chunk_id} starts at paragraph {chunk.start_para}, "
                f"expected {expected}"
            )
        expected = chunk.end_para + 1
    if expected != paragraph_count + 1:
        raise ChunkerError(
            f"chunks cover paragraphs up to {expected - 1}, expected {paragraph_count}"
        )


@dataclass(frozen=True)
class ChunkStats:
    """Summary statistics for a chunk list; means are None when it is empty."""

    count: int
    mean_tokens: float | None
    min_tokens: int | None
    max_tokens: int | None
    mean_paragraphs: float | None


def chunk_stats(chunks: list[Chunk], token_counts: list[int]) -> ChunkStats:
    """Compute count plus token and paragraph-span statistics from the chunks' token counts."""
    if not chunks:
        return ChunkStats(0, None, None, None, None)
    spans = [c.paragraph_count for c in chunks]
    return ChunkStats(
        count=len(chunks),
        mean_tokens=math.fsum(token_counts) / len(token_counts),
        min_tokens=min(token_counts),
        max_tokens=max(token_counts),
        mean_paragraphs=math.fsum(spans) / len(spans),
    )


CHUNK_FIELDS = {
    "doc_id": str,
    "chunk_id": int,
    "start_para": int,
    "end_para": int,
    "token_count": int,
    "text": str,
}


def write_chunks(chunks: Iterable[Chunk], path: str | Path) -> list[int]:
    """Write chunk records as JSONL, identical chunks as identical bytes; return the
    token_count written for each chunk, which is counted once."""
    records = [{name: getattr(chunk, name) for name in CHUNK_FIELDS} for chunk in chunks]
    write_jsonl(records, path)
    return [record["token_count"] for record in records]


def iter_documents(path: str | Path) -> Iterator[list[Chunk]]:
    """Yield the chunk records written by write_chunks, one document's list at a time.

    A document's records are consecutive: a bad line, a second record for one
    (doc_id, chunk_id), or a doc_id that reappears after another document's
    records raises MalformedRecordError, and a file with no record CorpusError.
    Spans may overlap (recursive neighbours, propositions). A record's
    token_count must be a non-negative int and is otherwise unused.
    """
    finished: set[str] = set()
    chunks: list[Chunk] = []
    first_line: dict[int, int] = {}  # of each chunk_id in the current document
    for line_number, record in read_records(path, CHUNK_FIELDS):
        doc_id, chunk_id = key = record["doc_id"], record["chunk_id"]
        if chunks and doc_id != chunks[0].doc_id:
            finished.add(chunks[0].doc_id)
            yield chunks
            chunks, first_line = [], {}
        if doc_id in finished:
            raise MalformedRecordError(
                path, line_number, f"document {doc_id!r} reappears after another document's records"
            )
        if chunk_id in first_line:
            raise MalformedRecordError(
                path, line_number, f"chunk {key} repeats the chunk on line {first_line[chunk_id]}"
            )
        first_line[chunk_id] = line_number
        try:
            chunk = Chunk(**{name: record[name] for name in CHUNK_FIELDS if name != "token_count"})
            if record["token_count"] < 0:
                raise ValueError("token_count must be >= 0")
        except ValueError as exc:
            raise MalformedRecordError(path, line_number, f"bad chunk record: {exc}") from exc
        chunks.append(chunk)
    if not chunks:
        raise CorpusError(f"{path} contains no chunk records")
    yield chunks


def read_chunks(path: str | Path) -> list[Chunk]:
    """Every chunk record of a file in file order, checked as iter_documents checks them."""
    return [chunk for chunks in iter_documents(path) for chunk in chunks]
