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
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .backends import BackendError, CachingBackend, CompletionBackend, ResponseCache
from .corpus import (
    PARAGRAPH_SEPARATOR,
    Document,
    MalformedRecordError,
    Paragraph,
    count_tokens,
    read_records,
    write_jsonl,
)
from .errors import ConfigError, LumberkitError

logger = logging.getLogger(__name__)


class ChunkerError(LumberkitError):
    """Problem while chunking a document."""


class ParseError(ChunkerError):
    """The backend response contained no usable paragraph ID."""


class OutOfRangeError(ChunkerError):
    """The answered paragraph ID falls outside the current group."""


class ChunkingAborted(ChunkerError):
    """The backend failed for good; carries the chunks emitted so far."""

    def __init__(self, message: str, chunks: list["Chunk"]):
        super().__init__(message)
        self.chunks = chunks


@dataclass(frozen=True)
class ChunkerConfig:
    """Knobs for the chunking loop.

    theta is the token threshold a group must exceed before the backend is
    asked for a split point. id_width pads the IDs rendered into the prompt;
    it widens automatically if a document has more paragraphs than it fits.
    """

    theta: int = 550
    max_retries: int = 3
    min_tail_paragraphs: int = 2
    id_width: int = 4

    def __post_init__(self) -> None:
        if self.theta < 1:
            raise ConfigError(f"theta must be >= 1, got {self.theta}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.min_tail_paragraphs < 1:
            raise ConfigError(
                f"min_tail_paragraphs must be >= 1, got {self.min_tail_paragraphs}"
            )
        if self.id_width < 1:
            raise ConfigError(f"id_width must be >= 1, got {self.id_width}")


@dataclass(frozen=True)
class Group:
    """A candidate window of consecutive paragraphs shown to the backend."""

    doc_id: str
    paragraphs: tuple[Paragraph, ...]
    start_index: int
    token_total: int

    def __post_init__(self) -> None:
        if not self.paragraphs:
            raise ValueError("a group must contain at least one paragraph")
        if self.paragraphs[0].index != self.start_index:
            raise ValueError("start_index must match the first paragraph")

    def __len__(self) -> int:
        return len(self.paragraphs)

    @property
    def end_index(self) -> int:
        return self.paragraphs[-1].index


@dataclass(frozen=True)
class Chunk:
    """A contiguous span of paragraphs emitted by a chunker."""

    doc_id: str
    chunk_id: int
    start_para: int
    end_para: int
    text: str
    token_count: int

    def __post_init__(self) -> None:
        if self.chunk_id < 0:
            raise ValueError(f"chunk_id must be >= 0, got {self.chunk_id}")
        if not 1 <= self.start_para <= self.end_para:
            raise ValueError(
                f"invalid paragraph span [{self.start_para}, {self.end_para}]"
            )
        if self.token_count < 0:
            raise ValueError("token_count must be >= 0")

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
    members: list[Paragraph] = []
    total = 0
    for para in document.paragraphs[start - 1 :]:
        members.append(para)
        total += count_tokens(para.text)
        if total > config.theta:
            break
    return Group(document.doc_id, tuple(members), start, total)


def render_prompt(group: Group, config: ChunkerConfig | None = None) -> str:
    """Render the split prompt for a group, byte-identically for equal inputs.

    Paragraphs appear as zero-padded 'ID NNNN: <text>' lines separated by
    blank lines; the pad width grows past config.id_width when the largest
    index needs more digits.
    """
    config = config or ChunkerConfig()
    width = max(config.id_width, len(str(group.end_index)))
    lines = (f"ID {para.index:0{width}d}: {para.text}" for para in group.paragraphs)
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
    split_id = int(match.group(1))
    if not group.start_index < split_id <= group.end_index:
        raise OutOfRangeError(
            f"ID {split_id} outside permitted range "
            f"({group.start_index}, {group.end_index}]"
        )
    return split_id


def _make_chunk(document: Document, chunk_id: int, start: int, end: int) -> Chunk:
    paragraphs = document.paragraphs[start - 1 : end]
    text = PARAGRAPH_SEPARATOR.join(p.text for p in paragraphs)
    return Chunk(document.doc_id, chunk_id, start, end, text, count_tokens(text))


def _ask_for_split(
    group: Group,
    config: ChunkerConfig,
    backend: CompletionBackend | None,
) -> tuple[int, int, bool]:
    """Return (split_id, attempts, fell_back); split_id is 0 on fallback."""
    if backend is None:
        raise ChunkerError(
            "a completion backend is required to split groups larger than theta"
        )
    prompt = render_prompt(group, config)
    for attempts in range(1, config.max_retries + 2):
        ask = backend.complete if attempts == 1 else backend.retry
        response = ask(prompt, temperature=0.0)
        try:
            return parse_split_id(response, group), attempts, False
        except (ParseError, OutOfRangeError) as exc:
            logger.debug("split attempt %d rejected: %s", attempts, exc)
    logger.warning(
        "no usable split for paragraphs %d-%d after %d attempt(s); "
        "falling back to the end of the group",
        group.start_index,
        group.end_index,
        attempts,
    )
    return 0, attempts, True


def lumber_steps(
    document: Document,
    config: ChunkerConfig | None = None,
    backend: CompletionBackend | None = None,
) -> Iterator[LumberStep]:
    """Yield one LumberStep per emitted chunk while walking the document.

    The loop: build a group from the current start, stop without the backend
    when the group reaches the document end and is too small to split, ask for
    a split ID otherwise, close the chunk just before that ID (or at the end
    of the group after exhausted retries), and continue from the split point.
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
        reaches_end = group.end_index == n
        if reaches_end and (
            len(group) < config.min_tail_paragraphs or group.token_total <= config.theta
        ):
            chunk = _make_chunk(document, chunk_id, start, n)
            yield LumberStep(group, chunk, used_llm=False, fell_back=False, attempts=0)
            return
        split_id, attempts, fell_back = _ask_for_split(group, config, backend)
        if fell_back:
            end = group.end_index
            next_start = end + 1
        else:
            end = split_id - 1
            next_start = split_id
        chunk = _make_chunk(document, chunk_id, start, end)
        yield LumberStep(group, chunk, used_llm=True, fell_back=fell_back, attempts=attempts)
        chunk_id += 1
        start = next_start


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
    raises ChunkingAborted carrying the chunks emitted so far and naming the last one.
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
        raise ChunkingAborted(
            f"backend failure while chunking {document.doc_id!r}; {progress}: {exc}",
            chunks,
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


def chunk_stats(chunks: list[Chunk]) -> ChunkStats:
    """Compute count plus token and paragraph-span statistics."""
    if not chunks:
        return ChunkStats(0, None, None, None, None)
    tokens = [c.token_count for c in chunks]
    spans = [c.paragraph_count for c in chunks]
    return ChunkStats(
        count=len(chunks),
        mean_tokens=statistics.fmean(tokens),
        min_tokens=min(tokens),
        max_tokens=max(tokens),
        mean_paragraphs=statistics.fmean(spans),
    )


CHUNK_FIELDS = {
    "doc_id": str,
    "chunk_id": int,
    "start_para": int,
    "end_para": int,
    "token_count": int,
    "text": str,
}


def write_chunks(chunks: Iterable[Chunk], path: str | Path) -> None:
    """Write chunk records as JSONL; identical chunks produce identical bytes."""
    write_jsonl(({name: getattr(chunk, name) for name in CHUNK_FIELDS} for chunk in chunks), path)


def read_chunks(path: str | Path) -> list[Chunk]:
    """Read chunk records written by write_chunks; a bad line raises MalformedRecordError."""
    chunks: list[Chunk] = []
    for line_number, record in read_records(path, CHUNK_FIELDS):
        try:
            chunks.append(Chunk(**{name: record[name] for name in CHUNK_FIELDS}))
        except ValueError as exc:
            raise MalformedRecordError(path, line_number, f"bad chunk record: {exc}") from exc
    return chunks
