"""Document ingestion and question-answer data handling.

A document is a sequence of paragraph texts, paragraph i at position i. The
paragraph boundary is a blank line; single line breaks inside a paragraph are
treated as spaces. Paragraph and QA records are line-delimited JSON, parsed
by read_records, and round-trip bit-identically through their writers.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Mapping

from .errors import ConfigError, LumberkitError

if TYPE_CHECKING:
    from .backends import CompletionBackend

logger = logging.getLogger(__name__)

PARAGRAPH_SEPARATOR = "\n\n"

DocumentFormat = Literal["plain_text", "paragraph_records"]

_QA_COLUMNS = ("doc_id", "question", "answer", "supporting_passage")

PARAGRAPH_FIELDS = {"doc_id": str, "index": int, "text": str}


class CorpusError(LumberkitError):
    """Problem with document or QA input data."""


class EmptyDocumentError(CorpusError):
    """The input text contains no non-whitespace content."""


class MalformedRecordError(CorpusError):
    """An input file contains an unusable line."""

    def __init__(self, path: object, line_number: int, reason: str):
        super().__init__(f"{path}, line {line_number}: {reason}")
        self.line_number = line_number


class MissingColumnError(MalformedRecordError):
    """A record or table row lacks one of the required columns."""

    def __init__(self, column: str, path: object, line_number: int):
        super().__init__(path, line_number, f"missing required column {column!r}")
        self.column = column


@dataclass(frozen=True)
class Document:
    """An ordered sequence of paragraph texts; paragraph i is paragraphs[i - 1]."""

    doc_id: str
    paragraphs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paragraphs", tuple(self.paragraphs))
        if not self.paragraphs:
            raise ValueError("a document must contain at least one paragraph")
        for text in self.paragraphs:
            if not text or text != text.strip():
                raise ValueError("paragraph text must be non-empty and stripped")

    def __len__(self) -> int:
        return len(self.paragraphs)

    @property
    def text(self) -> str:
        """The normalized document text: paragraphs joined by blank lines."""
        return PARAGRAPH_SEPARATOR.join(self.paragraphs)


@dataclass(frozen=True)
class QAPair:
    """A question with its gold answer and the passage that supports it."""

    doc_id: str
    question: str
    answer: str
    supporting_passage: str

    def __post_init__(self) -> None:
        if not self.supporting_passage.strip():
            raise ValueError("supporting_passage must be non-empty")


def _paragraph_text(raw: str) -> str:
    """A paragraph's text from its raw text, in plain text or a record.

    Lines end at "\\n", "\\r" or "\\r\\n"; each is stripped, the empty ones
    are dropped and the rest are joined by one space.
    """
    lines = raw.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return " ".join(line for line in map(str.strip, lines) if line)


def split_paragraphs(raw_text: str) -> list[str]:
    """Split raw text into paragraph texts on blank-line boundaries.

    Runs of blank lines collapse into a single boundary, single line breaks
    inside a paragraph become spaces, and each paragraph is trimmed.
    Raises EmptyDocumentError when nothing but whitespace remains.
    """
    normalized = raw_text.replace("\r\n", "\n").replace("\r", "\n")
    paragraphs: list[str] = []
    for block in re.split(r"\n\s*\n", normalized):
        if text := _paragraph_text(block):
            paragraphs.append(text)
    if not paragraphs:
        raise EmptyDocumentError("input text contains no paragraphs")
    return paragraphs


def count_tokens(text: str) -> int:
    """Deterministic proxy for subword counts: ceil(word_count * 4 / 3)."""
    return (4 * len(text.split()) + 2) // 3


def load_document(
    path: str | Path,
    format: DocumentFormat = "plain_text",
    *,
    doc_id: str | None = None,
) -> Document:
    """Load a document from disk.

    plain_text files are split on blank lines; one with no paragraph raises
    EmptyDocumentError naming it. paragraph_records files hold one JSON
    record per line with a str doc_id, an int index and a str text, read by
    read_records. Every record must carry the same doc_id, which
    doc_id= overrides; a given id is kept even when empty. Paragraphs keep
    the records' file order; the index values in the file are checked for
    type but not used. A record's text is joined from its lines as a
    plain-text paragraph's is.
    """
    path = Path(path)
    if format == "plain_text":
        raw = "".join(line for _n, line in utf8_lines(path))
        try:
            return Document(path.stem if doc_id is None else doc_id, tuple(split_paragraphs(raw)))
        except EmptyDocumentError:
            raise EmptyDocumentError(f"{path} contains no paragraphs") from None
    if format != "paragraph_records":
        raise ValueError(f"unknown document format: {format!r}")
    paragraphs: list[str] = []
    record_doc_id: str | None = None
    for line_number, record in read_records(path, PARAGRAPH_FIELDS):
        if record_doc_id is None:
            record_doc_id = record["doc_id"]
        elif record["doc_id"] != record_doc_id:
            raise MalformedRecordError(
                path, line_number, f"doc_id {record['doc_id']!r} differs from {record_doc_id!r}"
            )
        text = _paragraph_text(record["text"])
        if not text:
            raise MalformedRecordError(path, line_number, "empty paragraph text")
        paragraphs.append(text)
    if not paragraphs:
        raise EmptyDocumentError(f"{path} contains no paragraph records")
    return Document(record_doc_id if doc_id is None else doc_id, tuple(paragraphs))


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """Write one compact JSON record per line, without ASCII escaping."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_document(document: Document, path: str | Path) -> None:
    """Write paragraph records; reading them back round-trips bit-identically."""
    write_jsonl(
        (
            dict(zip(PARAGRAPH_FIELDS, (document.doc_id, index, text)))
            for index, text in enumerate(document.paragraphs, start=1)
        ),
        path,
    )


def utf8_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Number a UTF-8 text file's lines, each with its line end as written.

    This is the one reader of every input file. Lines end at "\\n", "\\r" or
    "\\r\\n", and a byte-order mark (U+FEFF) that starts the file is dropped.
    Bad bytes are read as surrogate escapes and checked line by line, so the
    MalformedRecordError they raise names their own line rather than wherever
    the decoder's read-ahead met them.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRecordError(path, line_number, "not valid UTF-8") from None
            yield line_number, line


def read_records(path: str | Path, fields: Mapping[str, type]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSONL file.

    Lines end only at "\\n", "\\r" or "\\r\\n", so the U+2028, U+2029 and
    U+0085 that write_jsonl leaves unescaped stay inside their record. Each
    record must be a JSON object whose strings hold no lone surrogate (a
    \\ud800-\\udfff escape that is not half of a pair), holding every name
    in fields with exactly the mapped type (a bool is not an int). A line
    that fails raises MalformedRecordError naming the file and line; an
    absent field raises its subclass MissingColumnError.
    """
    path = Path(path)
    for line_number, line in utf8_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too many digits or too deep nesting
            raise MalformedRecordError(path, line_number, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedRecordError(path, line_number, "record is not an object")
        if "\\u" in line:  # only a \u escape can give a string a lone surrogate
            try:
                json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRecordError(
                    path, line_number, "a \\u escape holds a lone surrogate, which is not text"
                ) from None
        for field, kind in fields.items():
            if field not in record:
                raise MissingColumnError(field, path, line_number)
            if type(record[field]) is not kind:
                found = type(record[field]).__name__
                raise MalformedRecordError(
                    path, line_number, f"field {field!r} must be {kind.__name__}, not {found}"
                )
        yield line_number, record


def _iter_delimited_rows(path: Path, columns: list[str]) -> Iterator[tuple[int, dict]]:
    delimiter = "\t" if path.suffix.lower() == ".tsv" else ","
    reader = csv.DictReader((line for _n, line in utf8_lines(path)), delimiter=delimiter)
    try:
        header = reader.fieldnames or []
        for column in columns:
            if column not in header:
                raise MissingColumnError(column, path, 1)
            if header.count(column) > 1:
                raise MalformedRecordError(path, 1, f"column {column!r} is named twice")
        for row in reader:
            for column in columns:
                if row[column] is None:
                    raise MissingColumnError(column, path, reader.line_num)
            if None in row:  # DictReader files cells past the header under None
                cells = len(header) + len(row[None])
                raise MalformedRecordError(
                    path, reader.line_num, f"{cells} cells under a {len(header)}-column header"
                )
            yield reader.line_num, row
    except csv.Error as exc:  # a cell past csv.field_size_limit(), as a quote left open runs
        # reader.line_num is the last line of the last row read; name the next
        raise MalformedRecordError(path, reader.line_num + 1, str(exc)) from exc


def load_qa(path: str | Path, columns: Mapping[str, str] | None = None) -> list[QAPair]:
    """Load QA records from a .jsonl or delimited (.csv/.tsv) table.

    Required columns: doc_id, question, answer, supporting_passage; JSONL
    values must be strings. columns maps any of these names to the name the
    file uses instead, so published question sets such as GutenQA load
    without renaming files by hand. Rows with an empty supporting passage are
    skipped and counted in a logged warning; an absent column raises
    MissingColumnError naming it as the file spells it, with the file and
    line, and a file that yields no pair raises CorpusError naming the file.
    A delimited row with more cells than its header, a header that names a
    column twice, or a row the csv module cannot read (a cell longer than
    csv.field_size_limit()) raises MalformedRecordError with its line.
    """
    path = Path(path)
    names = [(columns or {}).get(column, column) for column in _QA_COLUMNS]
    if path.suffix.lower() in {".csv", ".tsv"}:
        rows = _iter_delimited_rows(path, names)
    else:
        rows = read_records(path, dict.fromkeys(names, str))
    pairs: list[QAPair] = []
    skipped = 0
    for _line_number, row in rows:
        doc_id, question, answer, passage = (row[name] for name in names)
        if not passage.strip():
            skipped += 1
            continue
        pairs.append(QAPair(doc_id, question, answer, passage.strip()))
    if skipped:
        logger.warning("skipped %d QA row(s) with empty supporting passages in %s", skipped, path)
    if not pairs:
        raise CorpusError(f"{path} contains no QA records with a supporting passage")
    return pairs


def write_qa(pairs: Iterable[QAPair], path: str | Path) -> None:
    """Write QA records as JSONL; load_qa reads them back bit-identically."""
    write_jsonl(({column: getattr(pair, column) for column in _QA_COLUMNS} for pair in pairs), path)


QA_PROMPT_TEMPLATE = """\
You are given an excerpt from the book "{doc_id}". Write one question-answer \
pair that is specific to the excerpt, together with the exact sentence or \
sentences from the excerpt that support the answer. Copy the supporting \
passage verbatim; do not shorten it with ellipses. Use exactly the field \
layout of the example.

Example:

Passage: The lighthouse keeper wound the great clock at midnight, as his \
father had done before him. The town below slept without ever hearing it.
Question: When did the lighthouse keeper wind the great clock?
Answer: He wound it at midnight.
Supporting Passage: The lighthouse keeper wound the great clock at midnight, \
as his father had done before him.

Passage: {passage}
"""

_QA_FIELD_RE = re.compile(
    r"Question\s*:\s*(?P<question>.+?)\s*"
    r"Answer\s*:\s*(?P<answer>.+?)\s*"
    r"Supporting Passage\s*:\s*(?P<passage>.+?)\s*$",
    re.IGNORECASE | re.DOTALL,
)


def normalize_whitespace(text: str) -> str:
    """Collapse all whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def parse_qa_response(response: str) -> tuple[str, str, str] | None:
    """Extract (question, answer, supporting passage) or None when unusable."""
    match = _QA_FIELD_RE.search(response)
    if match is None:
        return None
    question = normalize_whitespace(match.group("question"))
    answer = normalize_whitespace(match.group("answer"))
    passage = match.group("passage").strip()
    if not question or not answer or not passage:
        return None
    return question, answer, passage


def generate_qa(
    document: Document, llm: CompletionBackend, n: int, *, seed: int = 0
) -> list[QAPair]:
    """Generate up to n QA pairs from randomly sampled passages.

    Each sample is a window of 3-6 consecutive paragraphs drawn with the
    seeded RNG. The backend answers with Question/Answer/Supporting Passage
    fields; pairs whose supporting passage does not occur verbatim in the
    document (after whitespace normalization) are dropped. Parse failures and
    rejected passages are counted in a logged warning. A BackendError
    propagates; the backend does its own retrying. n=0 makes no calls.
    """
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    rng = random.Random(seed)
    doc_normalized = normalize_whitespace(document.text)
    pairs: list[QAPair] = []
    parse_failures = 0
    rejected = 0
    for _ in range(n):
        span = min(rng.randint(3, 6), len(document))
        start = rng.randint(1, len(document) - span + 1)
        passage = PARAGRAPH_SEPARATOR.join(document.paragraphs[start - 1 : start - 1 + span])
        prompt = QA_PROMPT_TEMPLATE.format(doc_id=document.doc_id, passage=passage)
        triple = parse_qa_response(llm.complete(prompt))
        if triple is None:
            parse_failures += 1
            continue
        question, answer, supporting = triple
        if normalize_whitespace(supporting) not in doc_normalized:
            rejected += 1
            continue
        pairs.append(QAPair(document.doc_id, question, answer, supporting))
    if parse_failures or rejected:
        logger.warning(
            "generate_qa: %d unparsable response(s), %d passage(s) not found verbatim",
            parse_failures,
            rejected,
        )
    return pairs
