"""Tests for document parsing, QA loading, token counting, and QA generation."""

from __future__ import annotations

import json
import logging
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingBackend, FailingBackend, make_document, words
from lumberkit.backends import BackendError, ScriptedBackend
from lumberkit.chunker import read_chunks
from lumberkit.corpus import (
    Document,
    EmptyDocumentError,
    MalformedRecordError,
    MissingColumnError,
    QAPair,
    count_tokens,
    generate_qa,
    load_document,
    load_qa,
    split_paragraphs,
    utf8_lines,
    write_document,
    write_qa,
)


def oracle_split(text: str) -> list[str]:
    # independent line-scan splitter: a blank (whitespace-only) line is a
    # boundary, non-blank lines of a block join with single spaces
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped:
            if current:
                blocks.append(current)
                current = []
        else:
            current.append(stripped)
    if current:
        blocks.append(current)
    return [" ".join(block) for block in blocks]


class TestSplitParagraphs:
    def test_three_blocks_with_mixed_blank_runs(self):
        text = "First block\nstill first.\n\nSecond block.\n\n\n\nThird  block."
        paragraphs = split_paragraphs(text)
        assert paragraphs == oracle_split(text)
        assert paragraphs == [
            "First block still first.",
            "Second block.",
            "Third  block.",
        ]

    def test_single_newline_becomes_space(self):
        assert split_paragraphs("line one\nline two") == ["line one line two"]

    def test_blank_line_with_interior_spaces_is_a_boundary(self):
        paragraphs = split_paragraphs("a\n   \t \nb")
        assert paragraphs == ["a", "b"]

    def test_crlf_input(self):
        paragraphs = split_paragraphs("a\r\n\r\nb\r\nc")
        assert paragraphs == ["a", "b c"]

    def test_surrounding_blank_lines_dropped(self):
        paragraphs = split_paragraphs("\n\n  \nonly one\n\n\n")
        assert paragraphs == ["only one"]

    def test_empty_input_raises(self):
        with pytest.raises(EmptyDocumentError):
            split_paragraphs("   \n \n\t\n ")

    @given(st.text(alphabet="ab \n\t", max_size=200))
    @settings(max_examples=200)
    def test_matches_line_scan_oracle(self, text):
        expected = oracle_split(text)
        if not expected:
            with pytest.raises(EmptyDocumentError):
                split_paragraphs(text)
        else:
            assert split_paragraphs(text) == expected

    @given(st.text(alphabet="xy .\n", min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_split_then_join_is_a_fixed_point(self, text):
        try:
            first = split_paragraphs(text)
        except EmptyDocumentError:
            return
        rejoined = "\n\n".join(first)
        assert split_paragraphs(rejoined) == first


class TestDocumentTypes:
    def test_text_joins_with_blank_lines(self):
        doc = make_document([2, 2])
        assert doc.text == doc.paragraphs[0] + "\n\n" + doc.paragraphs[1]

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            Document("d", ())

    def test_paragraph_must_be_stripped(self):
        with pytest.raises(ValueError):
            Document("d", ("ok", " padded "))

    def test_qa_pair_needs_supporting_passage(self):
        with pytest.raises(ValueError):
            QAPair("d", "q", "a", "   ")


class TestCountTokens:
    def test_empty_string_is_zero(self):
        assert count_tokens("") == 0

    def test_three_words(self):
        assert count_tokens("one two three") == 4

    def test_550_words(self):
        text = words(550)
        expected = math.ceil(Fraction(4 * 550, 3))  # exact-arithmetic oracle
        assert expected == 734
        assert count_tokens(text) == expected

    @given(st.integers(min_value=0, max_value=5000))
    def test_matches_exact_ceiling(self, n):
        assert count_tokens(words(n)) == math.ceil(Fraction(4 * n, 3))

    @given(
        st.text(alphabet="ab c", max_size=80),
        st.text(alphabet="de f", max_size=80),
    )
    @settings(max_examples=200)
    def test_monotone_under_concatenation(self, a, b):
        joined = count_tokens(a + " " + b)
        assert joined >= count_tokens(a)
        assert joined >= count_tokens(b)


class TestLoadDocument:
    def test_plain_text(self, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text("First.\n\nSecond.\n", encoding="utf-8")
        doc = load_document(path)
        assert doc.doc_id == "book"
        assert doc.paragraphs == ("First.", "Second.")

    def test_paragraph_records_reassigns_indices(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        lines = [
            '{"doc_id": "d", "index": 5, "text": "one"}',
            '{"doc_id": "d", "index": 9, "text": "two"}',
            '{"doc_id": "d", "index": 11, "text": "three"}',
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = load_document(path, "paragraph_records")
        assert doc.doc_id == "d"
        assert doc.paragraphs == ("one", "two", "three")

    def test_empty_doc_id_is_kept(self, tmp_path):
        records = tmp_path / "doc.jsonl"
        records.write_text('{"doc_id": "", "index": 1, "text": "one"}\n', encoding="utf-8")
        assert load_document(records, "paragraph_records").doc_id == ""
        plain = tmp_path / "book.txt"
        plain.write_text("one\n", encoding="utf-8")
        assert load_document(plain, doc_id="").doc_id == ""

    def test_record_with_empty_text_names_line(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_text(
            '{"doc_id": "d", "index": 1, "text": "ok"}\n'
            '{"doc_id": "d", "index": 2, "text": "   "}\n',
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecordError, match="line 2"):
            load_document(path, "paragraph_records")

    def test_record_with_bad_json_names_line(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_text('{"doc_id": "d", "index": 1, "text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 2"):
            load_document(path, "paragraph_records")

    def test_record_missing_field_names_line(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_text('{"doc_id": "d", "text": "no index"}\n', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 1"):
            load_document(path, "paragraph_records")

    def test_records_file_of_blank_lines_is_empty(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_text("\n  \n\t\r\n", encoding="utf-8")
        with pytest.raises(EmptyDocumentError) as info:
            load_document(path, "paragraph_records")
        assert str(info.value) == f"{path} contains no paragraph records"

    def test_record_lines_join_as_plain_text_lines_do(self, tmp_path):
        texts = ["one\ntwo", " three\r\nfour ", "five\rsix", "\rseven\r\n eight\r"]
        records = tmp_path / "book.jsonl"
        records.write_text(
            "".join(json.dumps({"doc_id": "book", "index": 1, "text": t}) + "\n" for t in texts),
            encoding="utf-8",
        )
        plain = tmp_path / "book.txt"
        plain.write_bytes("\n\n".join(texts).encode("utf-8"))
        document = load_document(records, "paragraph_records")
        assert document == load_document(plain)
        assert document.paragraphs == ("one two", "three four", "five six", "seven eight")

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_bytes("caf\xe9".encode("latin-1"))
        with pytest.raises(MalformedRecordError, match=r"doc\.txt, line 1: not valid UTF-8$"):
            load_document(path)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_plain_text_crlf_and_cr_load_as_lf(self, tmp_path, end):
        path = tmp_path / "book.txt"
        path.write_bytes(end.join(["One", "two.", "", "", "Three.", ""]).encode("utf-8"))
        assert load_document(path).paragraphs == ("One two.", "Three.")

    def test_round_trip_is_bit_identical(self, tmp_path):
        doc = make_document([3, 4, 5], doc_id="rt")
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_document(doc, first)
        loaded = load_document(first, "paragraph_records")
        assert loaded == doc
        write_document(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_line_separators_inside_paragraphs_round_trip(self, tmp_path):
        # write_jsonl leaves U+2028, U+2029 and U+0085 unescaped; they must
        # not end a record when it is read back
        doc = Document("ls", ("one\u2028two", "three\u2029four\x85five"))
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_document(doc, first)
        loaded = load_document(first, "paragraph_records")
        assert loaded == doc
        write_document(loaded, second)
        assert first.read_bytes() == second.read_bytes()


_QA_HEADER = ("doc_id", "question", "answer", "supporting_passage")


class TestLoadQa:
    def _write_jsonl(self, path, rows):
        import json

        path.write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
            encoding="utf-8",
        )

    def test_loads_rows(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        self._write_jsonl(
            path,
            [
                {"doc_id": "d", "question": "q1", "answer": "a1", "supporting_passage": "s1"},
                {"doc_id": "d", "question": "q2", "answer": "a2", "supporting_passage": "s2"},
            ],
        )
        pairs = load_qa(path)
        assert [p.question for p in pairs] == ["q1", "q2"]

    def test_empty_passage_row_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "qa.jsonl"
        self._write_jsonl(
            path,
            [
                {"doc_id": "d", "question": "q1", "answer": "a1", "supporting_passage": "s1"},
                {"doc_id": "d", "question": "q2", "answer": "a2", "supporting_passage": ""},
            ],
        )
        with caplog.at_level(logging.WARNING):
            pairs = load_qa(path)
        assert len(pairs) == 1
        assert any("skipped 1" in record.message for record in caplog.records)

    def test_missing_question_column_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        self._write_jsonl(path, [{"doc_id": "d", "answer": "a", "supporting_passage": "s"}])
        with pytest.raises(MissingColumnError, match="question"):
            load_qa(path)

    @pytest.mark.parametrize(
        "name, content, line",
        [
            (
                "qa_missing.jsonl",
                '{"doc_id": "d", "question": "q1", "answer": "a1", "supporting_passage": "s1"}\n'
                '{"doc_id": "d", "question": "q2", "supporting_passage": "s2"}\n',
                2,
            ),
            ("qa.csv", "doc_id,question,answer,supporting_passage\nd,q,a,s\nd,q2\n", 3),
        ],
        ids=["jsonl", "short-csv-row"],
    )
    def test_missing_answer_names_its_line(self, tmp_path, name, content, line):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        with pytest.raises(MissingColumnError) as info:
            load_qa(path)
        assert str(info.value) == f"{path}, line {line}: missing required column 'answer'"
        assert (info.value.column, info.value.line_number) == ("answer", line)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text("doc_id,answer,supporting_passage\nd,a,s\n", encoding="utf-8")
        with pytest.raises(MissingColumnError, match="question"):
            load_qa(path)

    @pytest.mark.parametrize("sep, suffix", [(",", ".csv"), ("\t", ".tsv")], ids=["csv", "tsv"])
    def test_row_with_more_cells_than_the_header_names_its_line(self, tmp_path, sep, suffix):
        path = tmp_path / f"qa{suffix}"
        rows = [("doc_id", "question", "answer", "supporting_passage"), ("d", "q", "a", "s"),
                ("d", "q", "a", "s", "extra", "cells")]
        path.write_text("".join(sep.join(row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as info:
            load_qa(path)
        assert str(info.value) == f"{path}, line 3: 6 cells under a 4-column header"

    @pytest.mark.parametrize("sep, suffix", [(",", ".csv"), ("\t", ".tsv")], ids=["csv", "tsv"])
    def test_header_naming_a_column_twice_names_line_1(self, tmp_path, sep, suffix):
        path = tmp_path / f"qa{suffix}"
        rows = [("doc_id", "question", "answer", "supporting_passage", "doc_id"),
                ("d", "q", "a", "s", "e")]
        path.write_text("".join(sep.join(row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as info:
            load_qa(path)
        assert str(info.value) == f"{path}, line 1: column 'doc_id' is named twice"

    @pytest.mark.parametrize("sep, suffix", [(",", ".csv"), ("\t", ".tsv")], ids=["csv", "tsv"])
    @pytest.mark.parametrize(
        "rows, line",
        [
            ([_QA_HEADER, ("d", "q", "a", "x" * 140_000)], 2),
            # a quote left open runs its cell on through the rows after it
            ([_QA_HEADER, ("d", '"q', "a", "s")] + [("d", "q", "a", "s")] * 20_000, 2),
            ([(*_QA_HEADER, "x" * 140_000), ("d", "q", "a", "s")], 1),
        ],
        ids=["long-passage", "unclosed-quote", "long-header"],
    )
    def test_cell_past_the_field_limit_names_its_line(self, tmp_path, sep, suffix, rows, line):
        path = tmp_path / f"qa{suffix}"
        path.write_text("".join(sep.join(row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as info:
            load_qa(path)
        assert str(info.value) == f"{path}, line {line}: field larger than field limit (131072)"

    def test_csv_rows_load(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text(
            "doc_id,question,answer,supporting_passage\nd,q,a,s\n", encoding="utf-8"
        )
        (pair,) = load_qa(path)
        assert pair == QAPair("d", "q", "a", "s")

    def test_mapped_columns(self, tmp_path):
        path = tmp_path / "external.csv"
        path.write_text(
            "Book,Question,Answer,Chunk\nGenesis,who,cain,the passage text\n",
            encoding="utf-8",
        )
        (pair,) = load_qa(
            path,
            columns={
                "doc_id": "Book",
                "question": "Question",
                "answer": "Answer",
                "supporting_passage": "Chunk",
            },
        )
        assert pair.doc_id == "Genesis"
        assert pair.supporting_passage == "the passage text"

    def test_columns_not_mapped_keep_their_names(self, tmp_path):
        path = tmp_path / "external.jsonl"
        record = {"doc_id": "d", "question": "q", "answer": "a", "passage": "the text"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (pair,) = load_qa(path, columns={"supporting_passage": "passage"})
        assert pair == QAPair("d", "q", "a", "the text")
        with pytest.raises(MissingColumnError, match=", line 1: .* 'supporting_passage'$"):
            load_qa(path)

    def test_mapped_missing_external_column(self, tmp_path):
        path = tmp_path / "external.csv"
        path.write_text("Book,Question,Answer\nGenesis,who,cain\n", encoding="utf-8")
        with pytest.raises(MissingColumnError, match="Chunk"):
            load_qa(
                path,
                columns={
                    "doc_id": "Book",
                    "question": "Question",
                    "answer": "Answer",
                    "supporting_passage": "Chunk",
                },
            )

    def test_write_round_trip_bit_identical(self, tmp_path):
        pairs = [
            QAPair("d", "q é", "a", "supporting text"),
            QAPair("d", "q2", "a2", "more text"),
        ]
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_qa(pairs, first)
        assert load_qa(first) == pairs
        write_qa(load_qa(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_utf8_jsonl_names_its_line(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        # the bad byte sits past the decoder's first 8 KB read
        row = '{"doc_id": "d", "question": "q", "answer": "a", "supporting_passage": "s"}\n'
        lines = [row.encode("utf-8")] * 400
        lines[300] = lines[300].replace(b'"q"', b'"q\xe9"')
        path.write_bytes(b"".join(lines))
        with pytest.raises(MalformedRecordError, match=r"qa\.jsonl, line 301: not valid UTF-8"):
            load_qa(path)

    def test_non_utf8_csv_names_the_file(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_bytes(b"doc_id,question,answer,supporting_passage\nd,q\xe9,a,s\n")
        with pytest.raises(MalformedRecordError, match=r"qa\.csv, line 2: not valid UTF-8$"):
            load_qa(path)

    def test_csv_quoted_field_keeps_its_line_break(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_bytes(b'doc_id,question,answer,supporting_passage\r\nd,q,"two\r\nlines",s\r\n')
        (pair,) = load_qa(path)
        assert pair.answer == "two\r\nlines"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv", ".tsv"])
    def test_crlf_and_cr_line_ends_load_as_lf(self, tmp_path, suffix, end):
        if suffix == ".jsonl":
            rows = [json.dumps({"doc_id": "d", "question": q, "answer": "a",
                                "supporting_passage": "s"}) for q in ("q1", "q2")]
        else:
            sep = "\t" if suffix == ".tsv" else ","
            rows = [sep.join(row) for row in (("doc_id", "question", "answer", "supporting_passage"),
                                              ("d", "q1", "a", "s"), ("d", "q2", "a", "s"))]
        path = tmp_path / f"qa{suffix}"
        path.write_bytes((end.join(rows) + end).encode("utf-8"))
        assert load_qa(path) == [QAPair("d", "q1", "a", "s"), QAPair("d", "q2", "a", "s")]


_GOOD_RECORD = {
    "paragraph": '{"doc_id": "d", "index": 1, "text": "one"}',
    "qa": '{"doc_id": "d", "question": "q", "answer": "a", "supporting_passage": "s"}',
    "chunk": '{"doc_id": "d", "chunk_id": 0, "start_para": 1, "end_para": 1, '
    '"token_count": 1, "text": "x"}',
}
_LOADERS = {
    "paragraph": lambda path: load_document(path, "paragraph_records"),
    "qa": load_qa,
    "chunk": read_chunks,
}


@pytest.mark.parametrize(
    "kind, old, new, reason",
    [
        ("qa", '"question": "q"', '"question": 5', "field 'question' must be str, not int"),
        ("paragraph", '"text": "one"', '"text": 5', "field 'text' must be str, not int"),
        ("paragraph", '"index": 1', '"index": "1"', "field 'index' must be int, not str"),
        ("paragraph", '"doc_id": "d"', '"doc_id": "e"', "doc_id 'e' differs from 'd'"),
        ("chunk", '"chunk_id": 0', '"chunk_id": "3"', "field 'chunk_id' must be int, not str"),
        ("chunk", '"chunk_id": 0', '"chunk_id": true', "field 'chunk_id' must be int, not bool"),
    ],
    ids=["qa-question-int", "paragraph-text-int", "paragraph-index-str",
         "paragraph-second-doc-id", "chunk-id-str", "chunk-id-bool"],
)
def test_hostile_record_names_file_line_and_field(tmp_path, kind, old, new, reason):
    path = tmp_path / f"{kind}.jsonl"
    good = _GOOD_RECORD[kind]
    path.write_text(f"{good}\n\n{good.replace(old, new)}\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError) as info:
        _LOADERS[kind](path)
    assert str(info.value) == f"{path}, line 3: {reason}"


@pytest.mark.parametrize("kind", _LOADERS)
@pytest.mark.parametrize(
    "bad, reason",
    [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"index": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["deep-nesting", "long-int"],
)
def test_json_the_decoder_refuses_names_file_and_line(tmp_path, kind, bad, reason):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(f"{_GOOD_RECORD[kind]}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError) as info:
        _LOADERS[kind](path)
    assert str(info.value).startswith(f"{path}, line 3: invalid JSON: {reason}")


@pytest.mark.parametrize("kind", _LOADERS)
def test_record_that_is_not_an_object_names_file_and_line(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(f"{_GOOD_RECORD[kind]}\n\n[1]\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError) as info:
        _LOADERS[kind](path)
    assert str(info.value) == f"{path}, line 3: record is not an object"


def test_utf8_lines_flags_only_the_undecodable_line(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes("naïve\n".encode("utf-8") + b"caf\xe9\n" + b"last")
    lines = utf8_lines(path)
    assert next(lines) == (1, "naïve\n")
    with pytest.raises(MalformedRecordError, match=r"mixed\.txt, line 2: not valid UTF-8$"):
        next(lines)


def test_utf8_lines_keeps_line_ends_as_written(tmp_path):
    path = tmp_path / "ends.txt"
    path.write_bytes(b"a\r\nb\rc\n\xc3\xa9")
    assert list(utf8_lines(path)) == [(1, "a\r\n"), (2, "b\r"), (3, "c\n"), (4, "é")]


def test_utf8_lines_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "marked.txt"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\n\xef\xbb\xbfb\n")
    assert list(utf8_lines(path)) == [(1, "\ufeffa\n"), (2, "\ufeffb\n")]


@pytest.mark.parametrize(
    "name, content, load",
    [
        ("book.txt", "One\ntwo.\n\nThree.\n", load_document),
        ("book.jsonl", _GOOD_RECORD["paragraph"] + "\n", _LOADERS["paragraph"]),
        ("qa.jsonl", _GOOD_RECORD["qa"] + "\n", load_qa),
        ("qa.csv", "doc_id,question,answer,supporting_passage\nd,q,a,s\n", load_qa),
        ("qa.tsv", "doc_id\tquestion\tanswer\tsupporting_passage\nd\tq\ta\ts\n", load_qa),
    ],
    ids=["plain-text", "paragraph-records", "qa-jsonl", "qa-csv", "qa-tsv"],
)
def test_leading_byte_order_mark_loads_as_the_file_without_it(tmp_path, name, content, load):
    plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
    for path, text in ((plain, content), (marked, "\ufeff" + content)):
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(marked) == load(plain)


# the gen-qa prompt for the tale.* documents below, as the code before the
# Document title field was removed rendered it
_TALE_PROMPT = (
    'You are given an excerpt from the book "tale". Write one question-answer pair that is '
    "specific to the excerpt, together with the exact sentence or sentences from the excerpt "
    "that support the answer. Copy the supporting passage verbatim; do not shorten it with "
    "ellipses. Use exactly the field layout of the example.\n\nExample:\n\nPassage: The "
    "lighthouse keeper wound the great clock at midnight, as his father had done before him. "
    "The town below slept without ever hearing it.\nQuestion: When did the lighthouse keeper "
    "wind the great clock?\nAnswer: He wound it at midnight.\nSupporting Passage: The "
    "lighthouse keeper wound the great clock at midnight, as his father had done before him."
    "\n\nPassage: The keeper wound the clock.\n\nThe town slept.\n\nIt rained.\n"
)


class TestGenerateQa:
    def _doc(self):
        return make_document([8, 8, 8, 8, 8, 8], doc_id="gen")

    def test_keeps_pairs_with_verbatim_passage(self):
        doc = self._doc()
        passage = doc.paragraphs[0]

        def respond(prompt):
            return (
                "Question: What is discussed?\n"
                "Answer: Some words.\n"
                f"Supporting Passage: {passage}"
            )

        backend = CountingBackend(respond)
        pairs = generate_qa(doc, backend, 3, seed=7)
        assert len(pairs) == 3
        assert all(p.supporting_passage == passage for p in pairs)
        assert all(p.doc_id == "gen" for p in pairs)
        assert backend.calls == 3

    def test_rejects_passages_not_in_document(self, caplog):
        doc = self._doc()

        def respond(prompt):
            return (
                "Question: q?\nAnswer: a.\nSupporting Passage: entirely invented text"
            )

        with caplog.at_level(logging.WARNING):
            pairs = generate_qa(doc, CountingBackend(respond), 2, seed=0)
        assert pairs == []
        assert any("not found verbatim" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "reply",
        [
            "no fields here",
            # every field is present, but the answer is blank once whitespace is normalized
            "Question: Who came?\nAnswer: \nSupporting Passage: {passage}",
        ],
        ids=["no-fields", "blank-answer"],
    )
    def test_unparsable_response_skipped(self, reply, caplog):
        doc = self._doc()
        reply = reply.format(passage=doc.paragraphs[0])
        with caplog.at_level(logging.WARNING):
            pairs = generate_qa(doc, ScriptedBackend(lambda p: reply), 2, seed=0)
        assert pairs == []
        assert "2 unparsable response(s), 0 passage(s) not found verbatim" in caplog.text

    def test_zero_samples_no_calls(self):
        backend = CountingBackend(lambda p: "unused")
        assert generate_qa(self._doc(), backend, 0) == []
        assert backend.calls == 0

    def test_backend_error_propagates_after_retries(self):
        backend = FailingBackend()
        with pytest.raises(BackendError):
            generate_qa(self._doc(), backend, 1)
        assert backend.calls == 1

    @pytest.mark.parametrize(
        "name, content, format",
        [
            ("tale.txt", b"The keeper wound\r\nthe clock.\n\nThe town slept.\r\rIt rained.\n",
             "plain_text"),
            ("tale.jsonl",
             b'{"doc_id": "tale", "index": 1, "text": "The keeper wound\\nthe clock."}\n'
             b'{"doc_id": "tale", "index": 2, "text": "The town slept."}\n'
             b'{"doc_id": "tale", "index": 3, "text": "It rained."}\n',
             "paragraph_records"),
        ],
        ids=["plain-text", "paragraph-records"],
    )
    def test_prompt_names_the_book_by_its_doc_id(self, tmp_path, name, content, format):
        path = tmp_path / name
        path.write_bytes(content)
        prompts = []
        backend = ScriptedBackend(lambda prompt: prompts.append(prompt) or "unparsable")
        generate_qa(load_document(path, format), backend, 1)
        assert [prompt.encode("utf-8") for prompt in prompts] == [_TALE_PROMPT.encode("utf-8")]

    def test_sampling_is_seeded(self):
        doc = self._doc()
        captured: list[str] = []

        def respond(prompt):
            captured.append(prompt)
            return "Question: q?\nAnswer: a.\nSupporting Passage: nothing"

        generate_qa(doc, CountingBackend(respond), 4, seed=11)
        first = list(captured)
        captured.clear()
        generate_qa(doc, CountingBackend(respond), 4, seed=11)
        assert captured == first
