"""Tests for document parsing, QA loading, token counting, and QA generation."""

from __future__ import annotations

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
    CorpusError,
    Document,
    EmptyDocumentError,
    MalformedRecordError,
    MissingColumnError,
    Paragraph,
    QAPair,
    count_tokens,
    generate_qa,
    load_document,
    load_qa,
    load_qa_mapped,
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
        assert [p.text for p in paragraphs] == oracle_split(text)
        assert [p.text for p in paragraphs] == [
            "First block still first.",
            "Second block.",
            "Third  block.",
        ]

    def test_indices_are_one_based_and_contiguous(self):
        paragraphs = split_paragraphs("a\n\nb\n\nc\n\nd")
        assert [p.index for p in paragraphs] == [1, 2, 3, 4]

    def test_single_newline_becomes_space(self):
        (para,) = split_paragraphs("line one\nline two")
        assert para.text == "line one line two"

    def test_blank_line_with_interior_spaces_is_a_boundary(self):
        paragraphs = split_paragraphs("a\n   \t \nb")
        assert [p.text for p in paragraphs] == ["a", "b"]

    def test_crlf_input(self):
        paragraphs = split_paragraphs("a\r\n\r\nb\r\nc")
        assert [p.text for p in paragraphs] == ["a", "b c"]

    def test_surrounding_blank_lines_dropped(self):
        paragraphs = split_paragraphs("\n\n  \nonly one\n\n\n")
        assert [p.text for p in paragraphs] == ["only one"]

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
            assert [p.text for p in split_paragraphs(text)] == expected

    @given(st.text(alphabet="xy .\n", min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_split_then_join_is_a_fixed_point(self, text):
        try:
            first = split_paragraphs(text)
        except EmptyDocumentError:
            return
        rejoined = "\n\n".join(p.text for p in first)
        second = split_paragraphs(rejoined)
        assert [p.text for p in second] == [p.text for p in first]


class TestDocumentTypes:
    def test_text_joins_with_blank_lines(self):
        doc = make_document([2, 2])
        assert doc.text == doc.paragraphs[0].text + "\n\n" + doc.paragraphs[1].text

    def test_non_contiguous_indices_rejected(self):
        with pytest.raises(ValueError):
            Document("d", "d", (Paragraph(1, "a"), Paragraph(3, "b")))

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            Document("d", "d", ())

    def test_paragraph_must_be_stripped(self):
        with pytest.raises(ValueError):
            Paragraph(1, " padded ")

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
        assert [p.text for p in doc.paragraphs] == ["First.", "Second."]

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
        assert [(p.index, p.text) for p in doc.paragraphs] == [
            (1, "one"),
            (2, "two"),
            (3, "three"),
        ]

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

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_bytes("caf\xe9".encode("latin-1"))
        with pytest.raises(Exception, match="UTF-8"):
            load_document(path)

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
        doc = Document(
            "ls", "ls", (Paragraph(1, "one\u2028two"), Paragraph(2, "three\u2029four\x85five"))
        )
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_document(doc, first)
        loaded = load_document(first, "paragraph_records")
        assert loaded == doc
        write_document(loaded, second)
        assert first.read_bytes() == second.read_bytes()


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
        assert str(info.value) == f"missing required column 'answer' in {path}, line {line}"

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text("doc_id,answer,supporting_passage\nd,a,s\n", encoding="utf-8")
        with pytest.raises(MissingColumnError, match="question"):
            load_qa(path)

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
        (pair,) = load_qa_mapped(
            path,
            {
                "doc_id": "Book",
                "question": "Question",
                "answer": "Answer",
                "supporting_passage": "Chunk",
            },
        )
        assert pair.doc_id == "Genesis"
        assert pair.supporting_passage == "the passage text"

    def test_mapped_missing_external_column(self, tmp_path):
        path = tmp_path / "external.csv"
        path.write_text("Book,Question,Answer\nGenesis,who,cain\n", encoding="utf-8")
        with pytest.raises(MissingColumnError, match="Chunk"):
            load_qa_mapped(
                path,
                {
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
        with pytest.raises(CorpusError, match=r"qa\.csv is not valid UTF-8"):
            load_qa(path)


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


def test_utf8_lines_flags_only_the_undecodable_line(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes("naïve\n".encode("utf-8") + b"caf\xe9\n" + b"last")
    assert list(utf8_lines(path)) == [(1, "naïve\n"), (2, None), (3, "last")]


class TestGenerateQa:
    def _doc(self):
        return make_document([8, 8, 8, 8, 8, 8], doc_id="gen")

    def test_keeps_pairs_with_verbatim_passage(self):
        doc = self._doc()
        passage = doc.paragraphs[0].text

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

    def test_unparsable_response_skipped(self):
        doc = self._doc()
        pairs = generate_qa(doc, ScriptedBackend(lambda p: "no fields here"), 2, seed=0)
        assert pairs == []

    def test_zero_samples_no_calls(self):
        backend = CountingBackend(lambda p: "unused")
        assert generate_qa(self._doc(), backend, 0) == []
        assert backend.calls == 0

    def test_backend_error_propagates_after_retries(self):
        backend = FailingBackend()
        with pytest.raises(BackendError):
            generate_qa(self._doc(), backend, 1)
        assert backend.calls == 1

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
