"""Tests for the LLM-driven chunking loop and its chunk containers."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CountingBackend,
    FailingBackend,
    garbage_responder,
    last_id_responder,
    make_document,
    prompt_ids,
    words,
)
from lumberkit.backends import ReplayBackend, ResponseCache, ScriptedBackend
from lumberkit.chunker import (
    PROMPT_HEADER,
    Chunk,
    ChunkerConfig,
    ChunkerError,
    ChunkingAborted,
    ChunkStats,
    Group,
    OutOfRangeError,
    ParseError,
    build_group,
    chunk_stats,
    lumber_steps,
    lumberchunk,
    parse_split_id,
    read_chunks,
    render_prompt,
    verify_partition,
    write_chunks,
)
from lumberkit.corpus import MalformedRecordError, count_tokens

# 150 words -> 200 tokens under the default counter
PARA_WORDS = 150
PARA_TOKENS = 200


def doc_200s(n: int, doc_id: str = "doc"):
    return make_document([PARA_WORDS] * n, doc_id=doc_id)


def spans(chunks):
    return [(c.start_para, c.end_para) for c in chunks]


class TestChunkerConfig:
    def test_defaults(self):
        config = ChunkerConfig()
        assert (config.theta, config.max_retries) == (550, 3)
        assert (config.min_tail_paragraphs, config.id_width) == (2, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": 0},
            {"max_retries": -1},
            {"min_tail_paragraphs": 0},
            {"id_width": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ChunkerConfig(**kwargs)


class TestBuildGroup:
    def test_includes_paragraph_that_crosses_theta(self):
        document = doc_200s(9)
        group = build_group(document, 1)
        assert (group.start_index, group.end_index) == (1, 3)
        assert group.token_total == 600
        assert len(group) == 3

    def test_stops_at_document_end(self):
        document = doc_200s(2)
        group = build_group(document, 1)
        assert (group.start_index, group.end_index) == (1, 2)
        assert group.token_total == 400

    def test_single_oversized_paragraph(self):
        document = make_document([600])
        group = build_group(document, 1, ChunkerConfig(theta=100))
        assert len(group) == 1
        assert group.token_total == count_tokens(words(600, tag="p1w"))

    def test_start_out_of_range(self):
        document = doc_200s(3)
        with pytest.raises(ChunkerError):
            build_group(document, 0)
        with pytest.raises(ChunkerError):
            build_group(document, 4)

    def test_counts_through_module_count_tokens(self, monkeypatch):
        # perfbench/tracing.py wraps lumberkit.chunker.count_tokens by name
        monkeypatch.setattr("lumberkit.chunker.count_tokens", lambda text: 1)
        group = build_group(doc_200s(4), 1, ChunkerConfig(theta=2))
        assert len(group) == 3  # totals 1, 2, 3; 3 > 2 stops the scan
        assert group.token_total == 3

    @given(
        word_counts=st.lists(st.integers(1, 400), min_size=1, max_size=30),
        theta=st.integers(1, 800),
        start=st.integers(1, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_total_without_last_member_never_exceeds_theta(self, word_counts, theta, start):
        document = make_document(word_counts)
        if start > len(document):
            return
        group = build_group(document, start, ChunkerConfig(theta=theta))
        without_last = group.token_total - count_tokens(group.paragraphs[-1].text)
        assert without_last <= theta
        if group.end_index < len(document):
            assert group.token_total > theta


class TestRenderPrompt:
    def test_header_anchors(self):
        prompt = render_prompt(build_group(doc_200s(3), 1))
        assert prompt.startswith(
            "You will receive as input an English document with paragraphs "
            "identified by 'ID XXXX: <text>'."
        )
        assert (
            "Find the first paragraph (not the first one) where the content "
            "clearly changes compared to the previous paragraphs." in prompt
        )
        assert "exemplified format: 'Answer: ID XXXX'." in prompt
        assert "Avoid very long groups of paragraphs." in prompt
        assert "Document:" in prompt

    def test_ids_zero_padded_and_blank_line_separated(self):
        document = doc_200s(3)
        prompt = render_prompt(build_group(document, 1))
        assert "ID 0001: p1w0" in prompt
        assert "\n\nID 0002:" in prompt
        assert prompt_ids(prompt) == [1, 2, 3]

    def test_mid_document_ids(self):
        document = doc_200s(25)
        prompt = render_prompt(build_group(document, 18))
        assert prompt_ids(prompt) == [18, 19, 20]
        assert "ID 0019:" in prompt

    def test_width_grows_past_config(self):
        document = make_document([1] * 120)
        group = build_group(document, 99, ChunkerConfig(theta=2, id_width=2))
        prompt = render_prompt(group, ChunkerConfig(theta=2, id_width=2))
        assert "ID 099:" in prompt
        assert "ID 100:" in prompt

    def test_deterministic_bytes(self):
        group = build_group(doc_200s(9), 4)
        assert render_prompt(group) == render_prompt(group)

    def test_paragraph_text_preserved(self):
        document = doc_200s(3)
        prompt = render_prompt(build_group(document, 1))
        for para in document.paragraphs[:3]:
            assert para.text in prompt


class TestParseSplitId:
    @pytest.fixture()
    def group(self):
        return build_group(doc_200s(25), 18)  # paragraphs 18..20

    def test_expected_format(self, group):
        assert parse_split_id("Answer: ID 0019", group) == 19

    def test_case_and_spacing_tolerant(self, group):
        assert parse_split_id("answer:id 19", group) == 19
        assert parse_split_id("ANSWER :  ID   0020", group) == 20

    def test_colon_after_id(self, group):
        assert parse_split_id("Answer: ID: 0019", group) == 19

    def test_bare_id_fallback(self, group):
        assert parse_split_id("I think the shift is at ID 0019.", group) == 19

    def test_answer_form_preferred_over_earlier_bare_id(self, group):
        assert parse_split_id("ID 0020 stays on topic. Answer: ID 0019", group) == 19

    def test_surrounding_prose(self, group):
        response = "Looking at the text,\nthe topic changes.\n\nAnswer: ID 0020\nHope that helps."
        assert parse_split_id(response, group) == 20

    def test_first_paragraph_of_group_rejected(self):
        group = build_group(doc_200s(9), 1)
        with pytest.raises(OutOfRangeError):
            parse_split_id("Answer: ID 0001", group)

    def test_id_past_group_end_rejected(self, group):
        with pytest.raises(OutOfRangeError):
            parse_split_id("Answer: ID 0021", group)

    def test_id_before_group_rejected(self, group):
        with pytest.raises(OutOfRangeError):
            parse_split_id("Answer: ID 0002", group)

    def test_no_id_raises_parse_error(self, group):
        with pytest.raises(ParseError):
            parse_split_id("the shift happens early on", group)


class TestLumberchunk:
    def test_nine_even_paragraphs(self):
        document = doc_200s(9)
        backend = CountingBackend(last_id_responder)
        chunks = lumberchunk(document, backend=backend)
        assert spans(chunks) == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 9)]
        assert [c.chunk_id for c in chunks] == [0, 1, 2, 3, 4]
        assert backend.calls == 4  # the single-paragraph tail never reaches the backend
        verify_partition(chunks, 9)

    def test_chunk_text_and_tokens(self):
        document = doc_200s(9)
        chunks = lumberchunk(document, backend=CountingBackend(last_id_responder))
        first = chunks[0]
        assert first.text == document.paragraphs[0].text + "\n\n" + document.paragraphs[1].text
        assert first.token_count == count_tokens(first.text)
        assert first.token_count == 400

    def test_step_metadata(self):
        document = doc_200s(9)
        steps = list(lumber_steps(document, backend=CountingBackend(last_id_responder)))
        assert [s.used_llm for s in steps] == [True, True, True, True, False]
        assert all(not s.fell_back for s in steps)
        assert [s.attempts for s in steps] == [1, 1, 1, 1, 0]
        for step in steps:
            assert step.chunk.start_para == step.group.start_index

    def test_small_document_needs_no_backend(self):
        document = doc_200s(2)  # 400 tokens total, never exceeds theta
        chunks = lumberchunk(document)
        assert spans(chunks) == [(1, 2)]

    def test_single_paragraph_document(self):
        document = make_document([900])
        backend = CountingBackend(last_id_responder)
        chunks = lumberchunk(document, backend=backend)
        assert spans(chunks) == [(1, 1)]
        assert backend.calls == 0

    def test_backend_required_for_large_documents(self):
        with pytest.raises(ChunkerError, match="backend"):
            lumberchunk(doc_200s(9))

    def test_tail_over_theta_with_enough_paragraphs_consults_backend(self):
        document = make_document([300, 300])  # one 800-token group covering the whole doc
        backend = CountingBackend(lambda p: "Answer: ID 0002")
        chunks = lumberchunk(document, backend=backend)
        assert spans(chunks) == [(1, 1), (2, 2)]
        assert backend.calls == 1

    def test_short_tail_skips_backend_even_over_theta(self):
        document = make_document([300, 300])
        backend = CountingBackend(last_id_responder)
        config = ChunkerConfig(min_tail_paragraphs=3)
        chunks = lumberchunk(document, config=config, backend=backend)
        assert spans(chunks) == [(1, 2)]
        assert backend.calls == 0

    def test_oversized_mid_document_paragraph_becomes_its_own_chunk(self):
        # 600-token paragraph forms a singleton group with no legal split
        # answer, so the retry budget burns down and fallback emits it alone
        document = make_document([450, 150, 150, 150])
        backend = CountingBackend(last_id_responder)
        config = ChunkerConfig(max_retries=1)
        chunks = lumberchunk(document, config=config, backend=backend)
        assert spans(chunks)[0] == (1, 1)
        verify_partition(chunks, 4)
        assert backend.calls >= 2  # both singleton attempts rejected as out of range

    def test_garbage_responses_fall_back_to_whole_groups(self):
        document = doc_200s(9)
        backend = CountingBackend(garbage_responder)
        config = ChunkerConfig(max_retries=2)
        chunks = lumberchunk(document, config=config, backend=backend)
        assert spans(chunks) == [(1, 3), (4, 6), (7, 9)]
        assert backend.calls == 9  # 3 groups x (1 attempt + 2 retries)
        verify_partition(chunks, 9)

    def test_fallback_step_metadata(self):
        document = doc_200s(9)
        config = ChunkerConfig(max_retries=2)
        steps = list(
            lumber_steps(document, config=config, backend=CountingBackend(garbage_responder))
        )
        assert all(s.fell_back for s in steps)
        assert [s.attempts for s in steps] == [3, 3, 3]

    def test_out_of_range_answers_also_retry(self):
        document = doc_200s(9)
        backend = CountingBackend(lambda p: "Answer: ID 9999")
        config = ChunkerConfig(max_retries=1)
        chunks = lumberchunk(document, config=config, backend=backend)
        assert spans(chunks) == [(1, 3), (4, 6), (7, 9)]
        assert backend.calls == 6

    def test_mixed_garbage_then_valid(self):
        document = doc_200s(9)
        attempts = {"n": 0}

        def flaky(prompt: str) -> str:
            attempts["n"] += 1
            if attempts["n"] % 2 == 1:
                return "no identifier here"
            return last_id_responder(prompt)

        chunks = lumberchunk(document, backend=CountingBackend(flaky))
        assert spans(chunks) == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 9)]

    def test_transport_failure_carries_partial_chunks(self):
        document = doc_200s(9)
        backend = FailingBackend(respond=last_id_responder, fail_after=2)
        with pytest.raises(ChunkingAborted) as excinfo:
            lumberchunk(document, backend=backend)
        aborted = excinfo.value
        assert spans(aborted.chunks) == [(1, 2), (3, 4)]
        assert "last emitted chunk 1 (paragraphs 3-4)" in str(aborted)

    def test_immediate_transport_failure(self):
        document = doc_200s(9)
        with pytest.raises(ChunkingAborted) as excinfo:
            lumberchunk(document, backend=FailingBackend())
        assert excinfo.value.chunks == []
        assert "no chunks emitted" in str(excinfo.value)


class TestCacheIntegration:
    def test_second_run_is_served_from_cache(self, tmp_path):
        document = doc_200s(9)
        cache = ResponseCache(tmp_path / "cache.jsonl", model_id="m")
        backend = CountingBackend(last_id_responder)
        first = lumberchunk(document, backend=backend, cache=cache)
        assert backend.calls == 4
        second = lumberchunk(document, backend=backend, cache=cache)
        assert backend.calls == 4
        assert first == second

    def test_replay_reproduces_chunks_byte_identically(self, tmp_path):
        document = doc_200s(9)
        cache_path = tmp_path / "cache.jsonl"
        cache = ResponseCache(cache_path, model_id="m")
        live = lumberchunk(document, backend=CountingBackend(last_id_responder), cache=cache)
        replayed = lumberchunk(document, backend=ReplayBackend.from_file(cache_path, "m"))
        assert replayed == live
        live_file = tmp_path / "live.jsonl"
        replay_file = tmp_path / "replay.jsonl"
        write_chunks(live, live_file)
        write_chunks(replayed, replay_file)
        assert live_file.read_bytes() == replay_file.read_bytes()

    def test_retry_bypasses_stale_cache_and_overwrites_it(self, tmp_path):
        document = doc_200s(9)
        cache = ResponseCache(tmp_path / "cache.jsonl", model_id="m")
        first_prompt = render_prompt(build_group(document, 1))
        cache.put(first_prompt, "nothing useful")
        backend = CountingBackend(last_id_responder)
        chunks = lumberchunk(document, backend=backend, cache=cache)
        assert spans(chunks) == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 9)]
        assert cache.get(first_prompt) == "Answer: ID 0003"
        replayed = lumberchunk(
            document, backend=ReplayBackend(cache), cache=None
        )
        assert replayed == chunks

    def test_replayed_unusable_answer_falls_back_to_the_group_end(self, tmp_path):
        document = doc_200s(9)
        first_prompt = render_prompt(build_group(document, 1))

        def respond(prompt: str) -> str:
            return "nothing useful" if prompt == first_prompt else last_id_responder(prompt)

        cache = ResponseCache(tmp_path / "cache.jsonl", model_id="m")
        live = lumberchunk(document, backend=CountingBackend(respond), cache=cache)
        replayed = lumberchunk(document, backend=ReplayBackend(cache))
        assert spans(replayed)[0] == (1, 3)
        assert replayed == live


class TestVerifyPartition:
    def test_accepts_valid_partition(self):
        chunks = lumberchunk(doc_200s(9), backend=ScriptedBackend(last_id_responder))
        verify_partition(chunks, 9)

    def test_accepts_unordered_input(self):
        chunks = lumberchunk(doc_200s(9), backend=ScriptedBackend(last_id_responder))
        verify_partition(list(reversed(chunks)), 9)

    def test_rejects_gap(self):
        chunks = [
            Chunk("d", 0, 1, 2, "x", 1),
            Chunk("d", 1, 4, 5, "x", 1),
        ]
        with pytest.raises(ChunkerError):
            verify_partition(chunks, 5)

    def test_rejects_overlap(self):
        chunks = [
            Chunk("d", 0, 1, 3, "x", 1),
            Chunk("d", 1, 3, 5, "x", 1),
        ]
        with pytest.raises(ChunkerError):
            verify_partition(chunks, 5)

    def test_rejects_wrong_total(self):
        with pytest.raises(ChunkerError):
            verify_partition([Chunk("d", 0, 1, 4, "x", 1)], 5)

    def test_rejects_start_after_one(self):
        with pytest.raises(ChunkerError):
            verify_partition([Chunk("d", 0, 2, 5, "x", 1)], 5)


class TestChunkStats:
    def test_empty(self):
        assert chunk_stats([]) == ChunkStats(0, None, None, None, None)

    def test_known_values(self):
        chunks = [
            Chunk("d", 0, 1, 2, "a", 100),
            Chunk("d", 1, 3, 3, "b", 300),
        ]
        stats = chunk_stats(chunks)
        assert stats.count == 2
        assert stats.mean_tokens == 200.0
        assert (stats.min_tokens, stats.max_tokens) == (100, 300)
        assert stats.mean_paragraphs == 1.5


class TestChunkSerialization:
    def test_round_trip(self, tmp_path):
        chunks = lumberchunk(doc_200s(9), backend=ScriptedBackend(last_id_responder))
        path = tmp_path / "chunks.jsonl"
        write_chunks(chunks, path)
        assert read_chunks(path) == chunks

    def test_unicode_text_survives(self, tmp_path):
        chunk = Chunk("d", 0, 1, 1, "naïve café — ✓", 5)
        path = tmp_path / "chunks.jsonl"
        write_chunks([chunk], path)
        assert read_chunks(path) == [chunk]
        assert "naïve café" in path.read_text(encoding="utf-8")

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        path.write_text(
            '{"doc_id": "d", "chunk_id": 0, "start_para": 1, "end_para": 1, '
            '"token_count": 1, "text": "x"}\nnot json\n',
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecordError, match="line 2"):
            read_chunks(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        path.write_text('{"doc_id": "d"}\n', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_chunks(path)

    def test_non_utf8_names_line(self, tmp_path):
        chunks = lumberchunk(doc_200s(9), backend=ScriptedBackend(last_id_responder))
        path = tmp_path / "chunks.jsonl"
        write_chunks(chunks, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"', b'"\xe9', 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(MalformedRecordError, match=r"chunks\.jsonl, line 2: not valid UTF-8"):
            read_chunks(path)


def _pseudo_random_responder(prompt: str) -> str:
    """Deterministic response picker: valid ID, garbage, or out-of-range."""
    ids = prompt_ids(prompt)
    digest = hashlib.sha256(prompt.encode()).digest()
    mode = digest[0] % 4
    if mode == 0:
        return "no answer to be found"
    if mode == 1:
        return "Answer: ID 999999"
    candidates = ids[1:] or ids
    pick = candidates[digest[1] % len(candidates)]
    return f"Answer: ID {pick:04d}"


class TestPartitionProperty:
    @given(
        word_counts=st.lists(st.integers(1, 120), min_size=1, max_size=40),
        theta=st.integers(30, 400),
        max_retries=st.integers(0, 2),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_backend_behavior_yields_a_partition(self, word_counts, theta, max_retries):
        document = make_document(word_counts)
        config = ChunkerConfig(theta=theta, max_retries=max_retries)
        chunks = lumberchunk(
            document, config=config, backend=ScriptedBackend(_pseudo_random_responder)
        )
        verify_partition(chunks, len(document))
        reconstructed = "\n\n".join(c.text for c in chunks)
        assert reconstructed == document.text
