"""Tests for the LLM-driven chunking loop and its chunk containers."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import statistics

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
from test_acceptance import adversarial_responder

from lumberkit.backends import (
    BackendError,
    CompletionBackend,
    ReplayBackend,
    ResponseCache,
    ScriptedBackend,
)
from lumberkit.chunker import (
    MAX_RETRIES,
    PROMPT_HEADER,
    Chunk,
    ChunkerConfig,
    ChunkerError,
    ChunkStats,
    Group,
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
from lumberkit.corpus import Document, MalformedRecordError, count_tokens

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
        assert (config.theta, MAX_RETRIES) == (550, 3)
        assert [field.name for field in dataclasses.fields(config)] == ["theta"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": 0},
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
        without_last = group.token_total - count_tokens(group.paragraphs[-1])
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

    def test_width_grows_past_config(self, monkeypatch):
        monkeypatch.setattr("lumberkit.chunker.ID_WIDTH", 2)
        document = make_document([1] * 120)
        group = build_group(document, 99, ChunkerConfig(theta=2))
        prompt = render_prompt(group)
        assert "ID 099:" in prompt
        assert "ID 100:" in prompt

    def test_deterministic_bytes(self):
        group = build_group(doc_200s(9), 4)
        assert render_prompt(group) == render_prompt(group)

    def test_paragraph_text_preserved(self):
        document = doc_200s(3)
        prompt = render_prompt(build_group(document, 1))
        for text in document.paragraphs[:3]:
            assert text in prompt


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
        with pytest.raises(ParseError):
            parse_split_id("Answer: ID 0001", group)

    def test_id_past_group_end_rejected(self, group):
        with pytest.raises(ParseError):
            parse_split_id("Answer: ID 0021", group)

    def test_id_before_group_rejected(self, group):
        with pytest.raises(ParseError):
            parse_split_id("Answer: ID 0002", group)

    def test_no_id_raises_parse_error(self, group):
        with pytest.raises(ParseError):
            parse_split_id("the shift happens early on", group)

    @given(
        paragraphs=st.integers(2, 30),
        start=st.integers(1, 30),
        reply=st.one_of(
            st.text(max_size=40),
            st.integers(0, 40).map(lambda i: f"Answer: ID {i:04d}"),
            st.tuples(st.text(max_size=20), st.integers(0, 40)).map(lambda t: f"{t[0]} ID {t[1]}"),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_reply_gives_an_id_in_range_or_parse_error(self, paragraphs, start, reply):
        group = build_group(make_document([20] * paragraphs), min(start, paragraphs))
        try:
            split_id = parse_split_id(reply, group)
        except ParseError:
            return
        assert group.start_index < split_id <= group.end_index
        assert str(split_id) in reply


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
        assert first.text == document.paragraphs[0] + "\n\n" + document.paragraphs[1]
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

    def test_oversized_mid_document_paragraph_becomes_its_own_chunk(self, monkeypatch):
        # the 600-token paragraph forms a one-paragraph group, which has no
        # split point to ask for, so it becomes a chunk without the backend
        document = make_document([450, 150, 150, 150])
        backend = CountingBackend(last_id_responder)
        monkeypatch.setattr("lumberkit.chunker.MAX_RETRIES", 1)
        chunks = lumberchunk(document, backend=backend)
        assert spans(chunks)[0] == (1, 1)
        verify_partition(chunks, 4)
        # the one call splits the 600-token tail group 2..4
        assert [prompt_ids(prompt) for prompt in backend.prompts] == [[2, 3, 4]]

    def test_one_paragraph_window_between_groups_is_never_sent(self):
        document = make_document([100, 500, 100, 100])  # 134, 667, 134, 134 tokens
        backend = CountingBackend(last_id_responder)
        steps = list(lumber_steps(document, backend=backend))
        assert [(s.chunk.start_para, s.chunk.end_para) for s in steps] == [(1, 1), (2, 2), (3, 4)]
        assert [s.attempts for s in steps] == [1, 0, 0]
        assert backend.calls == 1

    @given(
        word_counts=st.lists(st.integers(1, 900), min_size=1, max_size=25),
        theta=st.integers(50, 800),
        mode=st.sampled_from(("valid", "out_of_range", "garbage", "mixed")),
        max_retries=st.integers(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_stop_rule_over_paragraphs_larger_than_theta(
        self, word_counts, theta, mode, max_retries
    ):
        document = make_document(word_counts)
        config = ChunkerConfig(theta=theta)
        backend = CountingBackend(adversarial_responder(mode))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("lumberkit.chunker.MAX_RETRIES", max_retries)
            steps = list(lumber_steps(document, config, backend))
        assert all(len(prompt_ids(prompt)) >= 2 for prompt in backend.prompts)
        verify_partition([step.chunk for step in steps], len(document))
        for step in steps:
            if len(step.group) == 1:
                assert step.chunk.start_para == step.chunk.end_para == step.group.start_index
                assert step.attempts == 0 and not step.used_llm
        llm_windows = sum(step.used_llm for step in steps)
        assert backend.calls <= llm_windows * (1 + max_retries)

    def test_garbage_responses_fall_back_to_whole_groups(self, monkeypatch):
        document = doc_200s(9)
        backend = CountingBackend(garbage_responder)
        monkeypatch.setattr("lumberkit.chunker.MAX_RETRIES", 2)
        chunks = lumberchunk(document, backend=backend)
        assert spans(chunks) == [(1, 3), (4, 6), (7, 9)]
        assert backend.calls == 9  # 3 groups x (1 attempt + 2 retries)
        verify_partition(chunks, 9)

    def test_fallback_step_metadata(self, monkeypatch):
        document = doc_200s(9)
        monkeypatch.setattr("lumberkit.chunker.MAX_RETRIES", 2)
        steps = list(lumber_steps(document, backend=CountingBackend(garbage_responder)))
        assert all(s.fell_back for s in steps)
        assert [s.attempts for s in steps] == [3, 3, 3]

    def test_out_of_range_answers_also_retry(self, monkeypatch):
        document = doc_200s(9)
        backend = CountingBackend(lambda p: "Answer: ID 9999")
        monkeypatch.setattr("lumberkit.chunker.MAX_RETRIES", 1)
        chunks = lumberchunk(document, backend=backend)
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

    def test_transport_failure_names_the_last_chunk(self):
        document = doc_200s(9)
        backend = FailingBackend(respond=last_id_responder, fail_after=2)
        with pytest.raises(BackendError) as excinfo:
            lumberchunk(document, backend=backend)
        message = str(excinfo.value)
        assert message.startswith("backend failure while chunking 'doc'; ")
        assert message.endswith("last emitted chunk 1 (paragraphs 3-4): transport down")

    def test_immediate_transport_failure(self):
        document = doc_200s(9)
        with pytest.raises(BackendError) as excinfo:
            lumberchunk(document, backend=FailingBackend())
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
        replayed = lumberchunk(document, backend=ReplayBackend(ResponseCache(cache_path, "m")))
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
            Chunk("d", 0, 1, 2, "x"),
            Chunk("d", 1, 4, 5, "x"),
        ]
        with pytest.raises(ChunkerError):
            verify_partition(chunks, 5)

    def test_rejects_overlap(self):
        chunks = [
            Chunk("d", 0, 1, 3, "x"),
            Chunk("d", 1, 3, 5, "x"),
        ]
        with pytest.raises(ChunkerError):
            verify_partition(chunks, 5)

    def test_rejects_wrong_total(self):
        with pytest.raises(ChunkerError):
            verify_partition([Chunk("d", 0, 1, 4, "x")], 5)

    def test_rejects_start_after_one(self):
        with pytest.raises(ChunkerError):
            verify_partition([Chunk("d", 0, 2, 5, "x")], 5)


class TestChunkStats:
    def test_empty(self):
        assert chunk_stats([], []) == ChunkStats(0, None, None, None, None)

    def test_known_values(self):
        chunks = [
            Chunk("d", 0, 1, 2, words(75)),  # count_tokens: 100
            Chunk("d", 1, 3, 3, words(225)),  # count_tokens: 300
        ]
        stats = chunk_stats(chunks, [chunk.token_count for chunk in chunks])
        assert stats.count == 2
        assert stats.mean_tokens == 200.0
        assert (stats.min_tokens, stats.max_tokens) == (100, 300)
        assert stats.mean_paragraphs == 1.5

    @given(spans=st.lists(st.tuples(st.integers(0, 2000), st.integers(1, 500)), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_means_are_statistics_fmean(self, spans):
        chunks = [Chunk("d", i, 1, count, words(n)) for i, (n, count) in enumerate(spans)]
        tokens = [count_tokens(chunk.text) for chunk in chunks]
        stats = chunk_stats(chunks, tokens)
        assert stats.mean_tokens == statistics.fmean(tokens)
        assert stats.mean_paragraphs == statistics.fmean(count for _, count in spans)
        # stats.json writes these floats, so their text must match too
        assert json.dumps(stats.mean_tokens) == json.dumps(statistics.fmean(tokens))


class TestChunkSerialization:
    def test_round_trip(self, tmp_path):
        chunks = lumberchunk(doc_200s(9), backend=ScriptedBackend(last_id_responder))
        path = tmp_path / "chunks.jsonl"
        write_chunks(chunks, path)
        assert read_chunks(path) == chunks

    def test_unicode_text_survives(self, tmp_path):
        chunk = Chunk("d", 0, 1, 1, "naïve café — ✓")
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
        config = ChunkerConfig(theta=theta)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("lumberkit.chunker.MAX_RETRIES", max_retries)
            chunks = lumberchunk(
                document, config=config, backend=ScriptedBackend(_pseudo_random_responder)
            )
        verify_partition(chunks, len(document))
        reconstructed = "\n\n".join(c.text for c in chunks)
        assert reconstructed == document.text


# topic t writes only the words v{t * TOPIC_WORDS} .. v{(t + 1) * TOPIC_WORDS - 1}
TOPIC_WORDS = 40
_PROMPT_TOPIC_RE = re.compile(r"^ID (\d+): v(\d+)", re.MULTILINE)


def topic_oracle(prompt: str) -> str:
    """Answer the first paragraph after the window's first whose topic differs from the one before.

    A window that holds no topic change gets a reply with no ID in it.
    """
    lines = [
        (int(pid), int(word) // TOPIC_WORDS) for pid, word in _PROMPT_TOPIC_RE.findall(prompt)
    ]
    for (_, previous), (pid, topic) in zip(lines, lines[1:]):
        if topic != previous:
            return f"Answer: ID {pid:04d}"
    return "the topic never changes here"


class NoisyOracle(CompletionBackend):
    """topic_oracle whose every reply, with probability p, is shifted by -1 or +1 or
    made unparseable, drawn from a seeded generator in call order.

    rejected counts the replies that parse_split_id refuses for the window asked.
    """

    def __init__(self, document: Document, p: float, seed: int):
        self.document = document
        self.p = p
        self.draw = random.Random(seed)
        self.rejected = 0

    def complete(self, prompt: str) -> str:
        reply = topic_oracle(prompt)
        if self.draw.random() < self.p:
            shift = self.draw.choice((-1, 1, None))
            answered = re.search(r"ID (\d+)", reply)
            if shift is None or answered is None:
                reply = "the model rambled"
            else:
                reply = f"Answer: ID {int(answered.group(1)) + shift:04d}"
        ids = prompt_ids(prompt)
        window = Group(ids[0], self.document.paragraphs[ids[0] - 1 : ids[-1]], 0)
        try:
            parse_split_id(reply, window)
        except ParseError:
            self.rejected += 1
        return reply


def planted_document(segments: list[list[int]]) -> Document:
    """Segment t holds paragraphs of the given word counts, written in topic t's words."""
    paragraphs = []
    for topic, word_counts in enumerate(segments):
        for count in word_counts:
            index = len(paragraphs) + 1
            first = topic * TOPIC_WORDS
            text = " ".join(f"v{first + (index + i) % TOPIC_WORDS}" for i in range(count))
            paragraphs.append(text)
    return Document("planted", tuple(paragraphs))


class TestPlantedBoundaries:
    @given(
        segments=st.lists(
            st.lists(st.integers(1, 400), min_size=1, max_size=4), min_size=1, max_size=8
        ),
        theta=st.integers(20, 600),
    )
    @settings(max_examples=150, deadline=None)
    def test_oracle_boundaries_come_back_as_chunks(self, segments, theta):
        document = planted_document(segments)
        totals, planted, start = [], [], 1
        for word_counts in segments:
            end = start + len(word_counts) - 1
            totals.append(sum(map(count_tokens, document.paragraphs[start - 1 : end])))
            planted.append((start, end))
            start = end + 1
        # every segment of two or more paragraphs fits under theta; a one-paragraph
        # segment may exceed it, since a one-paragraph window is never sent
        theta = max([theta] + [total for total, counts in zip(totals, segments) if len(counts) > 1])
        # a window that reaches the document end within theta has no split to ask
        # for, so the trailing segments that fit in it together come out as one chunk
        tail = next(
            (j for j in range(len(segments) - 1) if sum(totals[j:]) <= theta), len(segments) - 1
        )
        expected = planted[:tail] + [(planted[tail][0], planted[-1][1])]
        backend = CountingBackend(topic_oracle)
        chunks = lumberchunk(document, ChunkerConfig(theta=theta), backend)
        assert spans(chunks) == expected
        # every window sent holds a boundary, so no split is asked for twice
        assert len(set(backend.prompts)) == backend.calls

    @given(
        segments=st.lists(
            st.lists(st.integers(1, 200), min_size=1, max_size=4), min_size=1, max_size=8
        ),
        theta=st.integers(20, 600),
        p=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_noisy_oracle_keeps_the_partition_and_counts_every_fault(
        self, segments, theta, p, seed
    ):
        document = planted_document(segments)
        backend = NoisyOracle(document, p, seed)
        steps = list(lumber_steps(document, ChunkerConfig(theta=theta), backend))
        chunks = [step.chunk for step in steps]
        verify_partition(chunks, len(document))
        assert "\n\n".join(chunk.text for chunk in chunks) == document.text
        # a window ends after its first accepted reply, or falls back once every
        # reply of its MAX_RETRIES + 1 attempts was rejected
        retries = sum(step.attempts - 1 for step in steps if step.used_llm)
        fallbacks = sum(step.fell_back for step in steps)
        assert retries + fallbacks == backend.rejected

    def test_one_paragraph_segment_over_theta_comes_out_whole(self):
        document = planted_document([[20, 20], [300], [20, 20], [20, 20]])
        theta = 100
        assert count_tokens(document.paragraphs[2]) > theta
        assert sum(map(count_tokens, document.paragraphs[3:])) > theta
        chunks = lumberchunk(document, ChunkerConfig(theta=theta), ScriptedBackend(topic_oracle))
        assert spans(chunks) == [(1, 2), (3, 3), (4, 5), (6, 7)]
