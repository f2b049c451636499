"""Tests for the comparison chunkers and the query transform."""

from __future__ import annotations

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CountingBackend,
    CountingEmbeddingBackend,
    FailingBackend,
    StubEmbeddingBackend,
    make_document,
    last_id_responder,
    words,
)
from lumberkit import chunker
from lumberkit.backends import (
    BackendError,
    CachingBackend,
    EmbeddingBackend,
    MockEmbeddingBackend,
    ReplayBackend,
    ResponseCache,
    ScriptedBackend,
)
from lumberkit.baselines import (
    DEFAULT_SEPARATORS,
    HYDE_PROMPT_TEMPLATE,
    PROPOSITION_PROMPT_TEMPLATE,
    RecursiveConfig,
    SemanticConfig,
    hyde_transform,
    paragraph_chunks,
    proposition_chunks,
    propositionize,
    recursive_chunks,
    semantic_chunks,
)
from lumberkit.chunker import ChunkerConfig, lumberchunk, read_chunks, write_chunks
from lumberkit.corpus import Document, count_tokens
from lumberkit.index import IndexingError


class TestParagraphChunks:
    def test_identity_partition(self):
        document = make_document([10, 20, 30])
        chunks = paragraph_chunks(document)
        assert [(c.start_para, c.end_para) for c in chunks] == [(1, 1), (2, 2), (3, 3)]
        assert [c.chunk_id for c in chunks] == [0, 1, 2]
        for chunk, text in zip(chunks, document.paragraphs):
            assert chunk.text == text
            assert chunk.token_count == count_tokens(text)

    def test_counts_through_module_count_tokens(self, monkeypatch):
        # perfbench/tracing.py wraps lumberkit.chunker.count_tokens, which token_count calls
        monkeypatch.setattr("lumberkit.chunker.count_tokens", lambda text: 99)
        chunks = paragraph_chunks(make_document([5]))
        assert chunks[0].token_count == 99


def sentence_document() -> Document:
    """Eight paragraphs over four topics, each paragraph of four sentences."""
    topics = ["harbor ships sail", "forest trees grow", "desert sand blows", "city lights glow"]
    paragraphs = tuple(
        f"The {topic} at dawn. Then the {topic} again! Did the {topic} stop? No."
        for topic in topics * 2
    )
    return Document("sentences", paragraphs)


CHUNKERS = {
    "paragraph": paragraph_chunks,
    "recursive": lambda document: recursive_chunks(document, RecursiveConfig(max_tokens=60)),
    "semantic-paragraph": lambda document: semantic_chunks(
        document, MockEmbeddingBackend(), SemanticConfig(breakpoint_percentile=50.0)
    ),
    "semantic-sentence": lambda document: semantic_chunks(
        document,
        MockEmbeddingBackend(),
        SemanticConfig(breakpoint_percentile=50.0, min_unit="sentence"),
    ),
    "proposition": lambda document: proposition_chunks(
        document, ScriptedBackend(lambda prompt: "A fact.\nAnother fact.")
    ),
    "lumber": lambda document: lumberchunk(
        document, ChunkerConfig(theta=60), ScriptedBackend(last_id_responder)
    ),
}


class TestOneChunkConstructor:
    @pytest.mark.parametrize("method", CHUNKERS)
    def test_token_count_is_counted_from_text_when_read(self, method, tmp_path):
        document = sentence_document()
        chunks = CHUNKERS[method](document)
        assert len(chunks) > 1
        for chunk in chunks:
            assert chunk.doc_id == document.doc_id
            assert chunk.token_count == count_tokens(chunk.text)
            counted = mock.Mock(return_value=-7)
            with mock.patch.object(chunker, "count_tokens", counted):
                assert chunk.token_count == -7
            counted.assert_called_once_with(chunk.text)
        path = tmp_path / "chunks.jsonl"
        write_chunks(chunks, path)
        assert read_chunks(path) == chunks


class TestRecursiveConfig:
    def test_defaults(self):
        config = RecursiveConfig()
        assert config.max_tokens == 450
        assert DEFAULT_SEPARATORS == ("\n\n", "\n", " ", "")

    def test_rejects_zero_max_tokens(self):
        with pytest.raises(ValueError):
            RecursiveConfig(max_tokens=0)


class TestRecursiveChunks:
    def test_three_even_paragraphs_pack_two_and_one(self):
        document = make_document([150, 150, 150])  # 200 tokens each
        chunks = recursive_chunks(document)
        assert len(chunks) == 2
        assert (chunks[0].start_para, chunks[0].end_para) == (1, 2)
        assert (chunks[1].start_para, chunks[1].end_para) == (3, 3)
        assert chunks[1].text == document.paragraphs[2]

    def test_reconstruction_is_exact(self):
        document = make_document([150, 150, 150])
        chunks = recursive_chunks(document)
        assert "".join(c.text for c in chunks) == document.text

    def test_oversized_paragraph_splits_below_paragraph_level(self):
        document = make_document([750])  # 1000 tokens
        chunks = recursive_chunks(document)
        assert len(chunks) >= 3
        assert all(c.token_count <= 450 for c in chunks)
        assert "".join(c.text for c in chunks) == document.text
        assert all((c.start_para, c.end_para) == (1, 1) for c in chunks)

    def test_neighboring_chunks_may_share_a_boundary_paragraph(self):
        document = make_document([100, 600])
        chunks = recursive_chunks(document)
        assert len(chunks) >= 2
        assert chunks[0].end_para == 2  # first chunk reaches into paragraph 2
        assert chunks[1].start_para == 2
        assert "".join(c.text for c in chunks) == document.text

    def test_character_level_last_resort(self):
        # one word counts 2 tokens, so only the empty separator splits it, and
        # each single character stays an indivisible 2-token chunk
        document = Document("d", ("abcdef",))
        chunks = recursive_chunks(document, RecursiveConfig(max_tokens=1))
        assert [c.text for c in chunks] == ["a", "b", "c", "d", "e", "f"]
        assert [(c.start_para, c.end_para) for c in chunks] == [(1, 1)] * 6

    def test_deterministic(self):
        document = make_document([80, 400, 33, 710, 5])
        assert recursive_chunks(document) == recursive_chunks(document)

    @given(
        word_counts=st.lists(st.integers(1, 500), min_size=1, max_size=12),
        max_tokens=st.integers(20, 600),
    )
    @settings(max_examples=80, deadline=None)
    def test_limit_and_reconstruction_properties(self, word_counts, max_tokens):
        document = make_document(word_counts)
        config = RecursiveConfig(max_tokens=max_tokens)
        chunks = recursive_chunks(document, config)
        assert "".join(c.text for c in chunks) == document.text
        # every word here is far below max_tokens, so no indivisible-run escape
        assert all(c.token_count <= max_tokens for c in chunks)
        for chunk in chunks:
            assert 1 <= chunk.start_para <= chunk.end_para <= len(document)


class TestSemanticConfig:
    @pytest.mark.parametrize("percentile", [0.0, 100.0, -5.0, 120.0])
    def test_rejects_percentile_outside_open_interval(self, percentile):
        with pytest.raises(ValueError):
            SemanticConfig(breakpoint_percentile=percentile)

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError):
            SemanticConfig(min_unit="page")


def _orthogonal_stub(texts_a: list[str], texts_b: list[str], dimension: int = 8):
    e1 = np.zeros(dimension)
    e1[0] = 1.0
    e2 = np.zeros(dimension)
    e2[1] = 1.0
    mapping = {text: e1 for text in texts_a}
    mapping.update({text: e2 for text in texts_b})
    return StubEmbeddingBackend(mapping, dimension)


class TestSemanticChunks:
    def test_identical_units_make_one_chunk(self):
        document = Document("d", ("same text every time",) * 5)
        chunks = semantic_chunks(document, MockEmbeddingBackend())
        assert len(chunks) == 1
        assert (chunks[0].start_para, chunks[0].end_para) == (1, 5)
        assert chunks[0].text == document.text

    def test_single_spike_with_percentile_95_gives_two_chunks(self):
        first = [f"alpha paragraph {i}" for i in range(5)]
        second = [f"omega paragraph {i}" for i in range(5)]
        texts = first + second
        document = Document("d", tuple(texts))
        # 9 consecutive distances: eight 0.0 and a single 1.0 at the 5|6 join;
        # the 95th percentile interpolates to 0.6, so only the spike breaks
        chunks = semantic_chunks(document, _orthogonal_stub(first, second))
        assert [(c.start_para, c.end_para) for c in chunks] == [(1, 5), (6, 10)]

    def test_single_unit_document_skips_embedding(self):
        document = make_document([40])
        backend = CountingEmbeddingBackend()
        chunks = semantic_chunks(document, backend)
        assert len(chunks) == 1
        assert backend.calls == 0

    def test_sentence_units(self):
        document = Document(
            "d",
            (
                "The fog rolled in. Boats waited at anchor.",
                "Morning came slowly.",
            ),
        )
        sentences_a = ["The fog rolled in.", "Boats waited at anchor."]
        sentences_b = ["Morning came slowly."]
        stub = _orthogonal_stub(sentences_a, sentences_b)
        config = SemanticConfig(breakpoint_percentile=50.0, min_unit="sentence")
        chunks = semantic_chunks(document, stub, config)
        assert [(c.start_para, c.end_para) for c in chunks] == [(1, 1), (2, 2)]
        assert chunks[0].text == "The fog rolled in. Boats waited at anchor."

    def test_embedding_failure_names_unit_range(self):
        class Broken(EmbeddingBackend):
            backend_id = "broken"
            dimension = 4

            def embed(self, texts):
                raise BackendError("offline")

        document = make_document([5, 5, 5])
        with pytest.raises(IndexingError, match=r"texts 0\.\.2"):
            semantic_chunks(document, Broken())

    def test_units_embedded_in_batches_of_embed_batch(self):
        document = make_document([5] * 130)
        backend = CountingEmbeddingBackend()
        chunks = semantic_chunks(document, backend)
        assert backend.calls == 3  # 64 + 64 + 2
        assert backend.texts_embedded == 130
        assert (chunks[0].start_para, chunks[-1].end_para) == (1, 130)

    def test_reproducible_with_mock_embedder(self):
        document = make_document([30, 40, 50, 60, 20, 10, 80])
        first = semantic_chunks(document, MockEmbeddingBackend())
        second = semantic_chunks(document, MockEmbeddingBackend())
        assert first == second

    def test_chunk_count_matches_breakpoint_count(self):
        document = make_document([12, 34, 9, 27, 18, 45, 6, 22])
        backend = MockEmbeddingBackend()
        config = SemanticConfig(breakpoint_percentile=60.0)
        chunks = semantic_chunks(document, backend, config)
        rows = backend.embed(list(document.paragraphs))
        distances = 1.0 - np.sum(rows[:-1] * rows[1:], axis=1)
        threshold = float(np.percentile(distances, 60.0))
        breaks = int(np.sum(distances > threshold))
        assert len(chunks) == breaks + 1
        covered = [i for c in chunks for i in range(c.start_para, c.end_para + 1)]
        assert covered == list(range(1, len(document) + 1))


EIGHT_FACTS = "\n".join(
    [
        "The keeper lit the lamp at dusk.",
        "The lamp burned whale oil.",
        "",
        "Ships passed the point at night.",
        "The keeper kept a logbook.",
        "The logbook recorded every storm.",
        "  The tower was built of granite.  ",
        "The granite came from a nearby quarry.",
        "The keeper retired after forty years.",
    ]
)


class TestPropositionize:
    def test_eight_statements_become_eight_chunks(self):
        parent = paragraph_chunks(make_document([60]))[0]
        backend = CountingBackend(lambda p: EIGHT_FACTS)
        props = propositionize(parent, backend)
        assert len(props) == 8
        assert [p.chunk_id for p in props] == list(range(8))
        assert all((p.start_para, p.end_para) == (1, 1) for p in props)
        assert props[5].text == "The tower was built of granite."
        assert backend.calls == 1

    def test_empty_response_retried_then_passthrough(self, caplog):
        parent = paragraph_chunks(make_document([60]))[0]
        backend = CountingBackend(lambda p: "\n  \n")
        with caplog.at_level(logging.WARNING, logger="lumberkit.baselines"):
            props = propositionize(parent, backend)
        assert props == [parent]
        assert backend.calls == 2
        warnings = [r for r in caplog.records if "keeping it unchanged" in r.message]
        assert len(warnings) == 1

    def test_empty_then_good_response(self):
        parent = paragraph_chunks(make_document([60]))[0]
        responses = iter(["", "One fact.\nAnother fact."])
        backend = CountingBackend(lambda p: next(responses))
        props = propositionize(parent, backend)
        assert [p.text for p in props] == ["One fact.", "Another fact."]
        assert backend.calls == 2

    def test_recorded_empty_reply_is_asked_again_live(self, tmp_path):
        parent = paragraph_chunks(make_document([60]))[0]
        cache = ResponseCache(tmp_path / "cache.jsonl")
        cache.put(PROPOSITION_PROMPT_TEMPLATE.format(passage=parent.text), "")
        live = CountingBackend(lambda p: "One fact.\nAnother fact.")
        props = propositionize(parent, CachingBackend(live, cache))
        assert [p.text for p in props] == ["One fact.", "Another fact."]
        assert live.calls == 1
        assert cache.get(live.prompts[0]) == "One fact.\nAnother fact."

    def test_replayed_empty_reply_passes_the_parent_through(self, tmp_path):
        parent = paragraph_chunks(make_document([60]))[0]
        cache = ResponseCache(tmp_path / "cache.jsonl")
        cache.put(PROPOSITION_PROMPT_TEMPLATE.format(passage=parent.text), "")
        assert propositionize(parent, ReplayBackend(cache)) == [parent]

    def test_prompt_contains_passage(self):
        parent = paragraph_chunks(make_document([10]))[0]
        backend = CountingBackend(lambda p: "A fact.")
        propositionize(parent, backend)
        assert backend.prompts == [PROPOSITION_PROMPT_TEMPLATE.format(passage=parent.text)]


class TestPropositionChunks:
    def test_renumbers_across_paragraphs(self):
        document = make_document([20, 20])

        def respond(prompt: str) -> str:
            tag = "p1w0" if "p1w0" in prompt else "p2w0"
            return f"{tag} fact one.\n{tag} fact two."

        chunks = proposition_chunks(document, ScriptedBackend(respond))
        assert [c.chunk_id for c in chunks] == [0, 1, 2, 3]
        assert [(c.start_para, c.end_para) for c in chunks] == [(1, 1), (1, 1), (2, 2), (2, 2)]
        assert chunks[2].text.startswith("p2w0")

    def test_every_parent_yields_at_least_one_chunk(self):
        document = make_document([20, 20, 20])
        chunks = proposition_chunks(document, ScriptedBackend(lambda p: ""))
        assert len(chunks) == 3  # passthrough parents, renumbered
        assert [c.chunk_id for c in chunks] == [0, 1, 2]


class TestHydeTransform:
    def test_returns_generated_passage(self):
        backend = CountingBackend(lambda p: "  A plausible passage.  ")
        assert hyde_transform("Who built it?", backend) == "A plausible passage."
        assert backend.prompts == [HYDE_PROMPT_TEMPLATE.format(query="Who built it?")]

    def test_backend_failure_propagates(self):
        backend = FailingBackend()
        with pytest.raises(BackendError, match="transport down"):
            hyde_transform("Who built it?", backend)
        assert backend.calls == 1

    def test_blank_response_returns_query(self):
        assert hyde_transform("Who built it?", CountingBackend(lambda p: "   ")) == "Who built it?"

    def test_one_call_per_query(self):
        backend = CountingBackend(lambda p: "passage")
        for i in range(30):
            hyde_transform(f"question {i}", backend)
        assert backend.calls == 30
