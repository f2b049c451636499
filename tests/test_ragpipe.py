"""Tests for query routing, hybrid retrieval fusion, reranking, and QA scoring."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingBackend, FailingBackend, StubEmbeddingBackend
from lumberkit.backends import BackendError, MockEmbeddingBackend, ScriptedBackend
from lumberkit.chunker import Chunk
from lumberkit.index import VectorIndex, bm25_build, embed_chunks
from lumberkit.ragpipe import (
    ANSWER_TOP_N,
    DENSE_K,
    FALLBACK_BM25_K,
    MENTION_BM25_K,
    AssemblyEntry,
    ContextAssembly,
    RagPipelineError,
    RoutingDecision,
    answer,
    answer_question,
    detect_mentions,
    heuristic_mentions,
    hybrid_retrieve,
    midpoint_reverse,
    normalized_match_judge,
    qa_accuracy,
    rerank,
    retrieve,
)


def chunk_of(text: str, chunk_id: int) -> Chunk:
    return Chunk("doc", chunk_id, chunk_id + 1, chunk_id + 1, text)


class TestHeuristicMentions:
    def test_multi_word_name(self):
        assert heuristic_mentions("What did Joshua Haldeman study?") == ["Joshua Haldeman"]

    def test_no_names(self):
        assert heuristic_mentions("what happened next?") == []

    def test_sentence_initial_capital_alone_does_not_count(self):
        assert heuristic_mentions("Where was he born?") == []

    def test_pronoun_i_ignored(self):
        assert heuristic_mentions("When did I arrive?") == []

    def test_single_non_initial_capital_counts(self):
        assert heuristic_mentions("Where did Maye work?") == ["Maye"]

    def test_runs_break_at_sentence_punctuation(self):
        assert heuristic_mentions("Tell me about Elon. Musk went where?") == ["Elon"]

    def test_multi_word_span_at_sentence_start_counts(self):
        assert heuristic_mentions("Joshua Haldeman studied chiropractic.") == [
            "Joshua Haldeman"
        ]

    def test_apostrophes_and_hyphens_stay_in_one_name(self):
        assert heuristic_mentions("Did O'Brien-Smith speak?") == ["O'Brien-Smith"]

    def test_multiple_mentions(self):
        assert heuristic_mentions("Did Maye meet Joshua Haldeman in Pretoria?") == [
            "Maye",
            "Joshua Haldeman",
            "Pretoria",
        ]


class TestDetectMentions:
    def test_mention_route(self):
        decision = detect_mentions("What did Joshua Haldeman study?")
        assert decision.mention_strings == ("Joshua Haldeman",)
        assert decision.bm25_k == MENTION_BM25_K == 3

    def test_routes_by_heuristic_mentions(self):
        query = "Did Maye meet Joshua Haldeman in Pretoria?"
        decision = detect_mentions(query)
        assert decision.mention_strings == tuple(heuristic_mentions(query))
        assert decision.bm25_k == MENTION_BM25_K

    def test_fallback_route(self):
        decision = detect_mentions("what happened next?")
        assert not decision.mention_strings
        assert decision.bm25_k == FALLBACK_BM25_K == 1

    @given(
        query=st.lists(
            st.sampled_from(["Who", "met", "Joshua", "Haldeman", "in", "Pretoria", "?", ".", "I"]),
            max_size=8,
        ).map(" ".join)
    )
    @settings(max_examples=100, deadline=None)
    def test_bm25_k_follows_the_mentions_found(self, query):
        decision = detect_mentions(query)
        assert decision.mention_strings == tuple(heuristic_mentions(query))
        expected = MENTION_BM25_K if decision.mention_strings else FALLBACK_BM25_K
        assert decision.bm25_k == expected


class TestContextAssembly:
    def test_rejects_duplicates(self):
        entry = AssemblyEntry(chunk_of("x", 0), "dense")
        with pytest.raises(ValueError):
            ContextAssembly((entry, entry))

    def test_chunks_property_preserves_order(self):
        entries = (
            AssemblyEntry(chunk_of("a", 0), "lexical"),
            AssemblyEntry(chunk_of("b", 1), "dense"),
        )
        assembly = ContextAssembly(entries)
        assert [c.chunk_id for c in assembly.chunks] == [0, 1]
        assert len(assembly) == 2


def _fusion_fixture(lexical_overlaps_dense: bool):
    """18 chunks: ids 0,1,2 match the query lexically, 3..17 semantically.

    Returns the BM25 index, the vector index and the query's embedding.
    """
    texts = ["zebra zebra zebra", "zebra zebra filler", "zebra filler filler"]
    texts += [f"dense text {i}" for i in range(15)]
    chunks = [chunk_of(text, i) for i, text in enumerate(texts)]
    dim = 4
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0, 0.0])
    mapping = {"zebra question": e0}
    for i, text in enumerate(texts[:3]):
        mapping[text] = e0 if (lexical_overlaps_dense and i == 0) else e2
    for i, text in enumerate(texts[3:]):
        # cosine to the query decreases with i, so dense rank follows chunk_id
        mapping[text] = np.array([100.0 - i, i + 1.0, 0.0, 0.0])
    stub = StubEmbeddingBackend(mapping, dim)
    bm25 = bm25_build(chunks)
    vectors = embed_chunks(chunks, stub)
    return bm25, vectors, stub.embed(["zebra question"])[0]


class TestHybridRetrieve:
    def test_disjoint_results_use_front_and_back_placement(self):
        bm25, vectors, query_vector = _fusion_fixture(lexical_overlaps_dense=False)
        decision = RoutingDecision(("Zebra",), 3)
        assembly = hybrid_retrieve("zebra question", bm25, vectors, decision, query_vector)
        ids = [c.chunk_id for c in assembly.chunks]
        assert ids == [0] + list(range(3, 18)) + [1, 2]
        sources = [e.source for e in assembly.entries]
        assert sources == ["lexical"] + ["dense"] * 15 + ["lexical", "lexical"]
        assert len(assembly) == 18

    def test_overlapping_bm25_hit_is_removed_from_lexical_side(self):
        bm25, vectors, query_vector = _fusion_fixture(lexical_overlaps_dense=True)
        decision = RoutingDecision(("Zebra",), 3)
        assembly = hybrid_retrieve("zebra question", bm25, vectors, decision, query_vector)
        ids = [c.chunk_id for c in assembly.chunks]
        # chunk 0 now rides the dense list at rank 1; survivors 1 and 2 take
        # the front and back slots; the weakest dense chunk (17) drops out
        assert ids == [1, 0] + list(range(3, 17)) + [2]
        assert len(assembly) == 17
        assert len(set(ids)) == len(ids)

    def test_no_mention_route_retrieves_one_lexical_hit(self):
        bm25, vectors, query_vector = _fusion_fixture(lexical_overlaps_dense=False)
        decision = RoutingDecision((), 1)
        assembly = hybrid_retrieve("zebra question", bm25, vectors, decision, query_vector)
        ids = [c.chunk_id for c in assembly.chunks]
        assert ids == [0] + list(range(3, 18))
        assert len(assembly) == 16

    def test_length_bound(self):
        bm25, vectors, query_vector = _fusion_fixture(lexical_overlaps_dense=False)
        for decision in (RoutingDecision(("X",), 3), RoutingDecision((), 1)):
            assembly = hybrid_retrieve("zebra question", bm25, vectors, decision, query_vector)
            assert len(assembly) <= decision.bm25_k + DENSE_K

    def test_index_holding_one_chunk_twice_is_rejected(self):
        bm25, vectors, query_vector = _fusion_fixture(lexical_overlaps_dense=False)
        doubled = VectorIndex(
            vectors.chunks + vectors.chunks[3:4], np.vstack([vectors.vectors, vectors.vectors[3]])
        )
        with pytest.raises(ValueError, match="duplicate chunk"):
            hybrid_retrieve("zebra question", bm25, doubled, RoutingDecision((), 1), query_vector)


class TestMidpointReverse:
    def test_eight_items(self):
        assert midpoint_reverse([1, 2, 3, 4, 5, 6, 7, 8]) == [1, 2, 3, 4, 8, 7, 6, 5]

    def test_six_items(self):
        assert midpoint_reverse([1, 2, 3, 4, 5, 6]) == [1, 2, 3, 6, 5, 4]

    def test_seven_items(self):
        assert midpoint_reverse([1, 2, 3, 4, 5, 6, 7]) == [1, 2, 3, 7, 6, 5, 4]

    def test_below_threshold_unchanged(self):
        assert midpoint_reverse([1, 2, 3, 4, 5]) == [1, 2, 3, 4, 5]
        assert midpoint_reverse([]) == []
        assert midpoint_reverse([1]) == [1]

    @pytest.mark.parametrize("n", range(13))
    def test_involution_and_multiset(self, n):
        items = list(range(n))
        once = midpoint_reverse(items)
        assert sorted(once) == items
        assert midpoint_reverse(once) == items


class TestRerank:
    def chunks3(self):
        return [chunk_of("first text", 0), chunk_of("second text", 1), chunk_of("third text", 2)]

    def test_full_permutation(self):
        backend = CountingBackend(lambda p: "3,1,2")
        ranked = rerank(self.chunks3(), "q?", backend)
        assert [c.chunk_id for c in ranked] == [2, 0, 1]
        prompt = backend.prompts[0]
        assert "q?" in prompt
        for marker in ("[1] first text", "[2] second text", "[3] third text"):
            assert marker in prompt

    def test_partial_response_appends_missing_in_prior_order(self):
        ranked = rerank(self.chunks3(), "q?", ScriptedBackend(lambda p: "2"))
        assert [c.chunk_id for c in ranked] == [1, 0, 2]

    def test_prose_response(self):
        ranked = rerank(self.chunks3(), "q?", ScriptedBackend(lambda p: "I'd rank: 3, then 1, then 2."))
        assert [c.chunk_id for c in ranked] == [2, 0, 1]

    def test_duplicates_dropped(self):
        ranked = rerank(self.chunks3(), "q?", ScriptedBackend(lambda p: "2, 2, 1"))
        assert [c.chunk_id for c in ranked] == [1, 0, 2]

    def test_out_of_range_dropped(self):
        ranked = rerank(self.chunks3(), "q?", ScriptedBackend(lambda p: "7, 2"))
        assert [c.chunk_id for c in ranked] == [1, 0, 2]

    def test_garbage_keeps_input_order(self, caplog):
        with caplog.at_level(logging.WARNING, logger="lumberkit.ragpipe"):
            ranked = rerank(self.chunks3(), "q?", ScriptedBackend(lambda p: "no digits at all"))
        assert [c.chunk_id for c in ranked] == [0, 1, 2]
        assert any("no usable indices" in r.message for r in caplog.records)

    def test_backend_failure_propagates(self):
        backend = FailingBackend()
        with pytest.raises(BackendError, match="transport down"):
            rerank(self.chunks3(), "q?", backend)
        assert backend.calls == 1

    def test_single_chunk_skips_backend(self):
        backend = CountingBackend(lambda p: "1")
        ranked = rerank([chunk_of("only", 0)], "q?", backend)
        assert [c.chunk_id for c in ranked] == [0]
        assert backend.calls == 0


class TestAnswer:
    def test_prompt_holds_at_most_five_passages(self):
        chunks = [chunk_of(f"passage body {i}", i) for i in range(8)]
        backend = CountingBackend(lambda p: "the answer")
        result = answer("q?", chunks, backend)
        assert result == "the answer"
        prompt = backend.prompts[0]
        assert "Passage 5:" in prompt
        assert "Passage 6:" not in prompt
        assert "passage body 4" in prompt
        assert "passage body 5" not in prompt

    def test_fewer_chunks_all_included(self):
        chunks = [chunk_of("alpha", 0), chunk_of("beta", 1)]
        backend = CountingBackend(lambda p: "ok")
        answer("q?", chunks, backend)
        prompt = backend.prompts[0]
        assert "Passage 2:" in prompt
        assert "Passage 3:" not in prompt

    def test_question_in_prompt(self):
        backend = CountingBackend(lambda p: "ok")
        answer("Where is the harbor?", [chunk_of("text", 0)], backend)
        assert "Where is the harbor?" in backend.prompts[0]

    def test_empty_chunks_rejected(self):
        with pytest.raises(RagPipelineError):
            answer("q?", [], ScriptedBackend(lambda p: "x"))


class TestAnswerJudging:
    def test_normalized_containment_both_directions(self):
        assert normalized_match_judge("Paris.", "paris")
        assert normalized_match_judge("He was born in Paris, France", "Paris")
        assert normalized_match_judge("Paris", "He was born in Paris France")
        assert not normalized_match_judge("London", "Paris")
        assert not normalized_match_judge("", "Paris")
        assert not normalized_match_judge("Paris", "...")

    def test_accuracy_counts(self):
        perfect = [("Paris", "paris"), ("42 ships", "42 ships")]
        assert qa_accuracy(perfect) == 100.0
        wrong = [("London", "Paris")]
        assert qa_accuracy(wrong) == 0.0
        mixed = [("gold", "gold")] * 7 + [("x", "y")] * 3
        assert qa_accuracy(mixed) == 70.0

    def test_empty_answers(self):
        assert qa_accuracy([]) == 0.0


class TestAnswerQuestion:
    def test_end_to_end_with_scripted_backends(self):
        texts = [
            "the keeper lit the lamp at dusk",
            "ships anchored in the outer harbor",
            "fog rolled over the granite tower",
            "the logbook recorded every storm",
            "supplies arrived by boat each month",
            "the keeper retired after forty years",
        ]
        chunks = [chunk_of(text, i) for i, text in enumerate(texts)]
        bm25 = bm25_build(chunks)
        embedder = MockEmbeddingBackend()
        vectors = embed_chunks(chunks, embedder)

        def respond(prompt: str) -> str:
            if "Order the numbered documents" in prompt:
                return "1, 2, 3, 4, 5, 6"
            if "Answer the question" in prompt:
                return "The keeper lit the lamp."
            raise AssertionError(f"unexpected prompt: {prompt[:60]}")

        query = "When did the keeper light the lamp?"
        retrieval = retrieve(query, bm25, vectors, embedder.embed([query])[0])
        result = answer_question(retrieval, ScriptedBackend(respond))
        assert result.answer == "The keeper lit the lamp."
        assert result.question == "When did the keeper light the lamp?"
        assert 1 <= len(result.retrieved_ids) <= ANSWER_TOP_N
        assert len(set(result.retrieved_ids)) == len(result.retrieved_ids)
        assert not result.decision.mention_strings

    def test_mention_query_routes_three_lexical_hits(self):
        texts = [f"chapter about events number {i}" for i in range(10)]
        texts[7] = "Joshua Haldeman studied chiropractic in Davenport"
        chunks = [chunk_of(text, i) for i, text in enumerate(texts)]
        bm25 = bm25_build(chunks)
        embedder = MockEmbeddingBackend()
        vectors = embed_chunks(chunks, embedder)

        def respond(prompt: str) -> str:
            return "1" if "Order the numbered documents" in prompt else "Chiropractic."

        query = "What did Joshua Haldeman study?"
        retrieval = retrieve(query, bm25, vectors, embedder.embed([query])[0])
        result = answer_question(retrieval, ScriptedBackend(respond))
        assert result.decision.bm25_k == 3
        assert result.decision.mention_strings == ("Joshua Haldeman",)
        assert result.answer == "Chiropractic."
