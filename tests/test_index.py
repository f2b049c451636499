"""Tests for the cosine vector index and the BM25 lexical index."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingEmbeddingBackend, StubEmbeddingBackend
import lumberkit.index
from lumberkit.backends import (
    BackendError,
    CachingEmbedder,
    EmbeddingBackend,
    EmbeddingCache,
    MockEmbeddingBackend,
)
from lumberkit.chunker import Chunk
from lumberkit.index import (
    Bm25Index,
    IndexingError,
    VectorIndex,
    bm25_build,
    bm25_scores,
    bm25_tokenize,
    bm25_topk,
    cosine_topk,
    embed_chunks,
)


def make_chunks(texts: list[str], doc_id: str = "doc") -> list[Chunk]:
    return [Chunk(doc_id, i, i + 1, i + 1, text) for i, text in enumerate(texts)]


class TestVectorIndex:
    def test_validates_shapes(self):
        chunks = tuple(make_chunks(["a", "b"]))
        with pytest.raises(ValueError):
            VectorIndex(chunks, np.zeros(4))
        with pytest.raises(ValueError):
            VectorIndex(chunks, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            VectorIndex((), np.zeros((0, 4)))

    def test_dimension(self):
        chunks = tuple(make_chunks(["a"]))
        index = VectorIndex(chunks, np.zeros((1, 16)))
        assert index.dimension == 16
        assert len(index) == 1


class TestEmbedChunks:
    def test_one_vector_per_chunk(self):
        chunks = make_chunks(["alpha beta", "gamma delta"])
        index = embed_chunks(chunks, MockEmbeddingBackend())
        assert index.vectors.shape == (2, 64)
        np.testing.assert_allclose(np.linalg.norm(index.vectors, axis=1), 1.0, atol=1e-6)

    def test_identical_texts_identical_rows(self):
        chunks = make_chunks(["same words here", "same words here"])
        index = embed_chunks(chunks, MockEmbeddingBackend())
        assert index.vectors[0].tobytes() == index.vectors[1].tobytes()

    def test_empty_chunk_list_rejected(self):
        with pytest.raises(IndexingError):
            embed_chunks([], MockEmbeddingBackend())

    def test_batching(self):
        chunks = make_chunks([f"text number {i}" for i in range(130)])
        backend = CountingEmbeddingBackend()
        embed_chunks(chunks, backend)
        assert backend.calls == 3  # 64 + 64 + 2
        assert backend.texts_embedded == 130

    def test_warm_cache_needs_no_backend_calls(self, tmp_path):
        chunks = make_chunks(["one text", "two text", "three text"])
        backend = CountingEmbeddingBackend()
        cache = EmbeddingCache(tmp_path / "emb.jsonl", backend.backend_id)
        cold = embed_chunks(chunks, CachingEmbedder(backend, cache))
        assert backend.calls > 0
        calls_after_cold = backend.calls
        warm = embed_chunks(chunks, CachingEmbedder(backend, cache))
        assert backend.calls == calls_after_cold
        np.testing.assert_array_equal(cold.vectors, warm.vectors)

    def test_partial_cache_embeds_only_misses(self, tmp_path):
        backend = CountingEmbeddingBackend()
        cache = EmbeddingCache(tmp_path / "emb.jsonl", backend.backend_id)
        embed_chunks(make_chunks(["kept text"]), CachingEmbedder(backend, cache))
        backend.texts_embedded = 0
        embed_chunks(make_chunks(["kept text", "new text"]), CachingEmbedder(backend, cache))
        assert backend.texts_embedded == 1

    def test_failure_names_batch(self):
        class Broken(EmbeddingBackend):
            backend_id = "broken"
            dimension = 4

            def embed(self, texts):
                raise BackendError("offline")

        with pytest.raises(IndexingError, match=r"texts 0\.\.1"):
            embed_chunks(make_chunks(["a", "b"]), Broken())


class TestCosineTopk:
    def test_indexed_vector_ranks_itself_first(self):
        chunks = make_chunks(["north", "east", "south"])
        index = embed_chunks(chunks, MockEmbeddingBackend())
        ranked = cosine_topk(index, index.vectors[1], k=3)
        assert ranked[0][0].chunk_id == 1
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_k_larger_than_index_returns_everything(self):
        chunks = make_chunks(["a b", "c d"])
        index = embed_chunks(chunks, MockEmbeddingBackend())
        assert len(cosine_topk(index, index.vectors[0], k=50)) == 2

    def test_k_below_one_rejected(self):
        chunks = make_chunks(["a"])
        index = embed_chunks(chunks, MockEmbeddingBackend())
        with pytest.raises(ValueError):
            cosine_topk(index, index.vectors[0], k=0)

    def test_dimension_mismatch_rejected(self):
        chunks = make_chunks(["a"])
        index = embed_chunks(chunks, MockEmbeddingBackend())
        with pytest.raises(IndexingError):
            cosine_topk(index, np.zeros(8), k=1)

    def test_ties_break_by_ascending_chunk_id(self):
        vec = np.array([1.0, 0.0])
        mapping = {"t0": vec, "t1": vec, "t2": vec}
        chunks = make_chunks(["t0", "t1", "t2"])
        index = embed_chunks(chunks, StubEmbeddingBackend(mapping, 2))
        ranked = cosine_topk(index, vec, k=3)
        assert [c.chunk_id for c, _ in ranked] == [0, 1, 2]

    def test_zero_norm_rows_score_zero(self):
        chunks = tuple(make_chunks(["a", "b"]))
        vectors = np.array([[0.0, 0.0], [1.0, 0.0]])
        index = VectorIndex(chunks, vectors)
        ranked = cosine_topk(index, np.array([1.0, 0.0]), k=2)
        assert [c.chunk_id for c, _ in ranked] == [1, 0]
        assert ranked[1][1] == 0.0

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sort_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        n, dim = 5, 6
        vectors = rng.normal(size=(n, dim))
        query = rng.normal(size=dim)
        chunks = tuple(make_chunks([f"c{i}" for i in range(n)]))
        index = VectorIndex(chunks, vectors)
        ranked = cosine_topk(index, query, k=k)

        oracle_scores = []
        for i in range(n):
            denom = np.linalg.norm(vectors[i]) * np.linalg.norm(query)
            oracle_scores.append(float(vectors[i] @ query / denom))
        oracle = sorted(range(n), key=lambda i: (-oracle_scores[i], i))[:k]
        assert [c.chunk_id for c, _ in ranked] == oracle
        for (_, score), i in zip(ranked, oracle):
            assert score == pytest.approx(oracle_scores[i], abs=1e-12)


class TestBm25Tokenize:
    def test_lowercases_and_splits(self):
        assert bm25_tokenize("The Cat, sat-down!") == ["the", "cat", "sat", "down"]

    def test_drops_underscores_and_digits_kept(self):
        assert bm25_tokenize("foo_bar 42") == ["foo", "bar", "42"]

    def test_empty(self):
        assert bm25_tokenize("...") == []


FIVE_TEXTS = [
    "the cat sat on the mat",
    "the dog ran across the yard",
    "a cat and a dog shared the porch",
    "rain fell on the quiet harbor town",
    "the cat chased the cat next door",
]


def oracle_bm25(texts: list[str], query: str, k1: float = 1.2, b: float = 0.75) -> list[float]:
    """Direct Okapi evaluation, written independently of the index module."""
    docs = [bm25_tokenize(t) for t in texts]
    n = len(docs)
    avg = sum(len(d) for d in docs) / n
    counts = [Counter(d) for d in docs]
    scores = [0.0] * n
    for token in bm25_tokenize(query):
        df = sum(1 for c in counts if token in c)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for i in range(n):
            tf = counts[i][token]
            if tf == 0:
                continue
            norm = tf + k1 * (1.0 - b + b * len(docs[i]) / avg)
            scores[i] += idf * tf * (k1 + 1.0) / norm
    return scores


class TestBm25:
    def test_build_statistics(self):
        index = bm25_build(make_chunks(["cat sat", "dog ran"]))
        assert len(index) == 2
        document_frequency = dict(zip(index.terms, np.diff(index.starts).tolist()))
        assert document_frequency == {"cat": 1, "sat": 1, "dog": 1, "ran": 1}
        assert index.rows.tolist() == [0, 0, 1, 1]
        assert (lumberkit.index.BM25_K1, lumberkit.index.BM25_B) == (1.2, 0.75)
        # both chunks have the average length of 2 tokens, so each weight is
        # idf * (k1 + 1) / (1 + k1) = idf = log(1 + 1.5 / 1.5)
        assert index.weights.tolist() == [math.log(2.0)] * 4

    def test_empty_chunks_rejected(self):
        with pytest.raises(IndexingError):
            bm25_build([])

    def test_no_shared_term_scores_zero(self):
        index = bm25_build(make_chunks(FIVE_TEXTS))
        assert np.all(bm25_scores(index, "zeppelin voyage") == 0.0)

    def test_shared_term_scores_positive(self):
        index = bm25_build(make_chunks(["cat sat", "dog ran"]))
        ranked = bm25_topk(index, "cat", k=2)
        assert ranked[0][0].text == "cat sat"
        assert ranked[0][1] > 0.0
        assert ranked[1][1] == 0.0

    def test_zero_iff_no_shared_term(self):
        index = bm25_build(make_chunks(FIVE_TEXTS))
        scores = bm25_scores(index, "the harbor")
        for text, score in zip(FIVE_TEXTS, scores):
            tokens = set(bm25_tokenize(text))
            shares = bool(tokens & {"the", "harbor"})
            assert (score > 0.0) == shares

    def test_matches_formula_oracle(self):
        index = bm25_build(make_chunks(FIVE_TEXTS))
        queries = [
            "cat",
            "the cat",
            "dog porch",
            "rain on the harbor",
            "cat cat",
            "quiet town rain",
            "door",
            "a",
            "the the the",
            "porch shared dog cat mat yard",
        ]
        for query in queries:
            expected = oracle_bm25(FIVE_TEXTS, query)
            np.testing.assert_allclose(bm25_scores(index, query), expected, atol=1e-9)

    def test_repeated_query_token_contributes_per_occurrence(self):
        index = bm25_build(make_chunks(FIVE_TEXTS))
        once = bm25_scores(index, "cat")
        twice = bm25_scores(index, "cat cat")
        np.testing.assert_allclose(twice, 2.0 * once, atol=1e-12)

    def test_custom_parameters_flow_through(self):
        with mock.patch.multiple(lumberkit.index, BM25_K1=2.0, BM25_B=0.5):
            index = bm25_build(make_chunks(FIVE_TEXTS))
        expected = oracle_bm25(FIVE_TEXTS, "the cat", k1=2.0, b=0.5)
        np.testing.assert_allclose(bm25_scores(index, "the cat"), expected, atol=1e-9)

    def test_topk_ties_break_by_chunk_id(self):
        index = bm25_build(make_chunks(["same text", "same text", "same text"]))
        ranked = bm25_topk(index, "same", k=3)
        assert [c.chunk_id for c, _ in ranked] == [0, 1, 2]

    def test_topk_k_validation(self):
        index = bm25_build(make_chunks(["a b"]))
        with pytest.raises(ValueError):
            bm25_topk(index, "a", k=0)

    @given(
        texts=st.lists(
            st.lists(
                st.sampled_from("cat dog rain mat sun tree door".split()),
                min_size=1,
                max_size=8,
            ).map(" ".join),
            min_size=1,
            max_size=6,
        ),
        query=st.lists(
            st.sampled_from("cat dog rain mat sun boat".split()), min_size=1, max_size=4
        ).map(" ".join),
    )
    @settings(max_examples=80, deadline=None)
    def test_oracle_equivalence_property(self, texts, query):
        index = bm25_build(make_chunks(texts))
        np.testing.assert_allclose(
            bm25_scores(index, query), oracle_bm25(texts, query), atol=1e-9
        )


def loop_bm25_scores(
    chunks: list[Chunk], query: str, k1: float = 1.2, b: float = 0.75
) -> np.ndarray:
    """The original per-chunk BM25 loop, kept as the bit-exactness reference."""
    term_frequencies = []
    document_frequency: dict[str, int] = {}
    lengths = []
    for chunk in chunks:
        tokens = bm25_tokenize(chunk.text)
        counts = Counter(tokens)
        term_frequencies.append(counts)
        lengths.append(len(tokens))
        for term in counts:
            document_frequency[term] = document_frequency.get(term, 0) + 1
    average_length = sum(lengths) / len(lengths)
    n = len(chunks)
    scores = np.zeros(n, dtype=np.float64)
    average_length = average_length if average_length > 0.0 else 1.0
    for token in bm25_tokenize(query):
        df = document_frequency.get(token, 0)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for i in range(n):
            tf = term_frequencies[i].get(token, 0)
            if tf == 0:
                continue
            length_norm = 1.0 - b + b * lengths[i] / average_length
            scores[i] += idf * tf * (k1 + 1.0) / (tf + k1 * length_norm)
    return scores


VOCABULARY = "cat dog rain mat sun tree door harbor quiet the a".split()


class TestBm25Exactness:
    """Precomputed postings must add the same floats in the same order."""

    @given(
        texts=st.lists(
            st.lists(st.sampled_from(VOCABULARY), max_size=12).map(" ".join),
            min_size=1,
            max_size=10,
        ),
        query=st.lists(
            st.sampled_from([*VOCABULARY, "boat", "zeppelin"]), max_size=8
        ).map(" ".join),
        k1=st.floats(0.0, 3.0),
        b=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_scores_bit_identical_to_loop(self, texts, query, k1, b):
        chunks = make_chunks(texts)
        # patched in the body: hypothesis reruns it, and monkeypatch would not reset
        with mock.patch.multiple(lumberkit.index, BM25_K1=k1, BM25_B=b):
            index = bm25_build(chunks)
        expected = loop_bm25_scores(chunks, query, k1=k1, b=b)
        assert bm25_scores(index, query).tobytes() == expected.tobytes()

    def test_repeated_and_unknown_tokens_match_loop(self):
        chunks = make_chunks(FIVE_TEXTS)
        index = bm25_build(chunks)
        for query in ("cat zeppelin cat the cat", "zeppelin", "door door door boat", ""):
            expected = loop_bm25_scores(chunks, query)
            assert bm25_scores(index, query).tobytes() == expected.tobytes()

    def test_postings_are_one_flat_csr(self):
        index = bm25_build(make_chunks(FIVE_TEXTS))
        assert len(index.starts) == len(index.terms) + 1
        assert index.starts[0] == 0
        assert index.starts[-1] == index.rows.size == index.weights.size
        assert index.rows.ndim == index.weights.ndim == 1
        cat = index.terms["cat"]
        rows = index.rows[index.starts[cat] : index.starts[cat + 1]]
        assert rows.tolist() == [0, 2, 4]


class TestBm25Memory:
    # bytes of temporaries per posting on top of the retained index; building
    # postings in typed buffers needs about 20, Python int lists about 58
    TRANSIENT_BYTES_PER_POSTING = 32

    def test_transient_peak_is_bounded_per_posting(self):
        rng = random.Random(13)
        vocabulary = [f"w{i}" for i in range(6000)]
        chunks = make_chunks([" ".join(rng.choices(vocabulary, k=220)) for _ in range(300)])
        bm25_build(chunks[:2])
        tracemalloc.start()
        try:
            index = bm25_build(chunks)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        postings = index.rows.size
        assert postings >= 50_000
        assert peak - retained < self.TRANSIENT_BYTES_PER_POSTING * postings


def two_document_chunks(text: str) -> list[Chunk]:
    """Chunks 0 and 1 of document "b" followed by chunks 0 and 1 of "a"."""
    return make_chunks([text, text], doc_id="b") + make_chunks([text, text], doc_id="a")


class TestTiesAcrossDocuments:
    """Equal score and equal chunk_id: index order decides, in both rankers."""

    EXPECTED = [("b", 0), ("a", 0), ("b", 1), ("a", 1)]

    def test_bm25_topk(self):
        index = bm25_build(two_document_chunks("same text"))
        ranked = bm25_topk(index, "same", k=4)
        assert [(c.doc_id, c.chunk_id) for c, _ in ranked] == self.EXPECTED

    def test_cosine_topk(self):
        chunks = two_document_chunks("same text")
        index = VectorIndex(tuple(chunks), np.ones((4, 3)))
        ranked = cosine_topk(index, np.ones(3), k=4)
        assert [(c.doc_id, c.chunk_id) for c, _ in ranked] == self.EXPECTED


class TestUnrelatedChunkInvariance:
    def test_added_chunk_preserves_pairwise_cosine_order(self):
        backend = MockEmbeddingBackend()
        base = make_chunks(["harbor lights at dusk", "the cat slept indoors"])
        query = backend.embed(["harbor at dusk"])[0]
        small = embed_chunks(base, backend)
        ranked_small = [c.chunk_id for c, _ in cosine_topk(small, query, k=2)]
        extended = make_chunks(["harbor lights at dusk", "the cat slept indoors", "zz qq vv"])
        big = embed_chunks(extended, backend)
        ranked_big = [c.chunk_id for c, _ in cosine_topk(big, query, k=3)]
        assert [i for i in ranked_big if i in (0, 1)] == ranked_small
