"""Tests for relevance judging, DCG/Recall metrics, and the theta sweep."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import random
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CountingBackend,
    CountingEmbeddingBackend,
    RecordingEmbeddingBackend,
    StubEmbeddingBackend,
    last_id_responder,
    make_document,
    prompt_ids,
    words,
)
from lumberkit import evaluation, parallel
from lumberkit.backends import (
    CachingBackend,
    CachingEmbedder,
    CompletionBackend,
    EmbeddingCache,
    MockEmbeddingBackend,
    ResponseCache,
    ScriptedBackend,
)
from lumberkit.chunker import Chunk, ChunkerConfig, lumberchunk
from lumberkit.corpus import Document, QAPair
from lumberkit.errors import ConfigError
from lumberkit.evaluation import (
    DEFAULT_KS,
    DEFAULT_THETAS,
    EvaluationError,
    RetrievalRun,
    build_runs,
    dcg_at_k,
    evaluate,
    format_report_table,
    judge_relevance,
    normalize_for_matching,
    recall_at_k,
    report_from_runs,
    report_to_record,
    sweep_theta,
    write_reports,
)
from lumberkit.index import cosine_topk, embed_chunks


def chunk_of(text: str, chunk_id: int = 0, doc_id: str = "doc") -> Chunk:
    return Chunk(doc_id, chunk_id, chunk_id + 1, chunk_id + 1, text)


def qa_of(passage: str, doc_id: str = "doc", question: str = "q?") -> QAPair:
    return QAPair(doc_id, question, "an answer", passage)


def run_with_rank(rank: int | None) -> RetrievalRun:
    return RetrievalRun(qa_of("p"), (), rank)


class TestNormalizeForMatching:
    def test_lowercase_punctuation_whitespace(self):
        assert normalize_for_matching("The  KEEPER, lit; the lamp.") == "the keeper lit the lamp"

    def test_punctuation_only_becomes_empty(self):
        assert normalize_for_matching("!!! ... ---") == ""


def judges(chunk: Chunk, qa: QAPair) -> bool:
    """judge_relevance on the chunk's text and the QA pair's passage, normalized."""
    return judge_relevance(
        normalize_for_matching(chunk.text), normalize_for_matching(qa.supporting_passage)
    )


class TestJudgeRelevance:
    def test_takes_texts_already_normalized(self):
        assert judge_relevance("at dusk the keeper lit the lamp", "the keeper lit the lamp")
        assert not judge_relevance("at dusk the keeper lit the lamp", "The KEEPER lit the lamp")

    def test_verbatim_passage(self):
        chunk = chunk_of("At dusk the keeper lit the lamp and waited for fog.")
        assert judges(chunk, qa_of("the keeper lit the lamp"))

    def test_case_and_punctuation_ignored(self):
        chunk = chunk_of("At dusk the keeper lit the lamp and waited.")
        assert judges(chunk, qa_of("The KEEPER -- lit, the LAMP!"))

    def test_disjoint_texts(self):
        assert not judges(chunk_of("granite quarry records"), qa_of("the keeper lit the lamp"))

    def test_ngram_ratio_above_threshold(self):
        passage_words = [f"w{i}" for i in range(12)]  # 10 word 3-grams
        chunk = chunk_of(" ".join(passage_words[:11]))  # holds 9 of the 10
        assert judges(chunk, qa_of(" ".join(passage_words)))

    def test_ngram_ratio_below_threshold(self):
        passage_words = [f"w{i}" for i in range(12)]
        chunk = chunk_of(" ".join(passage_words[:8]))  # holds 6 of 10 grams
        assert not judges(chunk, qa_of(" ".join(passage_words)))

    def test_short_passage_uses_substring_only(self):
        assert judges(chunk_of("the tall tower stands"), qa_of("tall tower"))
        assert not judges(chunk_of("tower of the tall king"), qa_of("tall tower"))

    def test_punctuation_only_passage_is_never_relevant(self):
        assert not judges(chunk_of("anything at all"), qa_of("?!"))

    def test_custom_threshold(self):
        passage_words = [f"w{i}" for i in range(12)]
        chunk = chunk_of(" ".join(passage_words[:8]))
        qa = qa_of(" ".join(passage_words))
        with mock.patch.object(evaluation, "NGRAM_THRESHOLD", 0.5):
            assert judges(chunk, qa)
        with mock.patch.object(evaluation, "NGRAM_THRESHOLD", 0.7):
            assert not judges(chunk, qa)


def set_judge_relevance(
    chunk: Chunk, qa: QAPair, *, ngram_size: int = 3, ngram_threshold: float = 0.8
) -> bool:
    """The set-based judge: every word n-gram of the chunk in a Python set.

    Kept as the reference the substring judge must agree with exactly.
    """
    passage = normalize_for_matching(qa.supporting_passage)
    text = normalize_for_matching(chunk.text)
    if not passage:
        return False
    if passage in text:
        return True
    passage_words = passage.split()
    if len(passage_words) < ngram_size:
        return False
    chunk_words = text.split()
    chunk_grams = {
        tuple(chunk_words[i : i + ngram_size])
        for i in range(len(chunk_words) - ngram_size + 1)
    }
    passage_grams = [
        tuple(passage_words[i : i + ngram_size])
        for i in range(len(passage_words) - ngram_size + 1)
    ]
    hits = sum(1 for gram in passage_grams if gram in chunk_grams)
    return hits / len(passage_grams) >= ngram_threshold


# Short words over a tiny alphabet, so one word is often a prefix or suffix
# of another ("a" in "ba"), plus Unicode letters and punctuation that
# normalization turns into word breaks.
_TOKENS = st.sampled_from(
    ["a", "b", "ab", "ba", "aa", "É", "é", "éa", "ß", "Ω", "x1", "--", ",", "!", "it's", "a.b"]
)
_SEPARATORS = st.sampled_from([" ", "  ", "\n", "\t", ", "])
# exact hit ratios such as 4/5, 2/3 and 3/4 sit on the threshold
_THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.6, 2 / 3, 0.75, 0.8, 5 / 6, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def judge_cases(draw):
    chunk_tokens = draw(st.lists(_TOKENS, max_size=30))
    if chunk_tokens and draw(st.booleans()):
        # a passage cut from the chunk, then edited, lands near the threshold
        start = draw(st.integers(0, len(chunk_tokens) - 1))
        stop = draw(st.integers(start + 1, len(chunk_tokens)))
        passage_tokens = list(chunk_tokens[start:stop])
        for _ in range(draw(st.integers(0, 3))):
            position = draw(st.integers(0, len(passage_tokens)))
            passage_tokens.insert(position, draw(_TOKENS))
    else:
        passage_tokens = draw(st.lists(_TOKENS, max_size=12))
    separator = draw(_SEPARATORS)
    passage = separator.join(passage_tokens)
    if not passage.strip():
        passage = "a"
    return (
        chunk_of(separator.join(chunk_tokens)),
        qa_of(passage),
        draw(st.integers(1, 4)),
        draw(_THRESHOLDS),
    )


class TestJudgeExactness:
    @settings(max_examples=600, deadline=None)
    @given(judge_cases())
    def test_substring_judge_matches_set_judge(self, case):
        chunk, qa, ngram_size, ngram_threshold = case
        expected = set_judge_relevance(
            chunk, qa, ngram_size=ngram_size, ngram_threshold=ngram_threshold
        )
        # patched in the body: hypothesis reruns it, and monkeypatch would not reset
        with mock.patch.multiple(
            evaluation, NGRAM_SIZE=ngram_size, NGRAM_THRESHOLD=ngram_threshold
        ):
            assert judges(chunk, qa) == expected

    def test_ngrams_match_whole_words_only(self):
        # "a b c" is a substring of "xa b cx" but not one of its word trigrams
        qa = qa_of("a b c d")
        chunk = chunk_of("xa b cx b c d")
        assert not set_judge_relevance(chunk, qa, ngram_threshold=0.6)  # 1 of 2 trigrams
        with mock.patch.object(evaluation, "NGRAM_THRESHOLD", 0.6):
            assert not judges(chunk, qa)

    def test_exact_ratio_on_the_threshold_is_relevant(self):
        passage_words = [f"w{i}" for i in range(7)]  # 5 word trigrams
        chunk = chunk_of(" ".join(passage_words[:6]) + " gap")  # holds 4 of 5
        qa = qa_of(" ".join(passage_words))
        assert judges(chunk, qa)  # NGRAM_THRESHOLD is 0.8
        with mock.patch.object(evaluation, "NGRAM_THRESHOLD", 0.81):
            assert not judges(chunk, qa)


class TestMetrics:
    def test_gold_rank_one_scores_hundred(self):
        runs = [run_with_rank(1)]
        assert dcg_at_k(runs, 1) == 100.0
        assert dcg_at_k(runs, 5) == 100.0
        assert recall_at_k(runs, 1) == 100.0

    def test_gold_rank_three_is_exactly_fifty(self):
        assert dcg_at_k([run_with_rank(3)], 5) == 50.0

    def test_mixed_ranks(self):
        runs = [run_with_rank(1), run_with_rank(3), run_with_rank(None)]
        assert dcg_at_k(runs, 5) == 50.0
        assert recall_at_k(runs, 5) == pytest.approx(200.0 / 3)
        assert recall_at_k(runs, 2) == pytest.approx(100.0 / 3)
        assert dcg_at_k(runs, 2) == pytest.approx(100.0 / 3)

    def test_rank_outside_cutoff_scores_zero(self):
        assert dcg_at_k([run_with_rank(6)], 5) == 0.0
        assert recall_at_k([run_with_rank(6)], 5) == 0.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            dcg_at_k([run_with_rank(1)], 0)
        with pytest.raises(ValueError):
            recall_at_k([run_with_rank(1)], -1)

    def test_empty_runs_rejected(self):
        with pytest.raises(EvaluationError):
            dcg_at_k([], 5)
        with pytest.raises(EvaluationError):
            recall_at_k([], 5)

    def test_run_validates_gold_rank(self):
        with pytest.raises(ValueError):
            run_with_rank(0)

    @given(
        ranks=st.lists(
            st.one_of(st.none(), st.integers(1, 30)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_and_invariants(self, ranks):
        runs = [run_with_rank(r) for r in ranks]
        for k in (1, 2, 5, 10, 20):
            expected_dcg = (
                sum(100.0 / math.log2(r + 1) for r in ranks if r is not None and r <= k)
                / len(ranks)
            )
            expected_recall = (
                100.0 * sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
            )
            assert dcg_at_k(runs, k) == pytest.approx(expected_dcg, abs=1e-9)
            assert recall_at_k(runs, k) == pytest.approx(expected_recall, abs=1e-9)
            assert dcg_at_k(runs, k) <= recall_at_k(runs, k) + 1e-12
        assert dcg_at_k(runs, 1) == recall_at_k(runs, 1)  # bitwise, not approximate
        for lo, hi in zip(DEFAULT_KS, DEFAULT_KS[1:]):
            assert dcg_at_k(runs, lo) <= dcg_at_k(runs, hi) + 1e-12
            assert recall_at_k(runs, lo) <= recall_at_k(runs, hi) + 1e-12

    @given(
        ranks=st.lists(st.one_of(st.none(), st.integers(1, 10**6)), min_size=1, max_size=60),
        ks=st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_report_from_runs_stays_on_the_0_to_100_scale(self, ranks, ks):
        runs = [run_with_rank(r) for r in ranks]
        report = report_from_runs(runs, ks)
        assert report.ks == tuple(ks) and report.query_count == len(ranks)
        for k in ks:
            assert report.dcg[k] == dcg_at_k(runs, k)
            assert report.recall[k] == recall_at_k(runs, k)
            assert 0.0 <= report.dcg[k] <= report.recall[k] <= 100.0


def _unit(dimension: int, axis: int) -> np.ndarray:
    vec = np.zeros(dimension)
    vec[axis] = 1.0
    return vec


class TestBuildRuns:
    def test_query_matching_chunk_ranks_first(self):
        chunks = [
            chunk_of("the keeper lit the lamp", 0),
            chunk_of("ships passed in fog", 1),
            chunk_of("granite from the quarry", 2),
        ]
        qa = qa_of("the keeper lit the lamp", question="the keeper lit the lamp")
        runs = build_runs(chunks, [qa], MockEmbeddingBackend())
        assert len(runs) == 1
        assert runs[0].gold_rank == 1
        assert runs[0].ranked_chunks[0].chunk_id == 0

    def test_unknown_doc_counts_as_absent_with_warning(self, caplog):
        chunks = [chunk_of("text", 0, doc_id="known")]
        qa = qa_of("text", doc_id="mystery")
        assert build_runs(chunks, [qa], MockEmbeddingBackend()) == []
        with caplog.at_level(logging.WARNING, logger="lumberkit.evaluation"):
            report = evaluate([chunks], [qa], MockEmbeddingBackend())
        assert report.query_count == 1
        assert report.recall[max(DEFAULT_KS)] == 0.0
        assert any("no chunks" in r.message for r in caplog.records)

    def test_gold_rank_is_first_accepted_position(self):
        dim = 4
        chunks = [chunk_of("far text", 0), chunk_of("near text", 1), chunk_of("mid text", 2)]
        mapping = {
            "far text": _unit(dim, 1),
            "near text": _unit(dim, 0),
            "mid text": np.array([1.0, 1.0, 0.0, 0.0]),
            "q?": _unit(dim, 0),
        }
        stub = StubEmbeddingBackend(mapping, dim)
        qa = qa_of("near text")
        runs = build_runs(chunks, [qa], stub)
        # ranking: near (1.0), mid (0.707), far (0.0); judge accepts only "near text"
        assert [c.chunk_id for c in runs[0].ranked_chunks] == [1, 2, 0]
        assert runs[0].gold_rank == 1

    def test_depth_limits_ranking_length(self):
        chunks = [chunk_of(f"text {i}", i) for i in range(8)]
        runs = build_runs(chunks, [qa_of("text 0")], MockEmbeddingBackend(), depth=3)
        assert len(runs[0].ranked_chunks) == 3

    def test_questions_grouped_per_document(self):
        chunks = [
            chunk_of("dockside morning", 0, doc_id="a"),
            chunk_of("dockside morning", 0, doc_id="b"),
        ]
        qa = qa_of("dockside morning", doc_id="b")
        assert build_runs(chunks[:1], [qa], MockEmbeddingBackend()) == []
        runs = build_runs(chunks[1:], [qa], MockEmbeddingBackend())
        assert runs[0].ranked_chunks[0].doc_id == "b"
        assert len(runs[0].ranked_chunks) == 1


def reference_runs(chunks, qa_pairs, backend, depth=max(DEFAULT_KS)):
    """One question at a time: embed it alone, rank, judge with the set judge."""
    runs = []
    for qa in qa_pairs:
        doc_chunks = [chunk for chunk in chunks if chunk.doc_id == qa.doc_id]
        if not doc_chunks:
            runs.append(RetrievalRun(qa, (), None))
            continue
        index = embed_chunks(doc_chunks, backend)
        ranked = [chunk for chunk, _ in cosine_topk(index, backend.embed([qa.question])[0], depth)]
        gold_rank = next(
            (rank for rank, chunk in enumerate(ranked, 1) if set_judge_relevance(chunk, qa)),
            None,
        )
        runs.append(RetrievalRun(qa, tuple(ranked), gold_rank))
    return runs


def by_document(chunks):
    """chunks as one list per document, in order of first appearance."""
    documents = {}
    for chunk in chunks:
        documents.setdefault(chunk.doc_id, []).append(chunk)
    return list(documents.values())


def interleaved_corpus(seed: int, documents: int = 3, chunks_per_doc: int = 25):
    """Chunks over a small vocabulary and questions that cycle through documents.

    Passages are cut from chunk text, sometimes across two chunks or with a
    word changed or cut short, so some questions are judged relevant at
    rank > 1 and some not at all. One question names a document that has no
    chunks.
    """
    rng = random.Random(seed)
    vocabulary = [f"w{i}" for i in range(40)] + ["The", "keeper's", "lamp,", "fog."]
    chunks = []
    texts: dict[str, list[str]] = {}
    for d in range(documents):
        doc_id = f"doc{d}"
        for c in range(chunks_per_doc):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(5, 40)))
            chunks.append(Chunk(doc_id, c, c + 1, c + 1, text))
            texts.setdefault(doc_id, []).append(text)
    qa_pairs = []
    for q in range(60):
        doc_id = f"doc{q % documents}"
        doc_texts = texts[doc_id]
        first = rng.randrange(len(doc_texts))
        joined = " ".join(doc_texts[first : first + 2]).split()
        start = rng.randrange(len(joined))
        passage_words = joined[start : start + rng.randint(1, 20)]
        edited = rng.randrange(len(passage_words))
        if rng.random() < 0.3:
            passage_words[edited] = rng.choice(vocabulary)
        elif rng.random() < 0.5:
            # a proper prefix or suffix of the word: its n-grams occur in
            # the chunk as substrings, never as whole words
            word = passage_words[edited]
            passage_words[edited] = word[1:] if rng.random() < 0.5 else word[:-1]
        question = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(3, 12)))
        qa_pairs.append(QAPair(doc_id, question, "a", " ".join(passage_words)))
    qa_pairs.insert(7, QAPair("nowhere", "lost?", "a", "w1 w2 w3"))
    return chunks, qa_pairs


class TestBuildRunsExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_question_reference(self, seed):
        chunks, qa_pairs = interleaved_corpus(seed)
        backend = MockEmbeddingBackend()
        expected = reference_runs(chunks, qa_pairs, backend)
        for document in by_document(chunks):
            runs = build_runs(document, qa_pairs, backend)
            assert runs == [run for run in expected if run.qa.doc_id == document[0].doc_id]
        found = [run.gold_rank for run in expected if run.gold_rank is not None]
        assert any(rank > 1 for rank in found)
        assert sum(run.gold_rank is None for run in expected if run.ranked_chunks) > 1

    def test_judge_called_once_per_judged_pair(self, monkeypatch):
        chunks, qa_pairs = interleaved_corpus(0)
        backend = MockEmbeddingBackend()
        expected = reference_runs(chunks, qa_pairs, backend)
        judged: list[tuple[str, str]] = []
        judge = evaluation.judge_relevance

        def recording_judge(text, passage):
            judged.append((text, passage))
            return judge(text, passage)

        monkeypatch.setattr(evaluation, "judge_relevance", recording_judge)
        runs = [run for doc in by_document(chunks) for run in build_runs(doc, qa_pairs, backend)]
        # documents doc0, doc1, doc2 in turn, each in question order
        assert runs == sorted(
            (run for run in expected if run.ranked_chunks), key=lambda run: run.qa.doc_id
        )
        expected_pairs = sorted(
            (normalize_for_matching(chunk.text), normalize_for_matching(run.qa.supporting_passage))
            for run in expected
            for chunk in run.ranked_chunks[: run.gold_rank or len(run.ranked_chunks)]
        )
        assert sorted(judged) == expected_pairs


class TestQueryBatching:
    def test_two_query_calls_per_document_of_seventy_questions(self):
        chunks = [
            chunk_of(f"chunk {d} {i} text", i, doc_id=f"doc{d}") for d in range(4) for i in range(5)
        ]
        # doc3 has chunks but no questions; questions cycle through doc0..doc2
        qa_pairs = [
            qa_of(f"chunk {q % 3} 1 text", doc_id=f"doc{q % 3}", question=f"question {q}?")
            for q in range(210)
        ]
        backend = RecordingEmbeddingBackend()
        runs = [run for doc in by_document(chunks) for run in build_runs(doc, qa_pairs, backend)]
        assert [run.qa for run in runs] == sorted(qa_pairs, key=lambda qa: qa.doc_id)
        query_calls = [call for call in backend.calls if call[0].startswith("question")]
        assert [len(call) for call in query_calls] == [64, 6] * 3
        for d, (first, second) in enumerate(zip(query_calls[::2], query_calls[1::2])):
            assert first + second == [f"question {q}?" for q in range(d, 210, 3)]
        chunk_calls = [call for call in backend.calls if call[0].startswith("chunk")]
        assert [call[0].split()[1] for call in chunk_calls] == ["0", "1", "2"]
        assert not any("chunk 3" in text for call in backend.calls for text in call)


class TestEvaluate:
    def test_matches_runs_oracle(self):
        chunks = [chunk_of(f"subject {i} sentence", i) for i in range(6)]
        qas = [
            qa_of("subject 2 sentence", question="subject 2 sentence"),
            qa_of("subject 5 sentence", question="subject 5 sentence"),
            qa_of("missing doc", doc_id="other"),
        ]
        backend = MockEmbeddingBackend()
        report = evaluate([chunks], qas, backend, method="toy")
        runs = build_runs(chunks, qas, backend) + [RetrievalRun(qas[2], (), None)]
        for k in DEFAULT_KS:
            assert report.dcg[k] == dcg_at_k(runs, k)
            assert report.recall[k] == recall_at_k(runs, k)
        assert report.method == "toy"
        assert report.query_count == 3
        assert report.ks == DEFAULT_KS

    def test_perfect_retrieval_scores_hundred(self):
        chunks = [chunk_of("only chunk", 0)]
        qa = qa_of("only chunk", question="only chunk")
        report = evaluate([chunks], [qa], MockEmbeddingBackend())
        assert report.dcg[1] == 100.0
        assert report.recall[20] == 100.0

    def test_custom_ks(self):
        chunks = [chunk_of("only chunk", 0)]
        qa = qa_of("only chunk", question="only chunk")
        report = evaluate([chunks], [qa], MockEmbeddingBackend(), ks=(1, 3))
        assert report.ks == (1, 3)
        assert set(report.dcg) == {1, 3}

    def test_empty_ks_rejected(self):
        with pytest.raises(ValueError):
            evaluate([[chunk_of("x")]], [qa_of("x")], MockEmbeddingBackend(), ks=())

    @pytest.mark.parametrize("ks", [(5, 5, 1), (0, 1), (1, -3)])
    def test_repeated_or_non_positive_ks_rejected(self, ks):
        with pytest.raises(ConfigError, match="distinct"):
            evaluate([[chunk_of("x")]], [qa_of("x")], MockEmbeddingBackend(), ks=ks)

    def test_document_given_twice_is_refused(self):
        halves = [[chunk_of("first half", 0)], [chunk_of("second half", 1)]]
        with pytest.raises(EvaluationError, match="'doc' is given twice"):
            evaluate(halves, [qa_of("second half")], MockEmbeddingBackend())

    def test_warm_embed_cache_skips_chunk_embedding(self, tmp_path):
        chunks = [chunk_of(f"chunk text {i}", i) for i in range(3)]
        qas = [qa_of("chunk text 0"), qa_of("chunk text 1")]
        backend = CountingEmbeddingBackend()
        cache = EmbeddingCache(tmp_path / "emb.jsonl", backend.backend_id)
        evaluate([chunks], qas, CachingEmbedder(backend, cache))
        assert backend.texts_embedded == 4  # 3 chunks + 1 question, asked twice
        backend.texts_embedded = 0
        evaluate([chunks], qas, CachingEmbedder(backend, cache))
        assert backend.texts_embedded == 0  # questions are cached too


class TestSweepTheta:
    def make_inputs(self):
        documents = [make_document([60] * 12, doc_id="book")]
        qas = [
            QAPair("book", "who?", "a", documents[0].paragraphs[2]),
            QAPair("book", "where?", "b", documents[0].paragraphs[9]),
        ]
        return documents, qas

    def test_two_thetas_two_sorted_reports(self):
        documents, qas = self.make_inputs()
        reports = sweep_theta(
            documents, qas, [650, 450], ScriptedBackend(last_id_responder), MockEmbeddingBackend()
        )
        assert [r.theta for r in reports] == [450, 650]
        assert [r.method for r in reports] == [
            "lumberchunker(θ=450)",
            "lumberchunker(θ=650)",
        ]
        for report in reports:
            assert report.chunking_seconds is not None
            assert report.chunking_seconds >= 0.0
            assert report.query_count == 2

    def test_duplicate_thetas_rejected_before_chunking(self):
        documents, qas = self.make_inputs()
        backend = CountingBackend(last_id_responder)
        with pytest.raises(ConfigError, match=r"distinct, got \[550, 550, 450\]"):
            sweep_theta(documents, qas, [550, 550, 450], backend, MockEmbeddingBackend())
        assert backend.calls == 0

    def test_deterministic_metrics(self):
        documents, qas = self.make_inputs()

        def run():
            return sweep_theta(
                documents,
                qas,
                [450, 550],
                ScriptedBackend(last_id_responder),
                MockEmbeddingBackend(),
            )

        first, second = run(), run()
        for a, b in zip(first, second):
            assert a.dcg == b.dcg
            assert a.recall == b.recall

    def test_empty_thetas_rejected(self):
        documents, qas = self.make_inputs()
        with pytest.raises(ValueError):
            sweep_theta(documents, qas, [], ScriptedBackend(last_id_responder), MockEmbeddingBackend())

    def test_empty_questions_rejected_before_chunking(self):
        documents, _qas = self.make_inputs()
        backend = CountingBackend(last_id_responder)
        with pytest.raises(EvaluationError, match="no questions to score"):
            sweep_theta(documents, [], [450], backend, MockEmbeddingBackend())
        assert backend.calls == 0

    def test_default_sweep_values(self):
        assert DEFAULT_THETAS == (450, 550, 650, 1000)

    def test_duplicate_doc_ids_rejected(self):
        documents, qas = self.make_inputs()
        with pytest.raises(EvaluationError, match="'book'"):
            sweep_theta(
                documents * 2, qas, [450], ScriptedBackend(last_id_responder), MockEmbeddingBackend()
            )


class FirstRequestGarbler(CompletionBackend):
    """Split answers that depend on whether a prompt was asked before.

    Like the benchmark endpoint, about a third of prompts get garbage on
    their first request only, so a run's calls and answers depend on the
    order in which each prompt is asked. Replies are delayed by a few ms
    chosen from the prompt hash, so concurrent documents interleave. Every
    call is logged per prompt.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.calls: dict[str, list[str]] = {}

    def complete(self, prompt: str) -> str:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        time.sleep(digest[1] / 255 * 0.004)
        ids = prompt_ids(prompt)
        with self.lock:
            earlier = self.calls.setdefault(prompt, [])
            if len(ids) < 2 or (not earlier and digest[0] % 3 == 0):
                reply = "no clear shift"
            else:
                reply = f"Answer: ID {ids[1 + digest[2] % (len(ids) - 1)]:04d}"
            earlier.append(reply)
        return reply


class HitCountingCache(ResponseCache):
    def __init__(self, path):
        super().__init__(path)
        self.hits = 0

    def get(self, prompt):
        response = super().get(prompt)
        if response is not None:
            with self._lock:
                self.hits += 1
        return response


class TestConcurrentSweep:
    THETAS = (60, 75, 90, 120)

    def make_inputs(self):
        documents = []
        qas = []
        for d in range(5):
            doc_id = f"doc{d}"
            paragraphs = tuple(
                words(8 + (7 * i + 11 * d) % 33, tag=f"{doc_id}p{i}w") for i in range(1, 31)
            )
            documents.append(Document(doc_id, paragraphs))
            qas += [
                QAPair(doc_id, f"{doc_id} q{i}?", "a", paragraphs[i]) for i in (3, 17, 28)
            ]
        # questions about a document the sweep was not given, between swept ones
        qas[4:4] = [QAPair("unswept", f"lost q{i}?", "a", "nowhere to be found") for i in range(2)]
        return documents, qas

    def sequential_sweep(self, documents, qas, backend, cache):
        """The reference: every theta in ascending order, documents in turn."""
        reports = []
        for theta in self.THETAS:
            chunks = [
                lumberchunk(document, ChunkerConfig(theta=theta), backend, cache=cache)
                for document in documents
            ]
            method = f"lumberchunker(θ={theta})"
            report = evaluate(chunks, qas, MockEmbeddingBackend(), method=method)
            reports.append(dataclasses.replace(report, theta=theta))
        return reports

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_same_reports_calls_and_warnings_as_sequential(
        self, tmp_path, monkeypatch, caplog, workers
    ):
        documents, qas = self.make_inputs()

        def warnings():
            found = [r.getMessage() for r in caplog.records if r.name == evaluation.__name__]
            caplog.clear()
            return found

        reference = FirstRequestGarbler()
        reference_cache = HitCountingCache(tmp_path / "reference.jsonl")
        with caplog.at_level(logging.WARNING):
            expected = self.sequential_sweep(documents, qas, reference, reference_cache)
            expected_warnings = warnings()

            monkeypatch.setattr(parallel, "WORKERS", workers)
            backend = FirstRequestGarbler()
            cache = HitCountingCache(tmp_path / "sweep.jsonl")
            reports = sweep_theta(
                documents, qas, list(reversed(self.THETAS)), CachingBackend(backend, cache),
                MockEmbeddingBackend(),
            )

        def records(found):
            return [
                {k: v for k, v in report_to_record(r).items() if k != "chunking_seconds"}
                for r in found
            ]

        assert records(reports) == records(expected)
        assert reference_cache.hits > 0  # windows recur across thetas
        assert cache.hits == reference_cache.hits
        assert backend.calls == reference.calls
        assert any(replies[0] == "no clear shift" for replies in backend.calls.values())
        assert expected_warnings == ["2 question(s) referenced documents with no chunks"] * 4
        assert warnings() == expected_warnings

    def test_scoring_starts_while_documents_are_still_chunking(self, monkeypatch):
        documents, qas = self.make_inputs()
        monkeypatch.setattr(parallel, "WORKERS", 2)
        lock = threading.Lock()
        returned: list[float] = []
        scoring_started: list[float] = []

        def slow_reply(prompt: str) -> str:
            time.sleep(0.002)
            reply = last_id_responder(prompt)
            with lock:
                returned.append(time.perf_counter())
            return reply

        def timed_build_runs(*args, **kwargs):
            scoring_started.append(time.perf_counter())
            return build_runs(*args, **kwargs)

        monkeypatch.setattr(evaluation, "build_runs", timed_build_runs)
        sweep_theta(
            documents, qas, self.THETAS, ScriptedBackend(slow_reply), MockEmbeddingBackend()
        )
        assert min(scoring_started) < max(returned)


class TestReportOutput:
    def make_reports(self):
        runs_a = [run_with_rank(1), run_with_rank(3)]
        runs_b = [run_with_rank(None), run_with_rank(2)]
        return [
            report_from_runs(runs_a, method="method-a"),
            report_from_runs(runs_b, method="method-b"),
        ]

    def test_table_layout(self):
        table = format_report_table(self.make_reports())
        lines = table.splitlines()
        assert lines[0].startswith("method")
        for k in DEFAULT_KS:
            assert f"DCG@{k}" in lines[0]
            assert f"Recall@{k}" in lines[0]
        assert lines[2].startswith("method-a")
        assert lines[3].startswith("method-b")
        assert "100.00" in lines[2]

    def test_table_rejects_empty_and_mismatched(self):
        with pytest.raises(EvaluationError):
            format_report_table([])
        mixed = [
            report_from_runs([run_with_rank(1)], ks=(1, 2), method="a"),
            report_from_runs([run_with_rank(1)], ks=(1, 5), method="b"),
        ]
        with pytest.raises(EvaluationError):
            format_report_table(mixed)

    def test_record_shape_and_optional_fields(self):
        report = report_from_runs([run_with_rank(1)], method="m")
        record = report_to_record(report)
        assert record["method"] == "m"
        assert record["ks"] == list(DEFAULT_KS)
        assert record["dcg"]["1"] == 100.0
        assert "chunking_seconds" not in record
        assert "theta" not in record
        timed = report_from_runs(
            [run_with_rank(1)], method="m", chunking_seconds=1.25, theta=550
        )
        timed_record = report_to_record(timed)
        assert timed_record["chunking_seconds"] == 1.25
        assert timed_record["theta"] == 550

    def test_write_reports_is_jsonl(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        write_reports(self.make_reports(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["method"] == "method-a"
        assert json.loads(lines[1])["query_count"] == 2
