"""Acceptance gate: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The final test is a live-backend smoke check and skips unless the
LUMBERKIT_* environment variables are set.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from contextlib import contextmanager

import pytest

from conftest import CountingBackend, make_document, prompt_ids
from lumberkit.backends import (
    HttpCompletionBackend,
    MockEmbeddingBackend,
    ResponseCache,
    ScriptedBackend,
)
from lumberkit.baselines import RecursiveConfig, paragraph_chunks, recursive_chunks
from lumberkit import chunker
from lumberkit.chunker import (
    ChunkerConfig,
    chunk_stats,
    lumber_steps,
    lumberchunk,
    verify_partition,
    write_chunks,
)
from lumberkit.corpus import Document, QAPair, count_tokens, load_document
from lumberkit.evaluation import (
    DEFAULT_THETAS,
    RetrievalRun,
    dcg_at_k,
    recall_at_k,
    sweep_theta,
)
from lumberkit.index import bm25_build, bm25_tokenize, bm25_topk, embed_chunks
from lumberkit.ragpipe import RoutingDecision, hybrid_retrieve, midpoint_reverse

from conftest import StubEmbeddingBackend, last_id_responder


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


# --- criterion 1 -----------------------------------------------------------


def brute_force_dcg(ranks: list[int | None], k: int) -> float:
    total = 0.0
    for rank in ranks:
        if rank is not None and rank <= k:
            total += 100.0 / math.log2(rank + 1)
    return total / len(ranks)


def brute_force_recall(ranks: list[int | None], k: int) -> float:
    hits = sum(1 for rank in ranks if rank is not None and rank <= k)
    return 100.0 * hits / len(ranks)


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence on 200 randomized run sets"):
        rng = random.Random(101)
        qa = QAPair("d", "q?", "a", "s")
        started = time.perf_counter()
        for _ in range(200):
            ranks: list[int | None] = [
                None if rng.random() < 0.25 else rng.randint(1, 30)
                for _ in range(rng.randint(1, 50))
            ]
            runs = [RetrievalRun(qa, (), rank) for rank in ranks]
            for _ in range(3):
                k = rng.randint(1, 20)
                assert dcg_at_k(runs, k) == pytest.approx(
                    brute_force_dcg(ranks, k), abs=1e-9
                )
                assert recall_at_k(runs, k) == pytest.approx(
                    brute_force_recall(ranks, k), abs=1e-9
                )
            assert dcg_at_k(runs, 1) == recall_at_k(runs, 1)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"metric battery took {elapsed:.2f}s"


# --- criteria 2 and 3 ------------------------------------------------------

BATTERY_CONFIG = ChunkerConfig()
BATTERY_RETRIES = 1  # chunker.MAX_RETRIES while the battery runs


def adversarial_responder(mode: str):
    """Deterministic scripted answers: valid, out-of-range, garbage, or a mix."""

    def respond(prompt: str) -> str:
        ids = prompt_ids(prompt)
        seed = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:8], "big")
        pick = mode if mode != "mixed" else ("valid", "out_of_range", "garbage")[seed % 3]
        if pick == "valid" and len(ids) >= 2:
            chosen = ids[1 + seed % (len(ids) - 1)]
            return f"Answer: ID {chosen:04d}"
        if pick == "out_of_range":
            return f"Answer: ID {ids[-1] + 7 + seed % 5:04d}"
        return "there is no identifier in this reply"

    return respond


@pytest.fixture(scope="module")
def partition_battery():
    """500 random documents x adversarial backends, shared by criteria 2 and 3."""
    rng = random.Random(42)
    modes = ("valid", "out_of_range", "garbage", "mixed")
    runs = []
    started = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chunker, "MAX_RETRIES", BATTERY_RETRIES)
        for i in range(500):
            paragraph_count = rng.randint(1, 200)
            word_counts = [rng.randint(5, 160) for _ in range(paragraph_count)]
            document = make_document(word_counts, doc_id=f"doc{i}")
            backend = CountingBackend(adversarial_responder(modes[i % 4]))
            steps = list(lumber_steps(document, BATTERY_CONFIG, backend))
            runs.append((document, steps, backend.calls))
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_2_partition_safety(partition_battery):
    with criterion(2, "partition safety over 500 random documents"):
        runs, elapsed = partition_battery
        assert len(runs) == 500
        for document, steps, calls in runs:
            chunks = [step.chunk for step in steps]
            verify_partition(chunks, len(document))
            assert len(steps) <= len(document)
            assert calls <= len(steps) * (1 + BATTERY_RETRIES)
        assert elapsed < 30.0, f"partition battery took {elapsed:.2f}s"


def test_criterion_3_group_token_bound(partition_battery):
    with criterion(3, "group token totals overshoot by at most one paragraph"):
        runs, _elapsed = partition_battery
        for document, steps, _calls in runs:
            for step in steps:
                group = step.group
                assert len(group) >= 1
                if group.end_index < len(document):
                    last_tokens = count_tokens(group.paragraphs[-1])
                    overshoot = group.token_total - BATTERY_CONFIG.theta
                    assert overshoot <= last_tokens, (
                        f"group {group.start_index}..{group.end_index} of "
                        f"{document.doc_id} overshoots by {overshoot} tokens"
                    )


# --- criterion 4 -----------------------------------------------------------


def middle_id_responder(prompt: str) -> str:
    ids = prompt_ids(prompt)
    if len(ids) < 2:
        return "no split available"
    return f"Answer: ID {ids[len(ids) // 2]:04d}"


def test_criterion_4_replay_determinism(tmp_path):
    with criterion(4, "chunking twice against one response cache is byte-identical"):
        document = make_document([80] * 30, doc_id="fixture")
        cache_path = tmp_path / "splits.jsonl"
        first = lumberchunk(
            document,
            ChunkerConfig(),
            ScriptedBackend(middle_id_responder),
            cache=ResponseCache(cache_path, model_id="default"),
        )
        silent = CountingBackend(middle_id_responder)
        second = lumberchunk(
            document,
            ChunkerConfig(),
            silent,
            cache=ResponseCache(cache_path, model_id="default"),
        )
        assert silent.calls == 0
        first_path = tmp_path / "first.jsonl"
        second_path = tmp_path / "second.jsonl"
        write_chunks(first, first_path)
        write_chunks(second, second_path)
        assert first_path.read_bytes() == second_path.read_bytes()


# --- criterion 5 -----------------------------------------------------------


def random_prose_document(rng: random.Random, doc_id: str) -> Document:
    paragraphs = []
    for _ in range(rng.randint(1, 12)):
        sentences = []
        for _ in range(rng.randint(1, 6)):
            length = rng.randint(3, 40)
            sentences.append(" ".join(f"t{rng.randint(0, 400)}" for _ in range(length)) + ".")
        paragraphs.append(" ".join(sentences))
    return Document(doc_id, tuple(paragraphs))


def test_criterion_5_recursive_chunker_bounds_and_reconstruction():
    with criterion(5, "recursive chunks respect the cap and reconstruct the text"):
        rng = random.Random(7)
        config = RecursiveConfig(max_tokens=450)
        for i in range(100):
            document = random_prose_document(rng, f"r{i}")
            chunks = recursive_chunks(document, config)
            for chunk in chunks:
                indivisible = len(chunk.text.split()) <= 1
                assert chunk.token_count <= 450 or indivisible
            assert "".join(chunk.text for chunk in chunks) == document.text


# --- criterion 6 -----------------------------------------------------------

TOY_TEXTS = [
    "the cat sat on the mat",
    "a dog chased the cat around",
    "dogs and cats living together",
    "completely unrelated quantum physics lecture",
    "the mat was red and the cat was grey",
]

TOY_QUERIES = [
    "cat",
    "the cat",
    "dog chased",
    "quantum physics",
    "red mat",
    "cat cat",
    "grey cat mat",
    "living together",
    "lecture",
    "the",
    "cats",
    "dog dog dog",
    "around together",
    "physics lecture quantum",
    "sat sat",
    "mat the cat",
    "xylophone",
    "zebra orbit",
    "unknown words only here",
    "warp drive",
]

ZERO_OVERLAP_QUERIES = {"xylophone", "zebra orbit", "unknown words only here", "warp drive"}


def brute_force_bm25(texts: list[str], query: str, k1: float = 1.2, b: float = 0.75):
    docs = [bm25_tokenize(text) for text in texts]
    n = len(docs)
    avgdl = sum(len(doc) for doc in docs) / n
    scores = []
    for doc in docs:
        score = 0.0
        for token in bm25_tokenize(query):
            df = sum(1 for other in docs if token in other)
            if df == 0:
                continue
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tf = doc.count(token)
            norm = k1 * (1.0 - b + b * len(doc) / avgdl)
            score += idf * (tf * (k1 + 1.0)) / (tf + norm)
        scores.append(score)
    return scores


def test_criterion_6_bm25_oracle():
    with criterion(6, "BM25 scores match direct formula evaluation"):
        document = Document("toy", tuple(TOY_TEXTS))
        index = bm25_build(paragraph_chunks(document))
        for query in TOY_QUERIES:
            expected = brute_force_bm25(TOY_TEXTS, query)
            ranked = bm25_topk(index, query, len(TOY_TEXTS))
            by_chunk = {chunk.chunk_id: score for chunk, score in ranked}
            for chunk_id, want in enumerate(expected):
                assert by_chunk[chunk_id] == pytest.approx(want, abs=1e-9)
            if query in ZERO_OVERLAP_QUERIES:
                assert all(score == 0.0 for score in by_chunk.values())


# --- criterion 7 -----------------------------------------------------------


def test_criterion_7_fusion_placement():
    with criterion(7, "hybrid assembly placement and midpoint reversal"):
        texts = ["zebra zebra zebra alpha", "zebra zebra beta", "zebra gamma"]
        texts += [f"filler topic {i}" for i in range(15)]
        document = Document("fuse", tuple(texts))
        chunks = paragraph_chunks(document)
        mapping = {text: [0.0, 0.0, 1.0, 0.0] for text in texts[:3]}
        for i in range(15):
            mapping[texts[3 + i]] = [100.0 - i, i + 1.0, 0.0, 0.0]
        mapping["zebra"] = [1.0, 0.0, 0.0, 0.0]
        embedder = StubEmbeddingBackend(mapping, dimension=4)
        assembly = hybrid_retrieve(
            "zebra",
            bm25_build(chunks),
            embed_chunks(chunks, embedder),
            RoutingDecision(("Zebra",), 3),
            embedder.embed(["zebra"])[0],
        )
        got_ids = [chunk.chunk_id for chunk in assembly.chunks]
        assert got_ids == [0, *range(3, 18), 1, 2]
        sources = [entry.source for entry in assembly.entries]
        assert sources == ["lexical"] + ["dense"] * 15 + ["lexical", "lexical"]

        assert midpoint_reverse(list(range(1, 9))) == [1, 2, 3, 4, 8, 7, 6, 5]
        for n in range(6):
            assert midpoint_reverse(list(range(1, n + 1))) == list(range(1, n + 1))


# --- criterion 8 -----------------------------------------------------------


def test_criterion_8_theta_sweep_harness():
    with criterion(8, "theta sweep yields one report per value, ascending, quickly"):
        rng = random.Random(88)
        documents = [
            make_document([rng.randint(40, 90) for _ in range(36)], doc_id=f"book{d}")
            for d in range(3)
        ]
        qa_pairs = []
        for document in documents:
            for _ in range(10):
                paragraph = document.paragraphs[rng.randrange(len(document))]
                qa_pairs.append(
                    QAPair(document.doc_id, f"where is {paragraph[:12]}?", "a", paragraph)
                )
        assert len(qa_pairs) == 30
        started = time.perf_counter()
        reports = sweep_theta(
            documents,
            qa_pairs,
            list(reversed(DEFAULT_THETAS)),
            ScriptedBackend(last_id_responder),
            MockEmbeddingBackend(),
        )
        elapsed = time.perf_counter() - started
        assert [report.theta for report in reports] == [450, 550, 650, 1000]
        assert [report.method for report in reports] == [
            "lumberchunker(θ=450)",
            "lumberchunker(θ=550)",
            "lumberchunker(θ=650)",
            "lumberchunker(θ=1000)",
        ]
        assert all(report.query_count == 30 for report in reports)
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


# --- criterion 9 -----------------------------------------------------------

_SMOKE_VARS = ("LUMBERKIT_SMOKE_BOOK", "LUMBERKIT_BACKEND_URL", "LUMBERKIT_MODEL")


@pytest.mark.skipif(
    not all(os.environ.get(name) for name in _SMOKE_VARS),
    reason="live smoke needs LUMBERKIT_SMOKE_BOOK, LUMBERKIT_BACKEND_URL and "
    "LUMBERKIT_MODEL (plus LUMBERKIT_API_KEY when the endpoint wants auth)",
)
def test_criterion_9_live_backend_smoke():
    with criterion(9, "live backend chunks a real book into sane pieces"):
        document = load_document(os.environ["LUMBERKIT_SMOKE_BOOK"], "plain_text")
        backend = HttpCompletionBackend(
            os.environ["LUMBERKIT_BACKEND_URL"],
            os.environ["LUMBERKIT_MODEL"],
            api_key=os.environ.get("LUMBERKIT_API_KEY"),
        )
        chunks = lumberchunk(document, ChunkerConfig(), backend)
        verify_partition(chunks, len(document))
        stats = chunk_stats(chunks, [chunk.token_count for chunk in chunks])
        assert 150.0 <= stats.mean_tokens <= 600.0, f"mean {stats.mean_tokens:.1f} tokens"
