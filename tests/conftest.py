"""Shared test helpers: synthetic documents and instrumented backends."""

from __future__ import annotations

import logging
import re

import numpy as np
import pytest

from lumberkit.backends import (
    BackendError,
    CompletionBackend,
    EmbeddingBackend,
    MockEmbeddingBackend,
)
from lumberkit.corpus import Document


@pytest.fixture(autouse=True)
def _root_log_level():
    """cli.main sets the root logger's level on every call; restore it after each test."""
    root = logging.getLogger()
    level = root.level
    yield
    root.setLevel(level)


def words(count: int, tag: str = "w") -> str:
    """A text of exactly `count` whitespace-delimited words."""
    return " ".join(f"{tag}{i}" for i in range(count))


def make_document(word_counts: list[int], doc_id: str = "doc") -> Document:
    """A document whose paragraph i+1 has word_counts[i] words."""
    paragraphs = tuple(
        words(count, tag=f"p{i}w") for i, count in enumerate(word_counts, start=1)
    )
    return Document(doc_id, paragraphs)


_PROMPT_ID_RE = re.compile(r"^ID (\d+):", re.MULTILINE)


def prompt_ids(prompt: str) -> list[int]:
    """The paragraph IDs rendered into a split prompt, in order."""
    return [int(m) for m in _PROMPT_ID_RE.findall(prompt)]


class CountingBackend(CompletionBackend):
    """Wraps a response function and counts calls."""

    def __init__(self, respond):
        self.respond = respond
        self.calls = 0
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls += 1
        self.prompts.append(prompt)
        return self.respond(prompt)


def last_id_responder(prompt: str) -> str:
    ids = prompt_ids(prompt)
    return f"Answer: ID {ids[-1]:04d}"


def garbage_responder(prompt: str) -> str:
    return "there is no identifier here at all"


class FailingBackend(CompletionBackend):
    """Raises BackendError after an optional number of good responses."""

    def __init__(self, respond=None, fail_after: int = 0):
        self.respond = respond
        self.fail_after = fail_after
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.calls > self.fail_after or self.respond is None:
            raise BackendError("transport down")
        return self.respond(prompt)


class CountingEmbeddingBackend(EmbeddingBackend):
    """Delegates to the deterministic mock embedder and counts texts embedded."""

    def __init__(self):
        self._inner = MockEmbeddingBackend()
        self.backend_id = self._inner.backend_id
        self.dimension = self._inner.dimension
        self.calls = 0
        self.texts_embedded = 0

    def embed(self, texts):
        self.calls += 1
        self.texts_embedded += len(texts)
        return self._inner.embed(texts)


class RecordingEmbeddingBackend(EmbeddingBackend):
    """The mock embedder, keeping the texts of every embed call."""

    def __init__(self):
        self._inner = MockEmbeddingBackend()
        self.backend_id = self._inner.backend_id
        self.dimension = self._inner.dimension
        self.calls: list[list[str]] = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return self._inner.embed(texts)


class StubEmbeddingBackend(EmbeddingBackend):
    """Serves fixed vectors from a text -> vector mapping."""

    backend_id = "stub"

    def __init__(self, mapping: dict[str, np.ndarray], dimension: int):
        self.mapping = mapping
        self.dimension = dimension

    def embed(self, texts):
        rows = np.empty((len(texts), self.dimension), dtype=np.float64)
        for i, text in enumerate(texts):
            vector = np.asarray(self.mapping[text], dtype=np.float64)
            rows[i] = vector / np.linalg.norm(vector)
        return rows
