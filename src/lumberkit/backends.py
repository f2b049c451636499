"""Completion and embedding backends with on-disk response caching.

Scripted and replay backends keep the whole pipeline runnable offline and
make recorded live runs reproducible byte-for-byte. The HTTP clients speak
the common chat-completion and embedding wire shapes; endpoint, model, and
key all come from configuration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
import requests
from requests.adapters import HTTPAdapter

from .errors import LumberkitError
from .parallel import WORKERS

logger = logging.getLogger(__name__)

API_KEY_ENV_VAR = "LUMBERKIT_API_KEY"


class BackendError(LumberkitError):
    """A backend failed to produce a usable response."""


class CacheError(LumberkitError):
    """A cache file holds a record that cannot be read."""


def prompt_key(model_id: str, prompt: str) -> str:
    """Cache key: sha256 over the model identifier and the prompt text."""
    digest = hashlib.sha256()
    digest.update(model_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class CompletionBackend(ABC):
    """Text completion contract: one prompt string in, one response string out."""

    backend_id: str = "completion"

    @abstractmethod
    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        ...


class ScriptedBackend(CompletionBackend):
    """Deterministic backend driven by a mapping or a pure function.

    Mapping keys are exact prompt strings; a callable receives the prompt and
    must itself be deterministic for replay guarantees to hold.
    """

    backend_id = "scripted"

    def __init__(self, responses: Mapping[str, str] | Callable[[str], str]):
        self._responses = responses

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        if callable(self._responses):
            return self._responses(prompt)
        try:
            return self._responses[prompt]
        except KeyError:
            raise BackendError("no scripted response for this prompt") from None


class _JsonlStore:
    """Append-only JSONL file of {"key": ..., <field>: ...} records.

    On load the last record for a key wins, so re-recording overwrites and
    concurrent writers appending distinct keys do not corrupt each other. A
    record that cannot be read raises CacheError naming the file and line,
    except on the final line: a crash mid-append leaves it torn, so it is
    skipped with a warning and cut off before the next append, which lets a
    re-run resume from the finished prefix.
    """

    field: str  # record field holding the value; subclasses also define _decode

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._torn_at: int | None = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            lines = fh.readlines()
        last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
        offset = 0
        for i, line in enumerate(lines):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                self._entries[record["key"]] = self._decode(record[self.field])
            except (ValueError, KeyError, TypeError) as exc:
                if i < last:
                    raise CacheError(f"{self.path}, line {i + 1}: unreadable record: {exc}") from exc
                logger.warning(
                    "%s, line %d: skipping torn final record: %s", self.path, i + 1, exc
                )
                self._torn_at = start

    def _append(self, key: str, value, stored) -> None:
        line = json.dumps({"key": key, self.field: stored}, ensure_ascii=False)
        with self._lock:
            self._entries[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
                fh.write(line + "\n")

    def __len__(self) -> int:
        return len(self._entries)


class ResponseCache(_JsonlStore):
    """Completion responses keyed by sha256(model_id, prompt).

    Records look like {"key": ..., "response": ...}; see _JsonlStore for the
    load and append rules.
    """

    field = "response"

    def __init__(self, path: str | Path, model_id: str = "default"):
        self.model_id = model_id
        super().__init__(path)

    def _decode(self, value) -> str:
        if not isinstance(value, str):
            raise TypeError(f"response is {type(value).__name__}, not a string")
        return value

    def key_for(self, prompt: str) -> str:
        return prompt_key(self.model_id, prompt)

    def get(self, prompt: str) -> str | None:
        return self._entries.get(self.key_for(prompt))

    def put(self, prompt: str, response: str) -> None:
        self._append(self.key_for(prompt), response, response)


class ReplayBackend(CompletionBackend):
    """Serves recorded responses from a ResponseCache; never hits the network."""

    backend_id = "replay"

    def __init__(self, cache: ResponseCache):
        self.cache = cache

    @classmethod
    def from_file(cls, path: str | Path, model_id: str = "default") -> "ReplayBackend":
        return cls(ResponseCache(path, model_id=model_id))

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        response = self.cache.get(prompt)
        if response is None:
            raise BackendError(
                f"no recorded response for prompt key {self.cache.key_for(prompt)[:12]}..."
            )
        return response


def _bounded_session() -> requests.Session:
    """A session that opens at most WORKERS connections per host.

    Callers beyond that wait for a free connection instead of opening another
    one, so concurrent workers never hold more connections than there are
    workers; servers that serve one keep-alive connection per thread rely on it.
    """
    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=WORKERS, pool_block=True)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


class HttpCompletionBackend(CompletionBackend):
    """Chat-completion client for OpenAI-compatible HTTP endpoints.

    Sends POST {base_url}/chat/completions with a single user message and
    reads choices[0].message.content; see the README for the exact wire
    shape. Transient failures are retried with linear backoff before a
    BackendError is raised.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        *,
        timeout: float = 60.0,
        max_attempts: int = 3,
        retry_wait: float = 1.0,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_wait = retry_wait
        self._session = session or _bounded_session()
        self.backend_id = f"http:{model}"

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.retry_wait * attempt)
            try:
                response = self._session.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout,
                )
                response.raise_for_status()
                body = response.json()
                return body["choices"][0]["message"]["content"]
            except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
                last_error = exc
                logger.warning(
                    "completion request failed (attempt %d/%d): %s",
                    attempt + 1,
                    self.max_attempts,
                    exc,
                )
        raise BackendError(
            f"completion request failed after {self.max_attempts} attempts: {last_error}"
        )


class EmbeddingBackend(ABC):
    """Batch text embedding contract; implementations return unit-norm rows."""

    backend_id: str = "embedding"
    dimension: int

    @abstractmethod
    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Return an array of shape (len(texts), dimension) with unit-norm rows."""


class MockEmbeddingBackend(EmbeddingBackend):
    """Deterministic offline embedder: seeded hash projection of the token multiset.

    Every lowercased whitespace token maps to a fixed pseudo-random direction;
    a text embeds as the normalized sum over its tokens. Identical text gives
    bitwise-identical vectors. Word order is deliberately ignored, which is a
    documented limitation of the mock.
    """

    def __init__(self, dimension: int = 64, seed: int = 0):
        if dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self.backend_id = f"mock:{dimension}:{seed}"
        self._token_vectors: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vector = self._token_vectors.get(token)
        if vector is None:
            digest = hashlib.blake2b(
                f"{self.seed}:{token}".encode("utf-8"), digest_size=8
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            vector = rng.standard_normal(self.dimension)
            self._token_vectors[token] = vector
        return vector

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = np.empty((len(texts), self.dimension), dtype=np.float64)
        for i, text in enumerate(texts):
            total = np.zeros(self.dimension, dtype=np.float64)
            for token in text.lower().split():
                total = total + self._token_vector(token)
            norm = float(np.linalg.norm(total))
            if norm < 1e-12:
                total = self._token_vector("\x00empty")
                norm = float(np.linalg.norm(total))
            rows[i] = total / norm
        return rows


class HttpEmbeddingBackend(EmbeddingBackend):
    """Embedding client for OpenAI-compatible HTTP endpoints.

    Sends POST {base_url}/embeddings with {"model": ..., "input": [...]} and
    reads data[i].embedding. Rows are re-normalized to unit norm on receipt.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        *,
        timeout: float = 60.0,
        max_attempts: int = 3,
        retry_wait: float = 1.0,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_wait = retry_wait
        self._session = session or _bounded_session()
        self.backend_id = f"http-embed:{model}"
        self.dimension = 0  # learned from the first response

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        payload = {"model": self.model, "input": list(texts)}
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.retry_wait * attempt)
            try:
                response = self._session.post(
                    f"{self.base_url}/embeddings",
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout,
                )
                response.raise_for_status()
                body = response.json()
                rows = np.asarray([item["embedding"] for item in body["data"]], dtype=np.float64)
                if rows.ndim != 2 or rows.shape[0] != len(texts):
                    raise ValueError(f"unexpected embedding shape {rows.shape}")
                if self.dimension == 0:
                    self.dimension = int(rows.shape[1])
                elif rows.shape[1] != self.dimension:
                    raise ValueError(
                        f"embedding dimension changed from {self.dimension} to {rows.shape[1]}"
                    )
                norms = np.linalg.norm(rows, axis=1, keepdims=True)
                norms[norms == 0.0] = 1.0
                return rows / norms
            except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
                last_error = exc
                logger.warning(
                    "embedding request failed (attempt %d/%d): %s",
                    attempt + 1,
                    self.max_attempts,
                    exc,
                )
        raise BackendError(
            f"embedding request failed after {self.max_attempts} attempts: {last_error}"
        )


class EmbeddingCache(_JsonlStore):
    """JSONL sidecar of embedding vectors keyed by (backend id, text hash).

    Vectors are stored as JSON float lists, which round-trip float64 exactly.
    The file is safe to delete at any time; it only saves backend calls.
    """

    field = "vector"

    def __init__(self, path: str | Path, backend_id: str):
        self.backend_id = backend_id
        super().__init__(path)

    def _decode(self, value) -> np.ndarray:
        row = np.asarray(value, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"vector has shape {row.shape}, not one row")
        return row

    def key_for(self, text: str) -> str:
        return prompt_key(self.backend_id, text)

    def get(self, text: str) -> np.ndarray | None:
        return self._entries.get(self.key_for(text))

    def put(self, text: str, vector: np.ndarray) -> None:
        row = np.asarray(vector, dtype=np.float64)
        self._append(self.key_for(text), row, row.tolist())
