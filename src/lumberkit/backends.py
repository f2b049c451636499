"""Completion and embedding backends with on-disk response caching.

Scripted and replay backends keep the whole pipeline runnable offline and
make recorded live runs reproducible byte-for-byte. The HTTP clients speak
the common chat-completion and embedding wire shapes; endpoint, model, and
key all come from configuration.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import itertools
import json
import logging
import os
import re
import socket
import threading
import time
import urllib.parse
import weakref
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .errors import LumberkitError
from .parallel import WORKERS

logger = logging.getLogger(__name__)

API_KEY_ENV_VAR = "LUMBERKIT_API_KEY"
# The HTTP clients' settings, read when a connection opens or a request is
# retried: each connection's socket timeout, the requests sent per call before
# BackendError, and the backoff unit (the nth retry waits n times it).
HTTP_TIMEOUT_S = 60.0
HTTP_ATTEMPTS = 3
HTTP_RETRY_WAIT_S = 1.0

# a lone UTF-16 surrogate, which a JSON \u escape can give a str but no UTF-8 text can hold
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


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

    @abstractmethod
    def complete(self, prompt: str) -> str:
        ...

    def retry(self, prompt: str) -> str:
        """Ask again after an unusable answer; a caching backend must not serve it again."""
        return self.complete(prompt)


class ScriptedBackend(CompletionBackend):
    """Deterministic backend driven by a mapping or a pure function.

    Mapping keys are exact prompt strings; a callable receives the prompt and
    must itself be deterministic for replay guarantees to hold.
    """

    def __init__(self, responses: Mapping[str, str] | Callable[[str], str]):
        self._responses = responses

    def complete(self, prompt: str) -> str:
        if callable(self._responses):
            return self._responses(prompt)
        try:
            return self._responses[prompt]
        except KeyError:
            raise BackendError("no scripted response for this prompt") from None


class _JsonlStore:
    """Append-only JSONL file of {"key": ..., <field>: ...} records.

    A text's key is prompt_key(namespace, text), so one file can hold the
    records of several models or embedders. On load the last record for a key
    wins, so re-recording overwrites and concurrent writers appending distinct
    keys do not corrupt each other. A record that cannot be read raises
    CacheError naming the file and line, except on the final line: a crash
    mid-append leaves it torn, so it is skipped with a warning and cut off
    before the next append, which lets a re-run resume from the finished
    prefix.

    The file is opened for appending on the first put and kept open until
    close(), or until the store is collected; each record is flushed as it
    is written.
    """

    field: str  # record field holding the value; subclasses also define _decode

    def __init__(self, path: str | Path, namespace: str):
        self.path = Path(path)
        self.namespace = namespace
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._torn_at: int | None = None
        self._handle = None
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
                key = record["key"]  # before _decode, which may note what it read
                self._entries[key] = self._decode(record[self.field])
            except CacheError as exc:  # a whole record that conflicts with the file
                raise CacheError(f"{self.path}, line {i + 1}: {exc}") from None
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
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
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                if self._torn_at is not None:
                    os.truncate(self.path, self._torn_at)
                    self._torn_at = None
                self._handle = open(self.path, "a", encoding="utf-8", newline="\n")
                weakref.finalize(self, self._handle.close)
            self._handle.write(line + "\n")
            # a crash then tears at most the final line
            self._handle.flush()

    def key_for(self, text: str) -> str:
        return prompt_key(self.namespace, text)

    def get(self, text: str):
        """The value last recorded for text, or None."""
        return self._entries.get(self.key_for(text))

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._entries)


class ResponseCache(_JsonlStore):
    """Completion responses keyed by sha256(model_id, prompt).

    Records look like {"key": ..., "response": ...}; see _JsonlStore for the
    load and append rules.
    """

    field = "response"

    def __init__(self, path: str | Path, model_id: str = "default"):
        super().__init__(path, model_id)

    def _decode(self, value) -> str:
        if not isinstance(value, str):
            raise TypeError(f"response is {type(value).__name__}, not a string")
        if _LONE_SURROGATE.search(value):
            raise CacheError("response holds a lone surrogate, which is not text")
        return value

    def put(self, prompt: str, response: str) -> None:
        self._append(self.key_for(prompt), response, response)


class CachingBackend(CompletionBackend):
    """Answers from a ResponseCache, asking inner on a miss and recording its answer.

    retry() skips the cache read, asks inner again and overwrites the stored
    answer, so an unusable recorded answer cannot wedge a re-run. With no
    inner backend a miss raises BackendError and retry() reads the cache too.
    """

    def __init__(self, inner: CompletionBackend | None, cache: ResponseCache):
        self.inner = inner
        self.cache = cache

    def complete(self, prompt: str) -> str:
        response = self.cache.get(prompt)
        if response is not None:
            return response
        if self.inner is None:
            raise BackendError(
                f"no recorded response in {self.cache.path} "
                f"for prompt key {self.cache.key_for(prompt)[:12]}..."
            )
        response = self.inner.complete(prompt)
        self.cache.put(prompt, response)
        return response

    def retry(self, prompt: str) -> str:
        if self.inner is None:
            return self.complete(prompt)
        response = self.inner.retry(prompt)
        self.cache.put(prompt, response)
        return response


class ReplayBackend(CachingBackend):
    """Serves recorded responses from a ResponseCache; never hits the network."""

    def __init__(self, cache: ResponseCache):
        super().__init__(None, cache)


# whitespace, control and non-ASCII characters, which a URL or an API key sent
# as is in a request line or header must not hold
_UNSAFE = re.compile(r"[^\x21-\x7e]")
_MAX_LINE = 65536  # bytes in one status, header or chunk-size line of a reply
_MAX_HEADERS = 100  # header lines in one reply
_READ_PIECE = 1 << 20  # bytes asked of the socket at once, whatever length the reply claims


def _parse_url(url: str, schemes: tuple[str, ...]) -> urllib.parse.SplitResult:
    parts = urllib.parse.urlsplit(url)
    try:
        parts.port  # a malformed port raises here
    except ValueError as exc:
        raise BackendError(f"bad URL {url!r}: {exc}") from None
    if parts.scheme not in schemes or not parts.hostname:
        wanted = " or ".join(f"{scheme}://" for scheme in schemes)
        raise BackendError(f"bad URL {url!r}: expected {wanted} and a host")
    if _UNSAFE.search(parts.netloc + parts.path + parts.query):
        raise BackendError(f"bad URL {url!r}: whitespace, control or non-ASCII characters")
    if "#" in url:
        raise BackendError(f"bad URL {url!r}: a fragment is never sent")
    return parts


def _environment_proxies() -> dict[str, str]:
    """Proxy URLs by scheme ("no" holds NO_PROXY) from the environment, by urllib's rules.

    Variables named <scheme>_proxy in any case are read first; those whose
    name ends in lowercase "_proxy" then win, and an empty one unsets its
    scheme. Under CGI (REQUEST_METHOD set) a client can set HTTP_PROXY
    through a "Proxy:" request header, so only http_proxy counts there.
    """
    proxies = {}
    for name, value in os.environ.items():
        if value and name.lower().endswith("_proxy"):
            proxies[name[:-6].lower()] = value
    if "REQUEST_METHOD" in os.environ:
        proxies.pop("http", None)
    for name, value in os.environ.items():
        if name.endswith("_proxy"):
            proxies[name[:-6].lower()] = value
    return {scheme: proxy for scheme, proxy in proxies.items() if proxy}


def _bypasses_proxy(address: str, no_proxy: str) -> bool:
    """Whether NO_PROXY ("*" or comma-separated domain suffixes) covers host[:port]."""
    if no_proxy == "*":
        return True
    address = address.lower()
    host = re.sub(r":[0-9]*\Z", "", address)
    names = [name.strip().lstrip(".").lower() for name in no_proxy.split(",")]
    return any(
        name and (target == name or target.endswith(f".{name}"))
        for name in names
        for target in (host, address)
    )


def _proxy_authorization(proxy: urllib.parse.SplitResult) -> str:
    if proxy.username is None:
        return ""
    user = urllib.parse.unquote(proxy.username)
    password = urllib.parse.unquote(proxy.password or "")
    token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
    return f"Proxy-Authorization: Basic {token}\r\n"


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_exactly(reader, size: int) -> bytes:
    """size bytes, read _READ_PIECE at a time; ConnectionError if the reply ends first."""
    pieces = []
    left = size
    while left:
        piece = reader.read(min(left, _READ_PIECE))
        if not piece:
            raise ConnectionError(f"reply body ended after {size - left} of {size} bytes")
        pieces.append(piece)
        left -= len(piece)
    return b"".join(pieces)


def _read_headers(reader) -> dict[str, str]:
    """Header lines up to the blank line, by lowercased name; the last of a name wins."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"reply has more than {_MAX_HEADERS} header lines")


def _read_head(reader) -> tuple[int, str, dict[str, str], bool]:
    """Read the final reply's status line and headers, skipping 1xx interim replies.

    Returns the status, reason, headers and whether the server keeps the
    connection open. EOF before the status line raises ConnectionResetError:
    that is how a server that closed an idle keep-alive connection answers.
    """
    while True:
        line = _read_line(reader)
        if not line:
            raise ConnectionResetError("the server closed the connection without replying")
        version, status, reason = (line.decode("latin-1").split(None, 2) + ["", ""])[:3]
        if not (version.startswith("HTTP/") and len(status) == 3 and status.isdigit()):
            raise ValueError(f"malformed status line {line[:80]!r}")
        headers = _read_headers(reader)
        if status[0] != "1":
            tokens = headers.get("connection", "").lower()
            persistent = "close" not in tokens if version == "HTTP/1.1" else "keep-alive" in tokens
            return int(status), reason.strip(), headers, persistent


def _read_body(reader, status: int, headers: dict[str, str]) -> tuple[bytes, bool]:
    """Read the reply body; return it and whether it ended before the connection did.

    The body is framed by Transfer-Encoding: chunked, else by Content-Length,
    else by the server closing the connection.
    """
    if headers.get("transfer-encoding", "").lower().endswith("chunked"):
        chunks = []
        while size := int(_read_line(reader).partition(b";")[0], 16):  # drop extensions
            if size < 0:
                raise ValueError(f"negative chunk size {size}")
            chunks.append(_read_exactly(reader, size))
            _read_line(reader)  # the CRLF that ends the chunk
        _read_headers(reader)  # the trailer
        return b"".join(chunks), True
    if status in (204, 304):
        return b"", True
    length = headers.get("content-length")
    if length is None:
        return reader.read(), False
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"bad Content-Length {length!r}")
    return _read_exactly(reader, int(length)), True


class _Connection:
    """A socket to the server, or to the proxy in front of it, and a buffered reader of it."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _close_all(connections: list[_Connection]) -> None:
    for connection in connections:
        connection.close()


class _JsonClient:
    """POSTs JSON to one origin over a bounded pool of keep-alive HTTP/1.1 connections.

    Each request goes out in one write: the POST line, whose target is the
    base URL's path, the endpoint path and the base URL's query, then Host,
    Content-Type: application/json, Accept-Encoding: identity, User-Agent,
    Authorization (with a key), Proxy-Authorization (through a plain-HTTP
    proxy with credentials) and Content-Length headers, then the body.
    Replies are read from the socket: 1xx interim replies are skipped, and the
    body is framed by Transfer-Encoding: chunked, by Content-Length or by the
    server closing the connection. A connection goes back to the pool unless
    the server closed it or asked to.

    At most WORKERS connections are open at once and each serves one thread
    at a time; callers beyond that wait for a free one, so concurrent workers
    never hold more connections than there are workers (servers that serve
    one keep-alive connection per thread rely on it). Failed requests,
    5xx, 408 and 429 replies and replies that `parse` rejects are retried
    with linear backoff; any other 4xx reply raises BackendError at once. A
    pooled connection that the server dropped while it was idle is reopened
    at once, without a backoff sleep or a spent attempt.

    Proxies come from the HTTP_PROXY/HTTPS_PROXY/NO_PROXY environment
    variables only, resolved once; HTTPS goes through a CONNECT tunnel and
    verifies certificates against the system trust store (SSL_CERT_FILE
    overrides it). Redirects are not followed.
    """

    def __init__(self, base_url: str, api_key: str | None, *, what: str):
        url = _parse_url(base_url, ("http", "https"))
        self.what = what
        address = url.netloc.rpartition("@")[2]
        target = url.path.rstrip("/")
        headers = (
            f"Host: {address}\r\nContent-Type: application/json\r\n"
            f"Accept-Encoding: identity\r\nUser-Agent: lumberkit/{__version__}\r\n"
        )
        if api_key:
            if _UNSAFE.search(api_key):
                raise BackendError(
                    f"{API_KEY_ENV_VAR} holds whitespace, control or non-ASCII characters"
                )
            headers += f"Authorization: Bearer {api_key}\r\n"
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        self._tunnel = None
        proxies = _environment_proxies()
        proxy = proxies.get(url.scheme)
        if proxy and not _bypasses_proxy(address, proxies.get("no", "")):
            via = _parse_url(proxy if "://" in proxy else f"http://{proxy}", ("http",))
            if url.scheme == "https":
                origin = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
                self._tunnel = (
                    f"CONNECT {origin} HTTP/1.1\r\nHost: {origin}\r\n"
                    f"{_proxy_authorization(via)}\r\n"
                ).encode("ascii")
            else:
                # a plain-HTTP proxy takes the absolute URL as request target
                target = f"http://{address}{target}"
                headers += _proxy_authorization(via)
            host, port = via.hostname, via.port or 80
        # bytes, which _parse_url guarantees ASCII, so that getaddrinfo does not
        # load the idna codec (with stringprep and unicodedata) to encode a str
        self._address = (host.encode("ascii"), port)
        self._target = target.encode("ascii")
        self._query = (f"?{url.query}" if url.query else "").encode("ascii")
        self._headers = headers.encode("ascii")
        self._tls = self._server_name = None
        if url.scheme == "https":
            import ssl  # here, not at the top: it costs 1.3 MB that http:// runs never use

            self._tls = ssl.create_default_context()
            self._server_name = url.hostname
        self._idle: list[_Connection] = []  # LIFO: the warmest first
        self._slots = threading.BoundedSemaphore(WORKERS)
        weakref.finalize(self, _close_all, self._idle)

    def post(self, path: str, payload: dict, parse: Callable[[object], object]):
        """POST payload as JSON to path; return parse(decoded reply body)."""
        body = json.dumps(payload).encode("utf-8")
        request = b"POST %s%s%s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s" % (
            self._target,
            path.encode("ascii"),
            self._query,
            self._headers,
            len(body),
            body,
        )
        last_error: Exception | None = None
        attempts = HTTP_ATTEMPTS
        for attempt in range(attempts):
            if attempt:
                time.sleep(HTTP_RETRY_WAIT_S * attempt)
            try:
                return parse(self._exchange(request))
            except (OSError, KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
                last_error = exc
                logger.warning(
                    "%s request failed (attempt %d/%d): %s",
                    self.what,
                    attempt + 1,
                    attempts,
                    exc,
                )
        raise BackendError(
            f"{self.what} request failed after {attempts} attempts: {last_error}"
        )

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self._address, HTTP_TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                sock.sendall(self._tunnel)
                with sock.makefile("rb") as reader:
                    status, reason = _read_head(reader)[:2]
                if status != 200:
                    raise OSError(f"proxy refused the tunnel: HTTP {status} {reason}")
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._server_name)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _exchange(self, request: bytes):
        with self._slots:
            try:
                connection, reused = self._idle.pop(), True
            except IndexError:
                connection, reused = self._connect(), False
            try:
                while True:
                    try:
                        connection.sock.sendall(request)
                        status, reason, headers, persistent = _read_head(connection.reader)
                        break
                    except (ConnectionResetError, BrokenPipeError):
                        if not reused:
                            raise
                        # dropped while idle: the request never reached the
                        # server, so send it again on a new socket
                        connection.close()
                        connection, reused = self._connect(), False
                data, framed = _read_body(connection.reader, status, headers)
            except BaseException:
                connection.close()
                raise
            if persistent and framed:
                self._idle.append(connection)
            else:
                connection.close()
        if not 200 <= status < 300:
            text = f"HTTP {status} {reason}"
            if 400 <= status < 500 and status not in (408, 429):
                raise BackendError(f"{self.what} request refused: {text}")
            raise OSError(text)  # a transient status: post retries it
        return json.loads(data)


def _message_content(body) -> str:
    """choices[0].message.content, each lone surrogate escape in it replaced by U+FFFD.

    json.loads joins an escaped surrogate pair into one character, so what is
    left is a lone half, which no UTF-8 output or cache file can hold.
    Replacing it keeps an otherwise usable answer.
    """
    content = body["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"completion content is {type(content).__name__}, not a string")
    content, replaced = _LONE_SURROGATE.subn("\ufffd", content)
    if replaced:
        logger.warning("completion reply held %d lone surrogate(s); replaced by U+FFFD", replaced)
    return content


class HttpCompletionBackend(CompletionBackend):
    """Chat-completion client for OpenAI-compatible HTTP endpoints.

    Sends POST {base_url}/chat/completions with a single user message at
    temperature 0 and reads choices[0].message.content; see the README for
    the exact wire shape. Transient failures and replies without string
    content are retried with linear backoff before a BackendError is raised;
    an unusable base_url raises BackendError here.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
    ):
        self.model = model
        self._http = _JsonClient(base_url, api_key, what="completion")

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
        }
        return self._http.post("/chat/completions", payload, _message_content)


class EmbeddingBackend(ABC):
    """Batch text embedding contract; implementations return unit-norm rows."""

    backend_id: str = "embedding"
    dimension: int

    @abstractmethod
    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Return an array of shape (len(texts), dimension) with unit-norm rows."""


# numpy's SeedSequence entropy-pool hash (numpy/random/bit_generator.pyx) and
# PCG64 step multiplier (numpy/random/src/pcg64/pcg64.h), reproduced so that
# many seeds become PCG64 states without one default_rng construction each.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 1024  # seeds hashed at once, which bounds the temporaries of a large batch


def _hasher(hash_const: int, multiplier: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix over uint32 arrays; each call advances the shared constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    return hashmix


def _pcg64_states(seeds: np.ndarray) -> Iterator[dict]:
    """Yield the PCG64 state of np.random.default_rng(seed) for each uint64 seed.

    The pool hash runs vectorised over all seeds. A seed below 2**32 is one
    entropy word where larger seeds are two, but the pool pads missing words
    with zeros, so one path serves both.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(len(seeds), dtype=np.uint32)
    words = (seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zeros, zeros)
    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # generate_state(4, uint64): little-endian pairs of the eight uint32 words
    halves = [(state[2 * i] | state[2 * i + 1] << np.uint64(32)).tolist() for i in range(4)]
    for state_high, state_low, seq_high, seq_low in zip(*halves):
        # pcg64_set_seed: state 0, step, add the initial state, step
        inc = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
        value = ((inc + (state_high << 64 | state_low)) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": value, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _standard_normal_rows(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill out[i] with np.random.default_rng(seeds[i]).standard_normal(out.shape[1]), bit for bit."""
    bits = np.random.PCG64(0)
    normals = np.random.Generator(bits)
    for begin in range(0, len(seeds), _SEED_BLOCK):
        block = slice(begin, begin + _SEED_BLOCK)
        for row, state in zip(out[block], _pcg64_states(seeds[block])):
            bits.state = state
            normals.standard_normal(out=row)


_EMPTY_TOKEN = "\x00empty"  # direction of a text whose token vectors sum to zero
_SLICE_ROWS = 512  # token rows gathered per add.reduce


class MockEmbeddingBackend(EmbeddingBackend):
    """Deterministic offline embedder: seeded hash projection of the token multiset.

    Every lowercased whitespace token maps to a fixed pseudo-random direction,
    np.random.default_rng(blake2b-64("{seed}:{token}")).standard_normal(dimension);
    a text embeds as the normalized sum over its tokens, added left to right.
    Vectors are a pure function of the text, and one instance may be shared
    by threads. Word order is deliberately ignored, which is a documented
    limitation of the mock.
    """

    dimension = 64
    seed = 0
    backend_id = "mock:64:0"  # keys --embed-cache files

    def __init__(self):
        self._lock = threading.Lock()  # guards _rows, _table and its growth
        self._rows: dict[str, int] = {}  # token -> its row of _table
        self._table = np.empty((0, self.dimension), dtype=np.float64)

    def _add_tokens(self, tokens: list[str]) -> None:
        start = len(self._rows)
        needed = start + len(tokens)
        # realloc to the exact row count zero-fills no spare rows. It may copy: glibc
        # moves an mmapped block with mremap, but a heap block can be copied, which
        # holds the old and new table at once. No view of _table outlives an embed
        # call, so the reference check is not needed
        self._table.resize((needed, self.dimension), refcheck=False)
        digests = (
            hashlib.blake2b(f"{self.seed}:{token}".encode("utf-8"), digest_size=8).digest()
            for token in tokens
        )
        seeds = np.fromiter(
            (int.from_bytes(digest, "big") for digest in digests), dtype=np.uint64, count=len(tokens)
        )
        _standard_normal_rows(seeds, self._table[start:needed])
        self._rows.update(zip(tokens, range(start, needed)))

    def _index_tokens(self, texts: Sequence[str]) -> int:
        """Give every token of texts a row of the table; return the most tokens in one text."""
        known = self._rows.__contains__
        fresh = {} if known(_EMPTY_TOKEN) else {_EMPTY_TOKEN: None}
        longest = 0
        for text in texts:
            tokens = text.lower().split()
            longest = max(longest, len(tokens))
            fresh.update(zip(itertools.filterfalse(known, tokens), itertools.repeat(None)))
        if fresh:
            self._add_tokens(list(fresh))
        return longest

    def _fold(self, tokens: list[str], window: np.ndarray) -> np.ndarray:
        """Sum the tokens' rows left to right from 0.0, as `total = total + row` would.

        Rows are gathered a slice at a time behind row 0 of the window, which
        carries the running total, so no temporary grows with the text.
        """
        window[0] = 0.0
        for begin in range(0, len(tokens), _SLICE_ROWS):
            ids = [self._rows[token] for token in tokens[begin : begin + _SLICE_ROWS]]
            # ids are rows of the table, so "clip" never clips; it stops take from
            # staging the gather in a second buffer
            np.take(self._table, ids, axis=0, out=window[1 : len(ids) + 1], mode="clip")
            window[0] = np.add.reduce(window[: len(ids) + 1], axis=0)
        return window[0]

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = np.empty((len(texts), self.dimension), dtype=np.float64)
        with self._lock:
            longest = self._index_tokens(texts)
            window = np.empty((min(longest, _SLICE_ROWS) + 1, self.dimension))
            for i, text in enumerate(texts):
                total = self._fold(text.lower().split(), window)
                norm = float(np.linalg.norm(total))
                if norm < 1e-12:
                    total = self._table[self._rows[_EMPTY_TOKEN]]
                    norm = float(np.linalg.norm(total))
                rows[i] = total / norm
        return rows


def _finite_row(values) -> np.ndarray:
    """values as a float64 row; ValueError unless it is a non-empty list of finite JSON numbers."""
    if isinstance(values, list) and all(type(value) in (int, float) for value in values):
        if not values:
            raise ValueError("a vector is empty")
        with contextlib.suppress(OverflowError):  # an int beyond float range
            row = np.array(values, dtype=np.float64)
            if np.isfinite(row).all():
                return row
    raise ValueError("a vector entry is not a finite number")


class HttpEmbeddingBackend(EmbeddingBackend):
    """Embedding client for OpenAI-compatible HTTP endpoints.

    Sends POST {base_url}/embeddings with {"model": ..., "input": [...]} and
    reads data[i].embedding. A reply whose rows are not non-empty lists of
    finite numbers is retried; rows are re-normalized to unit norm on receipt.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
    ):
        self.model = model
        self.backend_id = f"http-embed:{model}"
        self.dimension = 0  # learned from the first response
        self._http = _JsonClient(base_url, api_key, what="embedding")

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        payload = {"model": self.model, "input": list(texts)}
        return self._http.post("/embeddings", payload, lambda body: self._rows(body, len(texts)))

    def _rows(self, body, count: int) -> np.ndarray:
        rows = np.array([_finite_row(item["embedding"]) for item in body["data"]])
        if rows.ndim != 2 or rows.shape[0] != count:
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


class EmbeddingCache(_JsonlStore):
    """JSONL sidecar of embedding vectors keyed by (backend id, text hash).

    Vectors are stored as JSON float lists, which round-trip float64 exactly;
    an empty vector, or an entry that is not a finite number, makes its record
    unreadable.
    Every vector in one file has the same length, `dimension` (None while the
    file is empty); a record or embedder of another length raises CacheError.
    The file is safe to delete at any time; it only saves backend calls.
    """

    field = "vector"

    def __init__(self, path: str | Path, backend_id: str):
        self.dimension: int | None = None
        super().__init__(path, backend_id)

    def _decode(self, value) -> np.ndarray:
        row = _finite_row(value)
        if self.dimension is None:
            self.dimension = len(row)
        elif len(row) != self.dimension:
            raise CacheError(
                f"vector has length {len(row)}, but earlier vectors have length {self.dimension}"
            )
        return row

    def require_dimension(self, dimension: int) -> None:
        """Raise CacheError unless this file's vectors have `dimension` entries.

        A file with no vectors yet takes the length of the first one put.
        """
        with self._lock:
            if self.dimension is None:
                self.dimension = dimension
        if dimension != self.dimension:
            raise CacheError(
                f"{self.path} holds vectors of length {self.dimension}, "
                f"but the embedder returns length {dimension}"
            )

    def put(self, text: str, vector: np.ndarray) -> None:
        row = np.asarray(vector, dtype=np.float64)
        self.require_dimension(len(row))
        self._append(self.key_for(text), row, row.tolist())


class CachingEmbedder(EmbeddingBackend):
    """Answers from an EmbeddingCache, sending every miss of a call to inner at once.

    Each fresh row is put back. A cache whose vectors differ in length from
    inner's raises CacheError naming the file: at construction when inner's
    dimension is known, otherwise at the first put.
    """

    def __init__(self, inner: EmbeddingBackend, cache: EmbeddingCache):
        self.inner = inner
        self.cache = cache
        self.backend_id = inner.backend_id
        if inner.dimension:
            cache.require_dimension(inner.dimension)

    @property
    def dimension(self) -> int:
        return self.inner.dimension or self.cache.dimension or 0

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        vectors = [self.cache.get(text) for text in texts]
        misses = list(dict.fromkeys(text for text, v in zip(texts, vectors) if v is None))
        if misses:
            fresh = dict(zip(misses, self.inner.embed(misses)))
            for text, row in fresh.items():
                self.cache.put(text, row)
            vectors = [fresh[text] if v is None else v for text, v in zip(texts, vectors)]
        return np.array(vectors, dtype=np.float64).reshape(len(texts), self.dimension)
