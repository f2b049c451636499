"""Tests for scripted/replay/HTTP backends, caches, and the mock embedder."""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import re
import socket
import socketserver
import ssl
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_document
from lumberkit import backends
from lumberkit.backends import (
    API_KEY_ENV_VAR,
    BackendError,
    CacheError,
    EmbeddingCache,
    HttpCompletionBackend,
    HttpEmbeddingBackend,
    MockEmbeddingBackend,
    ReplayBackend,
    ResponseCache,
    ScriptedBackend,
    _standard_normal_rows,
    prompt_key,
)
from lumberkit.cli import main
from lumberkit.corpus import utf8_lines, write_document
from lumberkit.parallel import WORKERS


def set_http(monkeypatch, **settings):
    """Set the HTTP clients' constants (HTTP_ATTEMPTS=2, ...) for one test."""
    for name, value in settings.items():
        monkeypatch.setattr(backends, name, value)


class _StubHandler(BaseHTTPRequestHandler):
    """Speaks the chat-completion and embedding wire shapes for tests."""

    fail_next: int = 0
    fail_status: int = 500
    raw_reply: bytes | None = None  # sent as a 200 body in place of JSON
    requests_seen: list = []

    def _record(self, payload):
        type(self).requests_seen.append(
            {
                "method": self.command,
                "path": self.path,
                "payload": payload,
                "auth": self.headers.get("Authorization"),
                "proxy_auth": self.headers.get("Proxy-Authorization"),
                "user_agent": self.headers.get("User-Agent"),
                "accept_encoding": self.headers.get("Accept-Encoding"),
            }
        )

    def do_CONNECT(self):
        self._record(None)
        self.send_response(502)
        self.end_headers()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        self._record(payload)
        if type(self).raw_reply is not None:
            self.send_response(200)
            self.send_header("Content-Length", str(len(type(self).raw_reply)))
            self.end_headers()
            self.wfile.write(type(self).raw_reply)
            return
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        path = self.path.partition("?")[0]  # route on the path, before any query
        if path.endswith("/chat/completions"):
            body = {
                "choices": [
                    {"message": {"content": f"echo:{payload['messages'][0]['content']}"}}
                ]
            }
        elif path.endswith("/embeddings"):
            body = {
                "data": [
                    {"embedding": [float(len(text)), 1.0, 2.0]} for text in payload["input"]
                ]
            }
        else:
            self.send_response(404)
            self.end_headers()
            return
        encoded = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, *args):
        pass


# A self-signed certificate for localhost and 127.0.0.1, made once with
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -days 36500 -subj /CN=localhost -addext "subjectAltName=DNS:localhost,IP:127.0.0.1" \
#     -keyout tests/tls/localhost.key -out tests/tls/localhost.pem
_CERTIFICATE = Path(__file__).parent / "tls" / "localhost.pem"


@pytest.fixture()
def stub_server(request):
    """The stub's base URL; parametrize indirectly with "https" to serve it over TLS."""
    scheme = getattr(request, "param", "http")
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    if scheme == "https":
        context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
        context.load_cert_chain(_CERTIFICATE, _CERTIFICATE.with_suffix(".key"))
        server.socket = context.wrap_socket(server.socket, server_side=True)
    # a short poll interval keeps shutdown() from waiting half a second per test
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _StubHandler.fail_next = 0
    _StubHandler.fail_status = 500
    _StubHandler.raw_reply = None
    _StubHandler.requests_seen = []
    yield f"{scheme}://{'localhost' if scheme == 'https' else '127.0.0.1'}:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestScriptedBackend:
    def test_mapping_lookup(self):
        backend = ScriptedBackend({"p1": "r1"})
        assert backend.complete("p1") == "r1"

    def test_missing_prompt_raises(self):
        with pytest.raises(BackendError):
            ScriptedBackend({}).complete("unknown")

    def test_callable_is_deterministic(self):
        backend = ScriptedBackend(lambda p: p.upper())
        assert backend.complete("abc") == backend.complete("abc") == "ABC"


class TestResponseCache:
    def test_put_get_and_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, model_id="m")
        assert cache.get("prompt") is None
        cache.put("prompt", "response ✓\nwith newline")
        assert cache.get("prompt") == "response ✓\nwith newline"
        reloaded = ResponseCache(path, model_id="m")
        assert reloaded.get("prompt") == "response ✓\nwith newline"

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, model_id="m")
        cache.put("p", "first")
        cache.put("p", "second")
        assert ResponseCache(path, model_id="m").get("p") == "second"

    def test_distinct_keys_from_two_writers(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer_a = ResponseCache(path, model_id="m")
        writer_b = ResponseCache(path, model_id="m")
        writer_a.put("pa", "ra")
        writer_b.put("pb", "rb")
        merged = ResponseCache(path, model_id="m")
        assert merged.get("pa") == "ra"
        assert merged.get("pb") == "rb"
        assert len(merged) == 2

    def test_puts_open_the_file_once(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr("lumberkit.backends.open", counting_open, raising=False)
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path, model_id="m") as cache:
            for i in range(100):
                cache.put(f"p{i}", f"r{i}")
                assert len(path.read_text(encoding="utf-8").splitlines()) == i + 1
        assert opened == [path]
        assert len(ResponseCache(path, model_id="m")) == 100

    def test_key_depends_on_model_id(self):
        assert prompt_key("m1", "p") != prompt_key("m2", "p")

    def test_both_stores_key_a_text_by_their_namespace(self, tmp_path):
        responses = ResponseCache(tmp_path / "r.jsonl", model_id="x")
        vectors = EmbeddingCache(tmp_path / "e.jsonl", "x")
        assert responses.key_for("t") == vectors.key_for("t") == prompt_key("x", "t")


class TestReplayBackend:
    def test_serves_recorded_response_byte_exactly(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        recording = ResponseCache(path, model_id="m")
        response = "Answer: ID 0007\n\ttrailing whitespace  "
        recording.put("the prompt", response)
        replay = ReplayBackend(ResponseCache(path, model_id="m"))
        assert replay.complete("the prompt") == response

    def test_miss_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResponseCache(path, model_id="m").put("known", "r")
        replay = ReplayBackend(ResponseCache(path, model_id="m"))
        with pytest.raises(BackendError, match=f"no recorded response in {re.escape(str(path))} "):
            replay.complete("unknown")


class TestHttpCompletionBackend:
    def test_round_trip(self, stub_server):
        backend = HttpCompletionBackend(stub_server, "test-model", api_key="sk-test")
        assert backend.complete("hello") == "echo:hello"
        request = _StubHandler.requests_seen[-1]
        assert request["payload"]["model"] == "test-model"
        assert request["payload"]["temperature"] == 0.0
        assert request["payload"]["messages"] == [{"role": "user", "content": "hello"}]
        assert request["auth"] == "Bearer sk-test"
        assert request["user_agent"] == "lumberkit/0.1.0"
        assert request["accept_encoding"] in (None, "identity")

    @pytest.mark.parametrize("make, endpoint", [
        (HttpCompletionBackend, "/chat/completions"), (HttpEmbeddingBackend, "/embeddings")
    ])
    def test_base_url_query_follows_the_endpoint_path(self, stub_server, make, endpoint):
        # Azure OpenAI picks its API version by query string
        backend = make(stub_server + "/openai/?api-version=2024-06-01&x=%2F", "m")
        if make is HttpCompletionBackend:
            assert backend.complete("hi") == "echo:hi"
        else:
            assert backend.embed(["hi"]).shape == (1, 3)
        path = _StubHandler.requests_seen[-1]["path"]
        assert path == f"/openai{endpoint}?api-version=2024-06-01&x=%2F"

    def test_retries_then_succeeds(self, stub_server, monkeypatch):
        _StubHandler.fail_next = 1
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpCompletionBackend(stub_server, "test-model")
        assert backend.complete("hi") == "echo:hi"

    def test_exhausted_retries_raise(self, stub_server, monkeypatch):
        _StubHandler.fail_next = 5
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpCompletionBackend(stub_server, "test-model")
        with pytest.raises(BackendError):
            backend.complete("hi")

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_permanent_client_error_is_not_retried(self, stub_server, monkeypatch, status):
        _StubHandler.fail_next, _StubHandler.fail_status = 5, status
        waits: list[float] = []
        monkeypatch.setattr(time, "sleep", waits.append)
        set_http(monkeypatch, HTTP_ATTEMPTS=3)
        backend = HttpCompletionBackend(stub_server, "m")
        with pytest.raises(BackendError, match=f"completion request refused: HTTP {status} "):
            backend.complete("hi")
        assert len(_StubHandler.requests_seen) == 1
        assert waits == []

    @pytest.mark.parametrize("status", [408, 429, 503])
    def test_transient_status_is_retried(self, stub_server, status, monkeypatch):
        _StubHandler.fail_next, _StubHandler.fail_status = 5, status
        set_http(monkeypatch, HTTP_ATTEMPTS=3, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpCompletionBackend(stub_server, "m")
        with pytest.raises(BackendError, match=f"after 3 attempts: HTTP {status} "):
            backend.complete("hi")
        assert len(_StubHandler.requests_seen) == 3

    @pytest.mark.parametrize("content", ["null", "7", '["a"]'])
    def test_non_string_content_is_retried_then_raises(self, stub_server, content, monkeypatch):
        reply = f'{{"choices": [{{"message": {{"content": {content}}}}}]}}'
        _StubHandler.raw_reply = reply.encode()
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpCompletionBackend(stub_server, "m")
        with pytest.raises(BackendError, match="after 2 attempts: completion content is"):
            backend.complete("hi")
        assert len(_StubHandler.requests_seen) == 2

    def test_null_content_ends_chunk_in_one_error_line(
        self, stub_server, tmp_path, monkeypatch, capsys
    ):
        _StubHandler.raw_reply = b'{"choices": [{"message": {"content": null}}]}'
        waits: list[float] = []
        monkeypatch.setattr(time, "sleep", waits.append)
        document = tmp_path / "book.jsonl"
        write_document(make_document([30] * 4, doc_id="book"), document)
        record = tmp_path / "record.jsonl"
        code = main(
            [
                "chunk", "--document", str(document), "--method", "lumber", "--theta", "60",
                "--backend-url", stub_server, "--model", "m", "--record-cache", str(record),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "completion content is NoneType, not a string" in errors[0]
        assert "re-run the same command to resume" not in errors[0]  # nothing was recorded
        assert "Traceback" not in err
        assert waits == [1.0, 2.0]  # three attempts with linear backoff
        assert not record.exists()

    def test_no_auth_header_without_key(self, stub_server):
        HttpCompletionBackend(stub_server, "test-model").complete("x")
        assert _StubHandler.requests_seen[-1]["auth"] is None

    @pytest.mark.parametrize("key", ["sk-secret123\n", "sk-secret\r\n123", "sk-secret\u2028123"])
    def test_key_that_breaks_a_header_is_refused_without_showing_it(
        self, stub_server, tmp_path, monkeypatch, capsys, caplog, key
    ):
        monkeypatch.setenv(API_KEY_ENV_VAR, key)
        document = tmp_path / "book.jsonl"
        write_document(make_document([30] * 4, doc_id="book"), document)
        with caplog.at_level(logging.DEBUG):
            code = main(
                [
                    "chunk", "--document", str(document), "--method", "lumber", "--theta", "60",
                    "--backend-url", stub_server, "--model", "m",
                    "--output-dir", str(tmp_path / "out"),
                ]
            )
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {API_KEY_ENV_VAR} holds whitespace, control or non-ASCII" in err
        assert "secret" not in err and "secret" not in caplog.text
        assert _StubHandler.requests_seen == []


class _ConnectionCountingHandler(BaseHTTPRequestHandler):
    """Keep-alive chat endpoint that records how many connections are open at once."""

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    open_now = 0
    most_open = 0
    opened = 0

    def setup(self):
        super().setup()
        cls = type(self)
        with cls.lock:
            cls.opened += 1
            cls.open_now += 1
            cls.most_open = max(cls.most_open, cls.open_now)

    def finish(self):
        cls = type(self)
        with cls.lock:
            cls.open_now -= 1
        super().finish()

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(0.01)
        body = json.dumps(
            {"choices": [{"message": {"content": payload["messages"][0]["content"]}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_default_session_opens_at_most_one_connection_per_worker(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ConnectionCountingHandler)
    server.daemon_threads = True
    _ConnectionCountingHandler.open_now = _ConnectionCountingHandler.most_open = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        set_http(monkeypatch, HTTP_ATTEMPTS=1, HTTP_TIMEOUT_S=10)
        backend = HttpCompletionBackend(f"http://127.0.0.1:{server.server_port}", "m")
        prompts = [f"p{i}" for i in range(12 * WORKERS)]
        # more callers than workers: the pool must make the extra ones wait
        with ThreadPoolExecutor(max_workers=4 * WORKERS) as callers:
            replies = list(callers.map(backend.complete, prompts))
        assert replies == prompts
        assert 1 <= _ConnectionCountingHandler.most_open <= WORKERS
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class _DroppingHandler(_ConnectionCountingHandler):
    """Replies as if keeping the connection alive, then closes it anyway."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


@pytest.fixture()
def keep_alive_server(request):
    handler = getattr(request, "param", _ConnectionCountingHandler)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    handler.opened = handler.open_now = handler.most_open = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestHttpConnections:
    def test_sequential_calls_reuse_one_connection(self, keep_alive_server, monkeypatch):
        set_http(monkeypatch, HTTP_ATTEMPTS=1, HTTP_TIMEOUT_S=10)
        backend = HttpCompletionBackend(keep_alive_server, "m")
        replies = [backend.complete(f"p{i}") for i in range(10)]
        assert replies == [f"p{i}" for i in range(10)]
        assert _ConnectionCountingHandler.opened == 1

    @pytest.mark.parametrize("keep_alive_server", [_DroppingHandler], indirect=True)
    def test_connection_dropped_while_idle_is_reopened_without_backoff(
        self, keep_alive_server, caplog, monkeypatch
    ):
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=30, HTTP_TIMEOUT_S=10)
        backend = HttpCompletionBackend(keep_alive_server, "m")
        replies = []
        # a backoff sleep (30 s) would outlast the join deadline
        caller = threading.Thread(
            target=lambda: replies.extend(backend.complete(f"p{i}") for i in range(5)),
            daemon=True,
        )
        with caplog.at_level(logging.WARNING, logger="lumberkit.backends"):
            caller.start()
            caller.join(timeout=10)
        assert not caller.is_alive()
        assert replies == [f"p{i}" for i in range(5)]
        assert _DroppingHandler.opened == 5
        assert "request failed" not in caplog.text


class _CannedReplyHandler(socketserver.StreamRequestHandler):
    """Answers every request on a connection with the server's reply bytes, as they are."""

    def handle(self):
        self.server.connections += 1
        while True:
            length = 0
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            if not line:
                return  # the client closed the connection
            self.rfile.read(length)
            self.wfile.write(self.server.reply)
            if self.server.close_after:
                return


@contextlib.contextmanager
def _canned_server(reply: bytes, close_after: bool = False):
    """Serve reply to every request, as _CannedReplyHandler does, until the block ends."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _CannedReplyHandler)
    server.daemon_threads, server.block_on_close = True, False
    server.reply, server.close_after, server.connections = reply, close_after, 0
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


_OK = b'{"choices": [{"message": {"content": "ok"}}]}'


def _length_reply(head: bytes, length: int = len(_OK)) -> bytes:
    return b"%sContent-Length: %d\r\n\r\n%s" % (head, length, _OK)


@pytest.mark.parametrize(
    "reply, close_after, calls, connections",
    [
        (_length_reply(b"HTTP/1.1 200 OK\r\n"), False, 2, 1),
        (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"a;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: done\r\n\r\n"
            % (_OK[:10], len(_OK) - 10, _OK[10:]),
            False,
            2,
            1,
        ),
        (b"HTTP/1.0 200 OK\r\n\r\n" + _OK, True, 2, 2),
        # the stub keeps the connection open: only the header says to drop it
        (_length_reply(b"HTTP/1.1 200 OK\r\nConnection: close\r\n"), False, 2, 2),
        (_length_reply(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"), False, 2, 1),
        (_length_reply(b"HTTP/1.1 200 OK\r\n", len(_OK) + 10), True, 0, 2),
        # lengths far beyond the body are read in bounded pieces, so the body ends early
        (_length_reply(b"HTTP/1.1 200 OK\r\n", 10**23 - 1), True, 0, 2),
        (_length_reply(b"HTTP/1.1 200 OK\r\n", 10**12), True, 0, 2),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s" % (10**23, _OK),
         True, 0, 2),
    ],
    ids=["content-length", "chunked", "http-1.0-until-close", "connection-close", "100-continue",
         "short-body", "overflowing-length", "terabyte-length", "overflowing-chunk-size"],
)
def test_reply_framing(reply, close_after, calls, connections, monkeypatch):
    """Each framing yields the body; `calls` 0 means every attempt fails."""
    with _canned_server(reply, close_after) as server:
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0, HTTP_TIMEOUT_S=10)
        backend = HttpCompletionBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        if calls:
            assert [backend.complete(f"p{i}") for i in range(calls)] == ["ok"] * calls
        else:
            with pytest.raises(BackendError, match="after 2 attempts: reply body ended after"):
                backend.complete("p")
        assert server.connections == connections
        del backend  # closes its idle connection, which ends the handler's read


@pytest.mark.parametrize(
    "reply, reason",
    [
        (_length_reply(b"HTTP/1.1 200 OK\r\nX-Long: %s\r\n" % (b"a" * 65536)),
         "reply line longer than 65536 bytes"),
        (_length_reply(b"HTTP/1.1 200 OK\r\n" + b"X-Many: a\r\n" * 101),
         "reply has more than 100 header lines"),
        (_length_reply(b"HTTP/1.1 2OO OK\r\n"), r"malformed status line b'HTTP/1.1 2OO OK\r\n'"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n%s\r\n0\r\n\r\n" % _OK,
         "negative chunk size -5"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 4x\r\n\r\n" + _OK, "bad Content-Length '4x'"),
        # no reply at all: the server closes each new connection; unlike an idle
        # connection's, the request is not sent again at once but left to the retries
        (b"", "the server closed the connection without replying"),
    ],
    ids=["long-line", "too-many-headers", "malformed-status", "negative-chunk-size",
         "non-numeric-length", "closed-before-reply"],
)
def test_unreadable_reply_is_retried_then_raises(reply, reason, monkeypatch):
    with _canned_server(reply, close_after=not reply) as server:
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0, HTTP_TIMEOUT_S=10)
        backend = HttpCompletionBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        with pytest.raises(BackendError) as info:
            backend.complete("p")
        assert str(info.value) == f"completion request failed after 2 attempts: {reason}"
        assert server.connections == 2  # each failed reply closes its connection
        del backend


def test_204_reply_is_read_without_a_body(monkeypatch):
    # the stub keeps the connection open, so reading a body until EOF would time out
    with _canned_server(b"HTTP/1.1 204 No Content\r\n\r\n") as server:
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0, HTTP_TIMEOUT_S=10)
        backend = HttpCompletionBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        with pytest.raises(BackendError, match="after 2 attempts: Expecting value"):
            backend.complete("p")
        assert server.connections == 1
        del backend


def _embedding_reply(*rows: list[float]) -> bytes:
    body = json.dumps({"data": [{"embedding": row} for row in rows]}).encode("utf-8")
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


def test_embedding_reply_with_the_wrong_row_count_is_retried_then_raises(monkeypatch):
    with _canned_server(_embedding_reply([1.0, 2.0])) as server:
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0, HTTP_TIMEOUT_S=10)
        backend = HttpEmbeddingBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        with pytest.raises(BackendError, match=r"attempts: unexpected embedding shape \(1, 2\)"):
            backend.embed(["a", "b"])
        del backend


def test_embedding_dimension_that_changes_between_replies_is_retried_then_raises(monkeypatch):
    with _canned_server(_embedding_reply([1.0, 2.0])) as server:
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0, HTTP_TIMEOUT_S=10)
        backend = HttpEmbeddingBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        assert backend.embed(["a"]).shape == (1, 2)
        server.reply = _embedding_reply([1.0, 2.0, 3.0])
        with pytest.raises(BackendError, match="attempts: embedding dimension changed from 2 to 3"):
            backend.embed(["a"])
        assert backend.dimension == 2
        del backend


def test_deeply_nested_reply_is_retried_then_raises(monkeypatch):
    body = b"[" * 100_000
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    with _canned_server(reply) as server:
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0, HTTP_TIMEOUT_S=10)
        backend = HttpCompletionBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        with pytest.raises(BackendError, match="after 2 attempts: maximum recursion depth"):
            backend.complete("p")
        del backend  # closes its idle connection, which ends the handler's read


class TestProxies:
    @pytest.fixture(autouse=True)
    def clean_proxy_environment(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "REQUEST_METHOD"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def test_http_goes_through_proxy_with_absolute_target(self, stub_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", stub_server.replace("http://", "http://u:p%40ss@"))
        set_http(monkeypatch, HTTP_ATTEMPTS=1)
        backend = HttpCompletionBackend("http://backend.invalid:8080/v1", "m")
        assert backend.complete("hi") == "echo:hi"
        request = _StubHandler.requests_seen[-1]
        assert request["path"] == "http://backend.invalid:8080/v1/chat/completions"
        assert request["proxy_auth"] == "Basic dTpwQHNz"  # base64 of "u:p@ss"

    def test_proxied_target_keeps_the_base_url_query(self, stub_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", stub_server)
        set_http(monkeypatch, HTTP_ATTEMPTS=1)
        backend = HttpEmbeddingBackend("http://backend.invalid/v1?api-version=1", "m")
        assert backend.embed(["hi"]).shape == (1, 3)
        path = _StubHandler.requests_seen[-1]["path"]
        assert path == "http://backend.invalid/v1/embeddings?api-version=1"

    @pytest.mark.parametrize("no_proxy", ["127.0.0.1", "*", "example.com, .0.0.1"])
    def test_no_proxy_bypasses_proxy(self, stub_server, monkeypatch, no_proxy):
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        monkeypatch.setenv("NO_PROXY", no_proxy)
        set_http(monkeypatch, HTTP_ATTEMPTS=1)
        backend = HttpCompletionBackend(stub_server + "/v1", "m")
        assert backend.complete("hi") == "echo:hi"
        assert _StubHandler.requests_seen[-1]["path"] == "/v1/chat/completions"

    def test_lowercase_variables_win(self, stub_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        monkeypatch.setenv("http_proxy", stub_server)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        monkeypatch.setenv("no_proxy", "")  # an empty lowercase variable unsets NO_PROXY
        set_http(monkeypatch, HTTP_ATTEMPTS=1)
        # nothing listens on port 9, so only the proxy can answer
        backend = HttpCompletionBackend("http://127.0.0.1:9/v1", "m")
        assert backend.complete("hi") == "echo:hi"
        assert _StubHandler.requests_seen[-1]["path"] == "http://127.0.0.1:9/v1/chat/completions"

    @pytest.mark.parametrize("name, proxied", [("HTTP_PROXY", False), ("http_proxy", True)])
    def test_cgi_request_ignores_uppercase_http_proxy(self, stub_server, monkeypatch, name, proxied):
        # under CGI a client's "Proxy:" request header arrives as HTTP_PROXY
        monkeypatch.setenv("REQUEST_METHOD", "POST")
        monkeypatch.setenv(name, stub_server)  # the stub is both proxy and origin
        set_http(monkeypatch, HTTP_ATTEMPTS=1)
        HttpCompletionBackend(stub_server + "/v1", "m").complete("hi")
        path = _StubHandler.requests_seen[-1]["path"]
        assert path == (stub_server if proxied else "") + "/v1/chat/completions"

    def test_https_goes_through_connect_tunnel(self, stub_server, monkeypatch):
        monkeypatch.setenv("HTTPS_PROXY", stub_server)
        set_http(monkeypatch, HTTP_ATTEMPTS=1, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpCompletionBackend("https://backend.invalid/v1", "m")
        with pytest.raises(BackendError, match="502"):
            backend.complete("hi")
        request = _StubHandler.requests_seen[-1]
        assert (request["method"], request["path"]) == ("CONNECT", "backend.invalid:443")


@pytest.mark.parametrize("stub_server", ["https"], indirect=True)
class TestTls:
    def test_round_trip_trusts_ssl_cert_file(self, stub_server, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(_CERTIFICATE))
        backend = HttpCompletionBackend(stub_server + "/v1", "m", api_key="sk-test")
        assert backend.complete("hi") == "echo:hi"
        request = _StubHandler.requests_seen[-1]
        assert (request["path"], request["auth"]) == ("/v1/chat/completions", "Bearer sk-test")

    def test_unknown_certificate_fails_verification(self, stub_server, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        set_http(monkeypatch, HTTP_ATTEMPTS=1)
        backend = HttpCompletionBackend(stub_server, "m")
        with pytest.raises(BackendError, match="after 1 attempts: .*CERTIFICATE_VERIFY_FAILED"):
            backend.complete("hi")
        assert _StubHandler.requests_seen == []


class TestHttpFailures:
    def test_read_timeout_raises_after_max_attempts(self, caplog, monkeypatch):
        # the kernel completes each connect from the listen backlog, but
        # nothing ever reads the request or replies
        with socket.create_server(("127.0.0.1", 0), backlog=8) as silent:
            set_http(monkeypatch, HTTP_TIMEOUT_S=0.2, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
            backend = HttpCompletionBackend(f"http://127.0.0.1:{silent.getsockname()[1]}", "m")
            with caplog.at_level(logging.WARNING, logger="lumberkit.backends"):
                with pytest.raises(BackendError, match="after 2 attempts.*timed out"):
                    backend.complete("hi")
        assert caplog.text.count("timed out") == 2

    @pytest.mark.parametrize("make", [HttpCompletionBackend, HttpEmbeddingBackend])
    def test_non_json_reply_raises(self, stub_server, make, monkeypatch):
        _StubHandler.raw_reply = b"<html>gateway says hello</html>"
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
        backend = make(stub_server, "m")
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.embed(["x"]) if make is HttpEmbeddingBackend else backend.complete("x")
        assert len(_StubHandler.requests_seen) == 2

    @pytest.mark.parametrize("make", [HttpCompletionBackend, HttpEmbeddingBackend])
    @pytest.mark.parametrize(
        "url",
        [
            "ftp://x", "http://", "http://host:port", "http://host/v 1", "http://host/v1\x00",
            "http://hôst/v1", "http://host/v1?v=a b", "http://host/v1?v=ä", "http://host/v1#top",
            "http://host/v1?v=1#",
        ],
    )
    def test_unusable_url_raises_at_construction(self, make, url):
        with pytest.raises(BackendError, match="bad URL"):
            make(url, "m")


class TestHttpEmbeddingBackend:
    def test_rows_are_normalized(self, stub_server):
        backend = HttpEmbeddingBackend(stub_server, "embed-model")
        rows = backend.embed(["abc", "longer text"])
        assert rows.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9)
        assert backend.dimension == 3

    def test_failure_raises(self, stub_server, monkeypatch):
        _StubHandler.fail_next = 5
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpEmbeddingBackend(stub_server, "embed-model")
        with pytest.raises(BackendError):
            backend.embed(["x"])


class TestMockEmbeddingBackend:
    def test_unit_norm_and_dimension(self):
        backend = MockEmbeddingBackend()
        rows = backend.embed(["alpha beta", "gamma", ""])
        assert rows.shape == (3, 64)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-6)

    def test_identical_text_bitwise_identical(self):
        backend = MockEmbeddingBackend()
        a = backend.embed(["some exact text"])
        b = backend.embed(["some exact text"])
        assert a.tobytes() == b.tobytes()
        fresh = MockEmbeddingBackend()
        assert fresh.embed(["some exact text"]).tobytes() == a.tobytes()

    def test_word_order_ignored(self):
        backend = MockEmbeddingBackend()
        ab = backend.embed(["alpha beta"])
        ba = backend.embed(["beta alpha"])
        assert ab.tobytes() == ba.tobytes()

    def test_shared_vocabulary_raises_similarity(self):
        backend = MockEmbeddingBackend()
        rows = backend.embed(["cats chase mice", "cats chase birds", "quantum flux theorem"])
        similar = float(rows[0] @ rows[1])
        dissimilar = float(rows[0] @ rows[2])
        assert similar > dissimilar

    def test_fixed_settings_key_embed_cache_files(self):
        backend = MockEmbeddingBackend()
        assert (backend.dimension, backend.seed) == (64, 0)
        # the id that keys --embed-cache files written before the settings were fixed
        assert backend.backend_id == f"mock:{backend.dimension}:{backend.seed}" == "mock:64:0"
        with pytest.raises(TypeError):
            MockEmbeddingBackend(dimension=48)


def token_seed(seed: int, token: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def reference_embed(texts: list[str], dimension: int, seed: int) -> np.ndarray:
    """The mock embedder as one default_rng per token and a Python fold: the bit-exact reference."""
    vectors: dict[str, np.ndarray] = {}

    def token_vector(token: str) -> np.ndarray:
        if token not in vectors:
            rng = np.random.default_rng(token_seed(seed, token))
            vectors[token] = rng.standard_normal(dimension)
        return vectors[token]

    rows = np.empty((len(texts), dimension), dtype=np.float64)
    for i, text in enumerate(texts):
        total = np.zeros(dimension, dtype=np.float64)
        for token in text.lower().split():
            total = total + token_vector(token)
        norm = float(np.linalg.norm(total))
        if norm < 1e-12:
            total = token_vector("\x00empty")
            norm = float(np.linalg.norm(total))
        rows[i] = total / norm
    return rows


# seeds over the whole uint64 range, weighted near 2**32, where entropy goes
# from one 32-bit word to two
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]),
    st.integers(2**32 - 4096, 2**32 + 4096),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64 - 1),
)
# 2,000 tokens: more than one fold slice, and more fresh tokens than one seed block
LONG_TEXT = " ".join(f"w{i % 1500}" for i in range(2000))
WORDS = ["alpha", "Alpha", "BETA", "İstanbul", "ǅemal", "ΣΊΣΥΦΟΣ", "Straße", "ﬁne", "x", "x"]
TEXTS = st.one_of(
    st.sampled_from(["", " ", " \t\n\u2003 ", LONG_TEXT]),
    st.lists(st.sampled_from(WORDS), max_size=30).map(" ".join),
    st.text(max_size=40),
)


class TestMockEmbeddingKernel:
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=40), dimension=st.sampled_from([2, 3, 64, 65, 257]))
    @settings(max_examples=100, deadline=None)
    def test_token_rows_equal_default_rng(self, seeds, dimension):
        out = np.empty((len(seeds), dimension), dtype=np.float64)
        _standard_normal_rows(np.array(seeds, dtype=np.uint64), out)
        for seed, row in zip(seeds, out):
            expected = np.random.default_rng(seed).standard_normal(dimension)
            assert row.tobytes() == expected.tobytes(), seed

    @given(batches=st.lists(st.lists(TEXTS, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_embed_equals_reference_fold(self, batches):
        backend = MockEmbeddingBackend()
        for texts in batches:
            assert backend.embed(texts).tobytes() == reference_embed(texts, 64, 0).tobytes()
        everything = [text for texts in reversed(batches) for text in reversed(texts)]
        assert backend.embed(everything).tobytes() == reference_embed(everything, 64, 0).tobytes()

    def test_threads_sharing_one_embedder_get_sequential_bytes(self):
        texts = [" ".join(f"t{(i * 7 + j) % 900}" for j in range(i % 60)) for i in range(240)]
        batches = [texts[begin : begin + 5] for begin in range(0, len(texts), 5)]
        sequential = [MockEmbeddingBackend().embed(batch).tobytes() for batch in batches]
        shared = MockEmbeddingBackend()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                concurrent = list(pool.map(lambda batch: shared.embed(batch).tobytes(), batches))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential

    def test_fresh_tokens_construct_no_generator_each(self, monkeypatch):
        constructed = {"default_rng": 0, "PCG64": 0}

        def counting(name, make):
            def construct(*args, **kwargs):
                constructed[name] += 1
                return make(*args, **kwargs)

            return construct

        for name in constructed:
            monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
        tokens = [f"fresh{i}" for i in range(1000)]
        rows = MockEmbeddingBackend().embed([" ".join(tokens[:400]), " ".join(tokens[400:])])
        assert rows.shape == (2, 64)
        below_two_words = sum(token_seed(0, token) < 2**32 for token in tokens)
        assert constructed["default_rng"] <= below_two_words
        assert constructed["PCG64"] <= 1

    def test_long_text_folds_in_bounded_memory(self):
        text = " ".join(f"w{i % 500}" for i in range(20_000))
        backend = MockEmbeddingBackend()
        backend.embed([text])  # the table of 500 rows is not what is measured
        tracemalloc.start()
        try:
            row = backend.embed([text])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # gathering all 20,000 rows at once would take 10 MB
        assert peak < 2_000_000
        assert row.tobytes() == reference_embed([text], 64, 0).tobytes()


class TestEmbeddingCache:
    def test_round_trip_exact(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "emb.jsonl", backend_id="mock")
        vector = np.array([0.1, -2.5, 1e-17, 3.0])
        cache.put("text", vector)
        np.testing.assert_array_equal(cache.get("text"), vector)
        reloaded = EmbeddingCache(tmp_path / "emb.jsonl", backend_id="mock")
        np.testing.assert_array_equal(reloaded.get("text"), vector)

    def test_keys_scoped_by_backend_id(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "emb.jsonl", backend_id="one")
        cache.put("text", np.ones(3))
        other = EmbeddingCache(tmp_path / "emb.jsonl", backend_id="two")
        assert other.get("text") is None


    def test_vectors_of_another_length_are_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        cache = EmbeddingCache(path, backend_id="b")
        cache.put("a", np.ones(3))
        with pytest.raises(
            CacheError, match=r"emb\.jsonl holds vectors of length 3, but the embedder returns length 2"
        ):
            cache.put("b", np.ones(2))
        cache.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": "c", "vector": [1.0, 2.0]}) + "\n")
        # a complete final record of another length is not mistaken for a torn one
        with pytest.raises(CacheError, match=r"emb\.jsonl, line 2: vector has length 2, but"):
            EmbeddingCache(path, backend_id="b")


CACHE_KINDS = [
    pytest.param(lambda path: ResponseCache(path, model_id="m"), "response", id="response"),
    pytest.param(lambda path: EmbeddingCache(path, backend_id="b"), [0.5, 1.5], id="embedding"),
]


# vector entries that are not finite JSON numbers, as JSON text
BAD_VECTOR_ENTRIES = {
    "numeric-string": '"1.5"',
    "true": "true",
    "false": "false",
    "null": "null",
    "nan": "NaN",
    "infinity": "-Infinity",
    "float-overflow": "1e999",
    "int-overflow": "1" + "0" * 400,
    "nested": "[1.0]",
}


class TestNonFiniteVectors:
    @pytest.mark.parametrize("entry", BAD_VECTOR_ENTRIES.values(), ids=BAD_VECTOR_ENTRIES)
    def test_cache_line_before_the_last_names_file_and_line(self, tmp_path, entry):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            f'{{"key": "a", "vector": [0.5, {entry}]}}\n{{"key": "b", "vector": [0.5, 1.5]}}\n',
            encoding="utf-8",
        )
        with pytest.raises(CacheError, match=r"emb\.jsonl, line 1: unreadable record"):
            EmbeddingCache(path, backend_id="b")

    @pytest.mark.parametrize("entry", BAD_VECTOR_ENTRIES.values(), ids=BAD_VECTOR_ENTRIES)
    def test_cache_final_line_is_skipped_as_torn(self, tmp_path, entry, caplog):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            f'{{"key": "a", "vector": [0.5, 1.5]}}\n{{"key": "b", "vector": [0.5, {entry}]}}\n',
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="lumberkit.backends"):
            cache = EmbeddingCache(path, backend_id="b")
        assert "line 2: skipping torn final record" in caplog.text
        assert len(cache) == 1
        cache.put("c", np.ones(2))
        cache.close()
        assert len(EmbeddingCache(path, backend_id="b")) == 2

    @pytest.mark.parametrize("entry", BAD_VECTOR_ENTRIES.values(), ids=BAD_VECTOR_ENTRIES)
    def test_http_reply_is_retried_then_raises(self, stub_server, entry, monkeypatch):
        _StubHandler.raw_reply = f'{{"data": [{{"embedding": [0.5, {entry}]}}]}}'.encode()
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpEmbeddingBackend(stub_server, "m")
        with pytest.raises(BackendError, match="after 2 attempts: a vector entry is not a finite"):
            backend.embed(["x"])
        assert len(_StubHandler.requests_seen) == 2
        assert backend.dimension == 0


class TestEmptyVectors:
    def test_cache_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"key": "a", "vector": []}\n{"key": "b", "vector": [0.5, 1.5]}\n', encoding="utf-8"
        )
        with pytest.raises(CacheError, match=r"emb\.jsonl, line 1: unreadable record: .*empty"):
            EmbeddingCache(path, backend_id="b")

    def test_http_reply_is_retried_then_raises(self, stub_server, monkeypatch):
        _StubHandler.raw_reply = b'{"data": [{"embedding": []}, {"embedding": []}]}'
        set_http(monkeypatch, HTTP_ATTEMPTS=2, HTTP_RETRY_WAIT_S=0.0)
        backend = HttpEmbeddingBackend(stub_server, "m")
        with pytest.raises(BackendError, match="after 2 attempts: a vector is empty"):
            backend.embed(["a", "b"])
        assert len(_StubHandler.requests_seen) == 2
        assert backend.dimension == 0


class TestCacheFileDamage:
    @pytest.mark.parametrize(
        "bad",
        ['{"key": "abc", "oops"', "[" * 100_000, '{"key": 1' + "0" * 5000 + "}"],
        ids=["truncated", "deep-nesting", "long-int"],
    )
    @pytest.mark.parametrize("make, value", CACHE_KINDS)
    def test_bad_middle_line_names_file_and_line(self, tmp_path, make, value, bad):
        path = tmp_path / "cache.jsonl"
        make(path).put("first", value)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
            fh.write(path.read_text(encoding="utf-8").splitlines()[0] + "\n")
        with pytest.raises(CacheError, match=r"cache\.jsonl, line 2"):
            make(path)

    @pytest.mark.parametrize("make, value", CACHE_KINDS)
    def test_blank_lines_are_skipped(self, tmp_path, make, value):
        path = tmp_path / "cache.jsonl"
        with make(path) as cache:
            cache.put("first", value)
            cache.put("second", value)
        first, second = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"\n{first}\n \t\n\n{second}\n\n", encoding="utf-8")
        reloaded = make(path)
        assert len(reloaded) == 2
        np.testing.assert_array_equal(reloaded.get("second"), value)

    @pytest.mark.parametrize("make, value", CACHE_KINDS)
    def test_torn_final_line_is_skipped_and_cut_on_resume(self, tmp_path, make, value, caplog):
        path = tmp_path / "cache.jsonl"
        make(path).put("first", value)
        intact = path.read_bytes()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "9f2c", "resp')  # a crash mid-append
        with caplog.at_level(logging.WARNING, logger="lumberkit.backends"):
            resumed = make(path)
        assert "line 2" in caplog.text
        assert len(resumed) == 1
        assert resumed.get("first") is not None
        resumed.put("second", value)
        assert path.read_bytes().startswith(intact)
        reloaded = make(path)
        assert len(reloaded) == 2
        np.testing.assert_array_equal(reloaded.get("second"), value)

    @pytest.mark.parametrize("make, value", CACHE_KINDS)
    def test_records_ending_in_a_bare_cr_all_load_and_a_put_appends(self, tmp_path, make, value):
        path = tmp_path / "cache.jsonl"
        with make(path) as cache:
            cache.put("first", value)
            cache.put("second", value)
        cr_ended = path.read_bytes().replace(b"\n", b"\r")
        path.write_bytes(cr_ended)
        with make(path) as resumed:
            assert len(resumed) == 2
            resumed.put("third", value)
        assert path.read_bytes().startswith(cr_ended)
        reloaded = make(path)
        assert len(reloaded) == 3
        np.testing.assert_array_equal(reloaded.get("first"), value)

    @pytest.mark.parametrize("make, value", CACHE_KINDS)
    def test_a_final_record_without_a_line_end_gets_one_before_a_put(self, tmp_path, make, value):
        path = tmp_path / "cache.jsonl"
        with make(path) as cache:
            cache.put("first", value)
            cache.put("second", value)
        unended = path.read_bytes().removesuffix(b"\n")
        path.write_bytes(unended)
        with make(path) as resumed:
            assert len(resumed) == 2
            resumed.put("third", value)
        assert path.read_bytes().startswith(unended + b"\n")
        reloaded = make(path)
        assert len(reloaded) == 3
        for text in ("first", "second", "third"):
            np.testing.assert_array_equal(reloaded.get(text), value)
        # a torn final record, which has no line end either, is still cut off
        intact = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b'{"key": "9f2c", "resp')
        with make(path) as resumed:
            assert len(resumed) == 3
            resumed.put("fourth", value)
        appended = path.read_bytes().removeprefix(intact)
        assert appended.count(b"\n") == 1 and appended.endswith(b"\n") and b"9f2c" not in appended
        assert len(make(path)) == 4

    @given(
        values=st.lists(st.text(alphabet="ab \u2028\u0085\x0b\x0c", max_size=6), max_size=5),
        ends=st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=5, max_size=5),
        torn_end=st.sampled_from(["", "\n", "\r", "\r\n"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_cache_lines_end_where_input_lines_do(self, values, ends, torn_end):
        """Both readers end a line at "\\n", "\\r" or "\\r\\n" only, so U+2028,
        U+0085, "\\x0b" and "\\x0c" stay inside their record."""
        records = [
            json.dumps({"key": prompt_key("m", f"prompt {i}"), "response": value},
                       ensure_ascii=False)
            for i, value in enumerate(values)
        ]
        # a crash tore the final record, which holds raw the "\x0b" and "\x0c"
        # that json.dumps would escape
        lines = [record + end for record, end in zip(records, ends)]
        lines.append('{"key": "torn \x0b\x0c\u2028\u0085' + torn_end)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            path.write_bytes("".join(lines).encode("utf-8"))
            assert [line for _n, line in utf8_lines(path)] == lines
            with ResponseCache(path, model_id="m") as cache:
                assert [cache.get(f"prompt {i}") for i in range(len(values))] == values
                assert len(cache) == len(values)
                cache.put("next", "reply")
            # the put cut the torn record off at the first byte of its line
            appended = json.dumps({"key": prompt_key("m", "next"), "response": "reply"}) + "\n"
            assert [line for _n, line in utf8_lines(path)] == lines[:-1] + [appended]

    def test_lone_surrogate_response_is_rejected_even_on_the_final_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": "a", "response": "x"}\n{"key": "b", "response": "\\ud83d"}\n')
        with pytest.raises(CacheError, match=r"cache\.jsonl, line 2: response holds a lone"):
            ResponseCache(path)

    def test_non_string_response_is_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": "a", "response": 7}\n{"key": "b", "response": "x"}\n')
        with pytest.raises(CacheError, match="line 1"):
            ResponseCache(path)
