"""Simulated OpenAI-compatible chat-completion endpoint.

Run as a child process:

    python3 perfbench/endpoint.py --seed N [--qa FILE]

It binds 127.0.0.1 on a free port, prints the port on its first stdout line
and serves POST /v1/chat/completions until terminated, with at most one
connection per CPU served at once. Each request sleeps 2 ms + 1 us per prompt
token before it answers, the prompt tokens being counted here as
(4*words+2)//3.

Replies are a pure function of (seed, prompt) plus one bit of state, whether
a prompt was seen before (see Replier). POST /_bench/reset clears that state
and the counters; GET /_bench/stats returns the counters and the service time
of every request since the last reset, in arrival order.

Replier is also used in-process, without HTTP, to record response caches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

BASE_LATENCY_S = 0.002
PER_TOKEN_LATENCY_S = 1e-6

SPLIT_HEADER = "You will receive as input an English document with paragraphs identified by"
RERANK_HEADER = "Order the numbered documents below by decreasing relevance"
ANSWER_HEADER = "Answer the question using only the passages below."

_SPLIT_ID_RE = re.compile(r"^ID (\d+): ", re.MULTILINE)
_RERANK_ITEM_RE = re.compile(r"^\[(\d+)\] ", re.MULTILINE)


def prompt_tokens(text: str) -> int:
    return (4 * len(text.split()) + 2) // 3


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


class Replier:
    """Deterministic replies to the split, rerank and answer prompts.

    - Split prompts: 'Answer: ID n' with n in the middle third of
      (first, last], drawn from a hash of (seed, prompt). About 10% of
      prompts get garbage on their first request only, which exercises the
      chunker's refresh-on-retry path; about 2% always get garbage, which
      drives its fallback.
    - Rerank prompts: a permutation drawn from the same hash; about 5% get a
      reply with no numbers in it.
    - Answer prompts: the gold answer when the question's gold passage is
      among the passages, otherwise a refusal.
    - Anything else: None, which the server turns into an HTTP error.
    """

    def __init__(self, seed: int, qa_path: str | None = None):
        self.seed = seed
        self.gold: dict[str, tuple[str, str]] = {}
        if qa_path:
            with open(qa_path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    self.gold[record["question"]] = (
                        _normalize(record["supporting_passage"]),
                        record["answer"],
                    )
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self._seen.clear()

    def _hash(self, prompt: str) -> tuple[bytes, int]:
        digest = hashlib.sha256(f"{self.seed}\x00{prompt}".encode("utf-8")).digest()
        return digest, int.from_bytes(digest[:8], "big")

    def reply(self, prompt: str) -> str | None:
        if prompt.startswith(SPLIT_HEADER):
            return self._split(prompt)
        if prompt.startswith(RERANK_HEADER):
            return self._rerank(prompt)
        if prompt.startswith(ANSWER_HEADER):
            return self._answer(prompt)
        return None

    def _split(self, prompt: str) -> str:
        digest, value = self._hash(prompt)
        ids = [int(m) for m in _SPLIT_ID_RE.findall(prompt)]
        with self._lock:
            first_request = digest not in self._seen
            self._seen.add(digest)
        bucket = value % 100
        if len(ids) < 2 or bucket < 2 or (bucket < 12 and first_request):
            return "There is no clear shift in this document."
        # the middle third of (first, last]: a narrow spread of chunk sizes
        # keeps the call count, and so the run time, close across seeds
        margin = (ids[-1] - ids[0] - 1) // 3
        low, high = ids[0] + 1 + margin, ids[-1] - margin
        choice = low + (value >> 8) % (high - low + 1)
        return f"Answer: ID {choice:04d}"

    def _rerank(self, prompt: str) -> str:
        _digest, value = self._hash(prompt)
        count = len(_RERANK_ITEM_RE.findall(prompt))
        if value % 100 < 5:
            return "These documents all look equally relevant."
        order = list(range(1, count + 1))
        random.Random(value).shuffle(order)
        return ", ".join(str(i) for i in order)

    def _answer(self, prompt: str) -> str | None:
        head, sep, tail = prompt.rpartition("\nQuestion: ")
        if not sep:
            return None
        question = tail.rsplit("\nAnswer:", 1)[0]
        gold = self.gold.get(question)
        if gold is None:
            return None
        passage, answer = gold
        if passage in _normalize(head):
            return answer
        return "The passages do not contain the answer."


class _Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.prompt_tokens = 0
        self.errors = 0
        self.service_ms: list[float] = []


class _Server(HTTPServer):
    """HTTP server handing each connection to a bounded thread pool."""

    def __init__(self, address, replier: Replier, threads: int):
        super().__init__(address, _Handler)
        self.replier = replier
        self.stats = _Stats()
        self.pool = ThreadPoolExecutor(max_workers=threads)

    def process_request(self, request, client_address):
        self.pool.submit(self._serve_connection, request, client_address)

    def _serve_connection(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _Server

    def log_message(self, format, *args):  # noqa: A002 - keep stderr quiet
        pass

    def _send(self, status: int, body: dict) -> None:
        # Headers and body go out in one write: split writes meet Nagle's
        # algorithm and delayed ACKs and stall each call by tens of ms.
        data = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + data)

    def _body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length") or 0))

    def do_GET(self):
        if self.path != "/_bench/stats":
            self._send(404, {"error": "not found"})
            return
        stats = self.server.stats
        with stats.lock:
            body = {
                "requests": stats.requests,
                "prompt_tokens": stats.prompt_tokens,
                "errors": stats.errors,
                "service_ms": list(stats.service_ms),
            }
        self._send(200, body)

    def do_POST(self):
        raw = self._body()
        if self.path == "/_bench/reset":
            with self.server.stats.lock:
                self.server.stats.reset()
            self.server.replier.reset()
            self._send(200, {"ok": True})
            return
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        started = time.perf_counter()
        try:
            payload = json.loads(raw)
            prompt = payload["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            prompt = None
        tokens = prompt_tokens(prompt) if isinstance(prompt, str) else 0
        text = self.server.replier.reply(prompt) if isinstance(prompt, str) else None
        time.sleep(BASE_LATENCY_S + PER_TOKEN_LATENCY_S * tokens)
        service_ms = (time.perf_counter() - started) * 1000.0
        stats = self.server.stats
        with stats.lock:
            stats.requests += 1
            stats.prompt_tokens += tokens
            stats.service_ms.append(service_ms)
            if text is None:
                stats.errors += 1
        if text is None:
            self._send(400, {"error": {"message": "unrecognized prompt"}})
            return
        self._send(
            200,
            {
                "object": "chat.completion",
                "model": payload.get("model"),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {"prompt_tokens": tokens},
            },
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--qa", help="QA records whose gold answers the endpoint knows")
    args = parser.parse_args(argv)
    server = _Server(("127.0.0.1", 0), Replier(args.seed, args.qa), os.cpu_count() or 1)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.pool.shutdown(wait=False, cancel_futures=True)
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
