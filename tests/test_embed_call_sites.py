"""Every embedding request goes through index.embed_texts or CachingEmbedder.embed,
and only the commands that overlap backend waits start a worker pool."""

from __future__ import annotations

import ast
from pathlib import Path

import lumberkit

SRC = Path(lumberkit.__file__).resolve().parent


class _Sites(ast.NodeVisitor):
    """Records the enclosing module.Class.function of every `.embed(` call,
    every read of EMBED_BATCH and every call of ordered_map or stream_map."""

    def __init__(self):
        self.scope: list[str] = []
        self.embed_calls: set[str] = set()
        self.batch_reads: set[str] = set()
        self.pool_calls: set[str] = set()

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "embed":
            self.embed_calls.add(".".join(self.scope))
        called = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        if called in ("ordered_map", "stream_map"):
            self.pool_calls.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "EMBED_BATCH" and isinstance(node.ctx, ast.Load):
            self.batch_reads.add(".".join(self.scope))


def _sites() -> _Sites:
    sites = _Sites()
    for path in sorted(SRC.glob("*.py")):
        sites.scope = [path.stem]
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
    return sites


def test_only_embed_texts_and_the_caching_embedder_call_embed():
    assert _sites().embed_calls == {"index.embed_texts", "backends.CachingEmbedder.embed"}


def test_only_embed_texts_reads_the_batch_size():
    assert _sites().batch_reads == {"index.embed_texts"}


def test_worker_pools_start_only_where_backend_waits_overlap():
    # eval --hyde rewrites every question on one pool before any file is scored
    assert _sites().pool_calls == {
        "cli.cmd_eval",
        "cli.cmd_rag",
        "evaluation.sweep_theta",
        "parallel.ordered_map",
    }
