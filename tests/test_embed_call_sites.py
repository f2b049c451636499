"""Every embedding request goes through index.embed_texts or CachingEmbedder.embed."""

from __future__ import annotations

import ast
from pathlib import Path

import lumberkit

SRC = Path(lumberkit.__file__).resolve().parent


class _Sites(ast.NodeVisitor):
    """Records the enclosing module.Class.function of every `.embed(` call
    and every read of EMBED_BATCH."""

    def __init__(self):
        self.scope: list[str] = []
        self.embed_calls: set[str] = set()
        self.batch_reads: set[str] = set()

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "embed":
            self.embed_calls.add(".".join(self.scope))
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
