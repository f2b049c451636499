"""Command-line interface.

Subcommands: ingest, chunk, eval, sweep, rag, gen-qa. Every run whose flags
are accepted, ok or failed, leaves one run record next to its outputs (_run),
API keys are read only from the environment, and all offline paths (mock
embeddings, replay backends) are deterministic given fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, replace
from operator import itemgetter
from pathlib import Path

from .backends import (
    API_KEY_ENV_VAR,
    BackendError,
    CachingBackend,
    CachingEmbedder,
    CompletionBackend,
    EmbeddingBackend,
    EmbeddingCache,
    HttpCompletionBackend,
    HttpEmbeddingBackend,
    MockEmbeddingBackend,
    ReplayBackend,
    ResponseCache,
    _LONE_SURROGATE,
)
from .baselines import (
    RecursiveConfig,
    SemanticConfig,
    hyde_transform,
    paragraph_chunks,
    proposition_chunks,
    recursive_chunks,
    semantic_chunks,
)
from .chunker import ChunkerConfig, chunk_stats, iter_documents, lumberchunk, write_chunks
from .corpus import (
    generate_qa, load_document, load_numbered_qa, load_qa, write_document, write_jsonl, write_qa,
)
from .errors import LumberkitError
from .evaluation import (
    DEFAULT_KS,
    DEFAULT_THETAS,
    check_ks,
    evaluate,
    format_report_table,
    sweep_theta,
    write_reports,
)
from .index import IndexingError, bm25_build, embed_chunks, embed_texts
from .parallel import ordered_map
from .ragpipe import answer_question, qa_accuracy, retrieve

_COMPLETION = ("replay_cache", "backend_url", "model", "record_cache")
_EMBEDDING = ("embed_url", "embed_model", "embed_cache")
_CHUNK = ("document", "method", "output_dir")
_EVAL = ("chunks", "qa", "ks", "hyde", "output_dir", *_EMBEDDING)

# The flags (argparse dests) each command reads: one row per command, per
# chunk --method, and for eval with and without --hyde. Any other flag of the
# command that is given is rejected before input is read, and the run record
# lists exactly the flags read, with their values.
_READS = {
    "ingest": ("input", "format", "doc_id", "output"),
    "chunk --method paragraph": _CHUNK,
    "chunk --method recursive": (*_CHUNK, "max_tokens"),
    "chunk --method semantic": (*_CHUNK, "percentile", "min_unit", *_EMBEDDING),
    "chunk --method lumber": (*_CHUNK, "theta", *_COMPLETION),
    "chunk --method proposition": (*_CHUNK, *_COMPLETION),
    "eval": _EVAL,
    "eval --hyde": (*_EVAL, *_COMPLETION),
    "sweep": ("documents", "qa", "thetas", "ks", "output_dir", *_COMPLETION, *_EMBEDDING),
    "rag": ("chunks", "questions", "output_dir", *_COMPLETION, *_EMBEDDING),
    "gen-qa": ("document", "n", "seed", "output", *_COMPLETION),
}
# Every flag by argparse dest, in parser order: its add_argument keywords, the
# "default" a row that reads it gets when it is left out (else None), and under
# a command's name the keywords that differ for that command.
_FLAGS = {
    "input": dict(required=True, help="source document path"),
    "format": dict(
        choices=("plain_text", "paragraph_records"),
        default="plain_text",
        help="input format (default: plain_text)",
    ),
    "doc_id": dict(help="document identifier (default: the records' doc_id, else the file stem)"),
    "document": dict(required=True, help="paragraph records path"),
    "method": dict(
        choices=[row.split()[-1] for row in _READS if row.startswith("chunk ")],
        required=True,
        help="chunking method",
    ),
    "theta": dict(type=int, default=ChunkerConfig.theta, help="token threshold for lumber"),
    "max_tokens": dict(
        type=int, default=RecursiveConfig.max_tokens, help="chunk size cap for recursive"
    ),
    "percentile": dict(
        type=float,
        default=SemanticConfig.breakpoint_percentile,
        help="semantic breakpoint percentile",
    ),
    "min_unit": dict(
        choices=("sentence", "paragraph"),
        default=SemanticConfig.min_unit,
        help="semantic unit granularity",
    ),
    # eval scores several chunk files, rag answers over one
    "chunks": dict(required=True, help="chunk records path(s)", eval=dict(nargs="+")),
    "documents": dict(nargs="+", required=True, help="paragraph record files"),
    "qa": dict(required=True, help="QA records path"),
    "questions": dict(required=True, help="QA records path"),
    "thetas": dict(nargs="+", type=int, default=DEFAULT_THETAS, help="token thresholds to sweep"),
    "ks": dict(nargs="+", type=int, default=DEFAULT_KS, help="metric cutoffs"),
    "hyde": dict(
        action="store_true",
        default=False,
        help="embed a hypothetical answer passage instead of the raw question "
        "(conventionally paired with recursive chunks)",
    ),
    "n": dict(type=int, required=True, help="samples to draw"),
    "seed": dict(type=int, default=0, help="passage sampling seed"),
    "output": dict(required=True, help="output path"),
    "output_dir": dict(required=True, help="output directory"),
    "replay_cache": dict(
        metavar="FILE", help="serve completions from a recorded response cache (offline)"
    ),
    "backend_url": dict(
        metavar="URL", help=f"chat-completion endpoint base URL; key comes from ${API_KEY_ENV_VAR}"
    ),
    "model": dict(
        metavar="NAME",
        help="model name for the live backend and in completion cache keys (else 'default')",
    ),
    "record_cache": dict(metavar="FILE", help="record completion responses to this cache file"),
    "embed_url": dict(
        metavar="URL",
        help="embedding endpoint base URL, with --embed-model (default: deterministic mock)",
    ),
    "embed_model": dict(metavar="NAME", help="embedding model name"),
    "embed_cache": dict(metavar="FILE", help="embedding cache sidecar file"),
}


class CliError(LumberkitError):
    """A command was invoked with unusable arguments."""


_REPORTED = (LumberkitError, OSError)  # main prints these as one "error: ..." line


def _row(args: argparse.Namespace) -> str:
    """The row of _READS that args select."""
    if args.command == "chunk":
        return f"chunk --method {args.method}"
    if args.command == "eval" and args.hyde:
        return "eval --hyde"
    return args.command


def _option(name: str) -> str:
    """The option string of the flag whose argparse dest is name."""
    return ("-" if len(name) == 1 else "--") + name.replace("_", "-")


def _resolve_flags(args: argparse.Namespace) -> None:
    """Give each flag args' row reads its _FLAGS default if left out; refuse the rest.

    A flag the row does not read is given when it is not None. One CliError
    names all of them, in the order the parser defines them. Then a CliError
    names the first flag read whose text is not valid UTF-8 (argv bytes that
    do not decode arrive as lone surrogates, which the UTF-8 run record cannot
    hold), then a CliError names the first list flag that repeats a value
    (paths compare in absolute, normalized form; --ks is left to check_ks),
    and the rules between flags follow: --backend-url is refused beside
    --replay-cache, which never calls it, and needs --model; --embed-url and
    --embed-model select the HTTP embedder together, and neither the mock.
    """
    row = _row(args)
    reads = _READS[row]
    given = []
    for name, spec in _FLAGS.items():
        if name in reads:
            if getattr(args, name) is None:
                setattr(args, name, spec.get("default"))
        elif getattr(args, name, None) is not None:
            given.append(_option(name))
    if given:
        where = row + (" without --hyde" if row == "eval" else "")
        raise CliError(f"{', '.join(given)} not supported by {where}")
    for name in reads:
        values = getattr(args, name)
        for value in values if isinstance(values, list) else [values]:
            if isinstance(value, str) and _LONE_SURROGATE.search(value):
                raise CliError(f"{_option(name)} is not valid UTF-8: {value!a}")
    for name in reads:
        values = getattr(args, name)
        if name == "ks" or not isinstance(values, list):
            continue
        first: dict = {}
        for value in values:
            key = os.path.abspath(value) if isinstance(value, str) else value
            if key in first:
                same = "" if first[key] == value else f" as {value}"
                raise CliError(f"{_option(name)} repeats {first[key]}{same}")
            first[key] = value
    if "replay_cache" in reads:
        if args.replay_cache and args.backend_url:
            raise CliError("--replay-cache and --backend-url exclude each other: a replay is offline")
        if args.backend_url and not args.model:
            raise CliError("--backend-url requires --model")
    if "embed_url" in reads and (args.embed_url is None) != (args.embed_model is None):
        raise CliError("--embed-url and --embed-model select the HTTP embedder only together")


def _model_id(args: argparse.Namespace) -> str:
    """The model id in completion cache keys: --model, else 'default'."""
    return args.model or "default"


def _write_json(obj, path: Path) -> None:
    """Write one JSON record: indent 2, sorted keys, no ASCII escaping, final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _run(args: argparse.Namespace):
    """Make the output location; write the run record there however the command ends.

    The record, run_config.json in --output-dir or else <output>.run.json,
    holds the command, each flag read with its value, "status" ("ok" or
    "failed"), the "error" main prints (else the exception's repr), and
    "seconds" of wall clock. A failed run's error stands if this write fails.
    """
    reads = _READS[_row(args)]
    in_dir = "output_dir" in reads
    path = Path(args.output_dir, "run_config.json") if in_dir else Path(args.output + ".run.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"command": args.command, "flags": {name: getattr(args, name) for name in reads}}
    started = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        error = str(exc) if isinstance(exc, _REPORTED) else repr(exc)
        record |= {"status": "failed", "error": error, "seconds": time.perf_counter() - started}
        with suppress(OSError):
            _write_json(record, path)
        raise
    _write_json(record | {"status": "ok", "seconds": time.perf_counter() - started}, path)


def _completion_backend(args: argparse.Namespace, *, needed_for: str) -> CompletionBackend:
    if args.replay_cache:
        return ReplayBackend(ResponseCache(args.replay_cache, model_id=_model_id(args)))
    if args.backend_url:
        return HttpCompletionBackend(
            args.backend_url, args.model, api_key=os.environ.get(API_KEY_ENV_VAR)
        )
    raise CliError(
        f"{needed_for} needs a completion backend; pass --replay-cache FILE "
        f"for an offline run or --backend-url URL --model NAME for a live one"
    )


def _embedding_backend(args: argparse.Namespace) -> EmbeddingBackend:
    if args.embed_url is None:
        return MockEmbeddingBackend()
    return HttpEmbeddingBackend(
        args.embed_url, args.embed_model, api_key=os.environ.get(API_KEY_ENV_VAR)
    )


@contextmanager
def _embedder(args: argparse.Namespace):
    """Yield the embedder, in a CachingEmbedder over the --embed-cache store if given.

    The store is closed afterwards.
    """
    embedder = _embedding_backend(args)
    if not args.embed_cache:
        yield embedder
        return
    with EmbeddingCache(args.embed_cache, embedder.backend_id) as cache:
        yield CachingEmbedder(embedder, cache)


@contextmanager
def _backend(args: argparse.Namespace, needed_for: str):
    """Yield the completion backend, in a CachingBackend over the --record-cache store if given.

    The store is closed afterwards. A backend or embedder failure once an
    answer is recorded ends in an error saying how to resume.
    """
    backend = _completion_backend(args, needed_for=needed_for)
    if not args.record_cache:
        yield backend
        return
    with ResponseCache(args.record_cache, model_id=_model_id(args)) as cache:
        try:
            yield CachingBackend(backend, cache)
        except (BackendError, IndexingError) as exc:
            if not len(cache):
                raise
            raise BackendError(
                f"{exc}; re-run the same command to resume from the {len(cache)} "
                f"answers recorded in {cache.path}"
            ) from exc


def _write_report(reports: list, output_dir: str) -> None:
    """Print the report table and write it, plus one JSONL record per report, to output_dir."""
    table = format_report_table(reports)
    print(table)
    out_dir = Path(output_dir)
    with open(out_dir / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table + "\n")
    write_reports(reports, out_dir / "reports.jsonl")


def cmd_ingest(args: argparse.Namespace) -> int:
    document = load_document(args.input, args.format, doc_id=args.doc_id)
    write_document(document, args.output)
    print(f"wrote {len(document)} paragraph record(s) to {Path(args.output)}")
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    document = load_document(args.document, "paragraph_records")
    if args.method == "paragraph":
        chunks = paragraph_chunks(document)
    elif args.method == "recursive":
        chunks = recursive_chunks(document, RecursiveConfig(max_tokens=args.max_tokens))
    elif args.method == "semantic":
        config = SemanticConfig(breakpoint_percentile=args.percentile, min_unit=args.min_unit)
        with _embedder(args) as embedder:
            chunks = semantic_chunks(document, embedder, config)
    elif args.method == "lumber":
        with _backend(args, "method 'lumber'") as backend:
            chunks = lumberchunk(document, ChunkerConfig(theta=args.theta), backend)
    else:  # proposition
        with _backend(args, "method 'proposition'") as backend:
            chunks = proposition_chunks(document, backend)
    out_dir = Path(args.output_dir)
    stats = chunk_stats(chunks, write_chunks(chunks, out_dir / "chunks.jsonl"))
    _write_json(asdict(stats), out_dir / "stats.json")
    print(
        f"{args.method}: {stats.count} chunk(s) from {len(document)} paragraph(s) "
        f"-> {out_dir / 'chunks.jsonl'}"
    )
    return 0


def _labels(paths: list[str]) -> list[str]:
    """Each path's stem, or its fewest trailing parts (no suffix) that no other path ends in."""
    parts = {path: path.with_suffix("").parts for path in map(Path, paths)}

    def label(path: Path) -> str:
        own = parts[path]
        for depth in range(1, len(own) + 1):
            if all(other[-depth:] != own[-depth:] for key, other in parts.items() if key != path):
                return Path(*own[-depth:]).as_posix()
        return str(path)

    return [label(Path(path)) for path in paths]


def cmd_eval(args: argparse.Namespace) -> int:
    check_ks(args.ks)
    qa_pairs = load_qa(args.qa)
    # check every file before the first embed or HyDE call; itemgetter(0) keeps
    # one chunk of each document, so no two documents' chunks are held at once
    doc_ids = {c.doc_id for path in args.chunks for c in map(itemgetter(0), iter_documents(path))}
    with (
        _embedder(args) as embedder,
        (_backend(args, "--hyde") if args.hyde else nullcontext()) as hyde_backend,
    ):
        if hyde_backend is not None:
            # each distinct question that some file scores is rewritten once, before any scoring
            texts = list(dict.fromkeys(qa.question for qa in qa_pairs if qa.doc_id in doc_ids))
            rewrites = ordered_map(lambda text: hyde_transform(text, hyde_backend), texts)
            rewrite = dict(zip(texts, rewrites))
            qa_pairs = [
                replace(qa, question=rewrite.get(qa.question, qa.question)) for qa in qa_pairs
            ]
        reports = [
            evaluate(
                iter_documents(chunk_path),
                qa_pairs,
                embedder,
                tuple(args.ks),
                method=label + ("+hyde" if args.hyde else ""),
            )
            for chunk_path, label in zip(args.chunks, _labels(args.chunks))
        ]
    _write_report(reports, args.output_dir)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    documents = [load_document(path, "paragraph_records") for path in args.documents]
    qa_pairs = load_qa(args.qa)
    with _embedder(args) as embedder, _backend(args, "sweep") as backend:
        reports = sweep_theta(
            documents, qa_pairs, args.thetas, backend, embedder, ks=tuple(args.ks)
        )
    _write_report(reports, args.output_dir)
    return 0


def cmd_rag(args: argparse.Namespace) -> int:
    numbered = load_numbered_qa(args.questions)
    qa_pairs = [pair for _line_number, pair in numbered]
    asked = {pair.doc_id for pair in qa_pairs}
    documents = {
        doc[0].doc_id: doc for doc in iter_documents(args.chunks) if doc[0].doc_id in asked
    }
    for line_number, pair in numbered:
        if pair.doc_id not in documents:
            where = f"{args.questions}, line {line_number}"
            raise CliError(f"{where}: document {pair.doc_id!r} has no chunks in {args.chunks}")
    with _backend(args, "rag") as backend:
        with _embedder(args) as embedder:
            vectors = {doc_id: embed_chunks(doc, embedder) for doc_id, doc in documents.items()}
            query_vectors = embed_texts([pair.question for pair in qa_pairs], embedder)
        # free the embedder and any --embed-cache store before BM25 raises the peak
        del embedder
        bm25 = {doc_id: bm25_build(doc) for doc_id, doc in documents.items()}
        # ordered_map draws each retrieval, within its question's document, on this
        # thread while its workers rerank and answer earlier ones
        results = ordered_map(
            lambda retrieval: answer_question(retrieval, backend),
            (
                retrieve(pair.question, bm25[pair.doc_id], vectors[pair.doc_id], query_vector)
                for pair, query_vector in zip(qa_pairs, query_vectors)
            ),
        )
    accuracy = qa_accuracy((result.answer, pair.answer) for result, pair in zip(results, qa_pairs))
    out_dir = Path(args.output_dir)
    write_jsonl(
        (
            {
                "question": result.question,
                "mentions": list(result.decision.mention_strings),
                "bm25_k": result.decision.bm25_k,
                "retrieved": list(result.retrieved_ids),
                "answer": result.answer,
            }
            for result in results
        ),
        out_dir / "answers.jsonl",
    )
    _write_json({"qa_accuracy": accuracy, "questions": len(qa_pairs)}, out_dir / "summary.json")
    print(f"qa_accuracy {accuracy:.2f} over {len(qa_pairs)} question(s)")
    return 0


def cmd_gen_qa(args: argparse.Namespace) -> int:
    document = load_document(args.document, "paragraph_records")
    with _backend(args, "gen-qa") as backend:
        pairs = generate_qa(document, backend, args.n, seed=args.seed)
    write_qa(pairs, args.output)
    print(f"wrote {len(pairs)} QA pair(s) to {Path(args.output)}")
    return 0


_COMMANDS = {
    "ingest": (cmd_ingest, "parse a document into paragraph records"),
    "chunk": (cmd_chunk, "chunk a document with one method"),
    "eval": (cmd_eval, "score chunk files against a QA set"),
    "sweep": (cmd_sweep, "chunk and score across theta values"),
    "rag": (cmd_rag, "answer questions over a chunk file"),
    "gen-qa": (cmd_gen_qa, "generate QA pairs from a document"),
}


def build_parser() -> argparse.ArgumentParser:
    """The top parser, with one subparser per command taking the flags its _READS rows read."""
    parser = argparse.ArgumentParser(
        prog="lumberkit",
        description="Chunk documents, evaluate retrieval quality, and answer questions.",
        allow_abbrev=False,
    )
    parser.add_argument("--quiet", action="store_true", help="only log errors")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        # no parser reads a flag's prefix as the flag
        subparser = subparsers.add_parser(command, help=help_line, allow_abbrev=False)
        reads = {
            name for row, names in _READS.items() if row.split()[0] == command for name in names
        }
        for name, spec in _FLAGS.items():
            if name in reads:
                options = {key: value for key, value in spec.items() if key not in _COMMANDS}
                # parsed as None when left out, so that a given flag the row
                # does not read can be refused; _resolve_flags fills defaults
                options |= spec.get(command, {}) | {"default": None}
                subparser.add_argument(_option(name), dest=name, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig sets no level once the root logger has a handler: set it on every call
    logging.getLogger().setLevel(logging.ERROR if args.quiet else logging.INFO)
    try:
        _resolve_flags(args)
        with _run(args):
            return _COMMANDS[args.command][0](args)
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
