"""Command-line interface.

Subcommands: ingest, chunk, eval, sweep, rag, gen-qa. Every run writes a
resolved run-config record next to its outputs, API keys are read only from
the environment, and all offline paths (mock embeddings, replay backends) are
deterministic given fixed seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from .backends import (
    API_KEY_ENV_VAR,
    BackendError,
    CachingBackend,
    CompletionBackend,
    EmbeddingBackend,
    EmbeddingCache,
    HttpCompletionBackend,
    HttpEmbeddingBackend,
    MockEmbeddingBackend,
    ReplayBackend,
    ResponseCache,
)
from .baselines import (
    RecursiveConfig,
    SemanticConfig,
    chunk_method_names,
    hyde_transform,
    paragraph_chunks,
    proposition_chunks,
    recursive_chunks,
    semantic_chunks,
)
from .chunker import (
    ChunkerConfig,
    ChunkingAborted,
    chunk_stats,
    lumberchunk,
    read_chunks,
    write_chunks,
)
from .corpus import generate_qa, load_document, load_qa, write_document, write_qa
from .errors import LumberkitError
from .evaluation import (
    DEFAULT_KS,
    DEFAULT_THETAS,
    evaluate,
    format_report_table,
    sweep_theta,
    write_reports,
)
from .index import bm25_build, embed_chunks
from .parallel import ordered_map
from .ragpipe import answer_question, qa_accuracy

logger = logging.getLogger(__name__)


# --embed-dim and --embed-seed when not given
MOCK_EMBED_DIM = 64
MOCK_EMBED_SEED = 0


class CliError(LumberkitError):
    """A command was invoked with unusable arguments."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI run, written next to the outputs.

    The API key itself never appears here; only its source environment
    variable is recorded.
    """

    command: str
    inputs: dict
    outputs: dict
    backend: dict
    embedding: dict
    caches: dict
    chunker: dict
    ks: list[int] | None
    seed: int | None

    def to_record(self) -> dict:
        return asdict(self)


def _model_id(args: argparse.Namespace) -> str:
    """The model id in completion cache keys: --model-id, else --model, else 'default'."""
    return args.model_id or args.model or "default"


def _backend_settings(args: argparse.Namespace) -> dict:
    if getattr(args, "replay_cache", None):
        return {
            "kind": "replay",
            "cache_path": str(args.replay_cache),
            "model_id": _model_id(args),
        }
    if getattr(args, "backend_url", None):
        return {
            "kind": "http",
            "url": args.backend_url,
            "model": args.model,
            "model_id": _model_id(args),
            "api_key_source": f"env:{API_KEY_ENV_VAR}",
        }
    return {"kind": "none"}


def _embedding_settings(args: argparse.Namespace) -> dict:
    if getattr(args, "embed", "mock") == "http":
        return {
            "kind": "http",
            "url": args.embed_url,
            "model": args.embed_model,
            "api_key_source": f"env:{API_KEY_ENV_VAR}",
        }
    return {"kind": "mock", **_mock_embedding_options(args)}


def _mock_embedding_options(args: argparse.Namespace) -> dict:
    """--embed-dim and --embed-seed as MockEmbeddingBackend arguments.

    Both flags default to None so chunk can tell given from unset; unset
    ones resolve to the mock's defaults here.
    """
    return {
        "dimension": MOCK_EMBED_DIM if args.embed_dim is None else args.embed_dim,
        "seed": MOCK_EMBED_SEED if args.embed_seed is None else args.embed_seed,
    }


def _cache_settings(args: argparse.Namespace) -> dict:
    return {
        "completion": str(args.record_cache) if getattr(args, "record_cache", None) else None,
        "embedding": str(args.embed_cache) if getattr(args, "embed_cache", None) else None,
    }


def _write_run_config(config: RunConfig, destination: Path) -> None:
    destination.parent.mkdir(parents=True, exist_ok=True)
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config.to_record(), fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def _completion_backend(args: argparse.Namespace, *, needed_for: str) -> CompletionBackend:
    if args.replay_cache:
        return ReplayBackend.from_file(args.replay_cache, model_id=_model_id(args))
    if args.backend_url:
        if not args.model:
            raise CliError("--backend-url requires --model")
        return HttpCompletionBackend(
            args.backend_url, args.model, api_key=os.environ.get(API_KEY_ENV_VAR)
        )
    raise CliError(
        f"{needed_for} needs a completion backend; pass --replay-cache FILE "
        f"for an offline run or --backend-url URL --model NAME for a live one"
    )


def _embedding_backend(args: argparse.Namespace) -> EmbeddingBackend:
    if getattr(args, "embed", "mock") == "http":
        if not args.embed_url or not args.embed_model:
            raise CliError("--embed http requires --embed-url and --embed-model")
        return HttpEmbeddingBackend(
            args.embed_url, args.embed_model, api_key=os.environ.get(API_KEY_ENV_VAR)
        )
    return MockEmbeddingBackend(**_mock_embedding_options(args))


def _embedding_cache(
    args: argparse.Namespace, backend: EmbeddingBackend
) -> EmbeddingCache | nullcontext:
    """The --embed-cache store, or a stand-in for `with` that yields None."""
    if getattr(args, "embed_cache", None):
        return EmbeddingCache(args.embed_cache, backend.backend_id)
    return nullcontext()


@contextmanager
def _recorded(args: argparse.Namespace, backend: CompletionBackend | None):
    """Yield backend wrapped in a CachingBackend over the --record-cache store, if given.

    The store is closed afterwards. If a backend failure ends the run while
    recording, the error says how to resume.
    """
    if not args.record_cache:
        yield backend
        return
    with ResponseCache(args.record_cache, model_id=_model_id(args)) as cache:
        try:
            yield CachingBackend(backend, cache)
        except (BackendError, ChunkingAborted) as exc:
            raise BackendError(
                f"{exc}; re-run the same command to resume from the {len(cache)} "
                f"answers recorded in {cache.path}"
            ) from exc


def _reject_completion_flags(args: argparse.Namespace, command: str) -> None:
    """Refuse completion-backend flags where no completion backend is built."""
    given = [
        "--" + name.replace("_", "-")
        for name in ("replay_cache", "backend_url", "model", "model_id", "record_cache")
        if getattr(args, name)
    ]
    if given:
        raise CliError(
            f"{', '.join(given)} not supported by {command}, which makes no completion calls"
        )


def _reject_embedder_flags(args: argparse.Namespace, command: str, *, embeds: bool) -> None:
    """Refuse embedder flags that command never reads.

    --embed-dim and --embed-seed are read only by --embed mock, --embed-url
    and --embed-model only by --embed http. A command that does not embed
    reads none of them; chunk's method table rejects its --embed-dim and
    --embed-seed.
    """
    if embeds and args.embed == "http":
        flags = {"--embed-dim": args.embed_dim, "--embed-seed": args.embed_seed}
    else:
        flags = {"--embed-url": args.embed_url, "--embed-model": args.embed_model}
        if not embeds and args.embed == "http":
            flags = {"--embed http": True, **flags}
    given = [flag for flag, value in flags.items() if value is not None]
    if given:
        context = f" with --embed {args.embed}" if embeds else ", which makes no embedding calls"
        raise CliError(f"{', '.join(given)} not supported by {command}{context}")


# The chunk flags each method reads; a flag given to any other method is
# rejected.
_CHUNK_METHOD_FLAGS = {
    "lumber": ("theta", "max_retries", "min_tail_paragraphs", "id_width"),
    "recursive": ("max_tokens",),
    "semantic": ("percentile", "min_unit", "embed_dim", "embed_seed"),
}


def _reject_unread_chunk_flags(args: argparse.Namespace) -> None:
    """Refuse chunk flags that the chosen method never reads."""
    read = _CHUNK_METHOD_FLAGS.get(args.method, ())
    given = [
        "--" + name.replace("_", "-")
        for names in _CHUNK_METHOD_FLAGS.values()
        for name in names
        if name not in read and getattr(args, name) is not None
    ]
    if given:
        raise CliError(f"{', '.join(given)} not supported by chunk --method {args.method}")


def _given(args: argparse.Namespace, *names: str, **renamed: str) -> dict:
    """Config keyword arguments for the flags given; unset ones keep the config's defaults.

    names are config fields set by the flag of the same name; renamed maps a
    config field to the flag's attribute name where the two differ.
    """
    fields = {name: name for name in names} | renamed
    return {
        field: getattr(args, name)
        for field, name in fields.items()
        if getattr(args, name) is not None
    }


def cmd_ingest(args: argparse.Namespace) -> int:
    document = load_document(args.input, args.format, doc_id=args.doc_id, title=args.title)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    write_document(document, output)
    config = RunConfig(
        command="ingest",
        inputs={"document": str(args.input), "format": args.format},
        outputs={"paragraph_records": str(output)},
        backend={"kind": "none"},
        embedding={"kind": "none"},
        caches={"completion": None, "embedding": None},
        chunker={},
        ks=None,
        seed=None,
    )
    _write_run_config(config, output.with_name(output.name + ".run.json"))
    print(f"wrote {len(document)} paragraph record(s) to {output}")
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    if args.method in ("paragraph", "recursive", "semantic"):
        _reject_completion_flags(args, f"chunk --method {args.method}")
    _reject_embedder_flags(args, f"chunk --method {args.method}", embeds=args.method == "semantic")
    if args.embed_cache:
        raise CliError(f"--embed-cache not supported by chunk --method {args.method}")
    _reject_unread_chunk_flags(args)
    document = load_document(args.document, "paragraph_records")
    chunker_settings: dict = {"method": args.method}
    started = time.perf_counter()
    if args.method == "paragraph":
        chunks = paragraph_chunks(document)
    elif args.method == "recursive":
        recursive_config = RecursiveConfig(**_given(args, "max_tokens"))
        chunker_settings["max_tokens"] = recursive_config.max_tokens
        chunks = recursive_chunks(document, recursive_config)
    elif args.method == "semantic":
        embed_backend = _embedding_backend(args)
        semantic_config = SemanticConfig(
            **_given(args, "min_unit", breakpoint_percentile="percentile")
        )
        chunker_settings.update(
            percentile=semantic_config.breakpoint_percentile, min_unit=semantic_config.min_unit
        )
        chunks = semantic_chunks(document, embed_backend, semantic_config)
    elif args.method == "lumber":
        backend = _completion_backend(args, needed_for="method 'lumber'")
        names = _CHUNK_METHOD_FLAGS["lumber"]
        config = ChunkerConfig(**_given(args, *names))
        chunker_settings.update({name: getattr(config, name) for name in names})
        with _recorded(args, backend) as backend:
            chunks = lumberchunk(document, config, backend)
    elif args.method == "proposition":
        backend = _completion_backend(args, needed_for="method 'proposition'")
        with _recorded(args, backend) as backend:
            chunks = proposition_chunks(document, backend)
    else:
        raise CliError(f"unknown method {args.method!r}")
    seconds = time.perf_counter() - started

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_chunks(chunks, out_dir / "chunks.jsonl")
    stats = chunk_stats(chunks)
    with open(out_dir / "stats.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {
                "count": stats.count,
                "mean_tokens": stats.mean_tokens,
                "min_tokens": stats.min_tokens,
                "max_tokens": stats.max_tokens,
                "mean_paragraphs": stats.mean_paragraphs,
            },
            fh,
            ensure_ascii=False,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    with open(out_dir / "timing.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seconds": seconds}, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    config_record = RunConfig(
        command="chunk",
        inputs={"document": str(args.document)},
        outputs={"directory": str(out_dir)},
        backend=_backend_settings(args),
        embedding=_embedding_settings(args) if args.method == "semantic" else {"kind": "none"},
        caches=_cache_settings(args),
        chunker=chunker_settings,
        ks=None,
        seed=None,
    )
    _write_run_config(config_record, out_dir / "run_config.json")
    print(
        f"{args.method}: {stats.count} chunk(s) from {len(document)} paragraph(s) "
        f"in {seconds:.2f}s -> {out_dir / 'chunks.jsonl'}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.hyde:
        _reject_completion_flags(args, "eval without --hyde")
    _reject_embedder_flags(args, "eval", embeds=True)
    qa_pairs = load_qa(args.qa)
    embed_backend = _embedding_backend(args)
    hyde_backend = _completion_backend(args, needed_for="--hyde") if args.hyde else None
    reports = []
    with (
        _embedding_cache(args, embed_backend) as embed_cache,
        _recorded(args, hyde_backend) as hyde_backend,
    ):
        transform = None
        if hyde_backend is not None:
            # one rewrite per question for the whole command, shared by every chunk file
            transform = functools.cache(lambda query: hyde_transform(query, hyde_backend))
        for chunk_path in args.chunks:
            chunks = read_chunks(chunk_path)
            reports.append(
                evaluate(
                    chunks,
                    qa_pairs,
                    embed_backend,
                    transform,
                    tuple(args.ks),
                    method=Path(chunk_path).stem + ("+hyde" if args.hyde else ""),
                    embed_cache=embed_cache,
                )
            )
    table = format_report_table(reports)
    print(table)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table + "\n")
    write_reports(reports, out_dir / "reports.jsonl")
    config_record = RunConfig(
        command="eval",
        inputs={"chunks": [str(p) for p in args.chunks], "qa": str(args.qa)},
        outputs={"directory": str(out_dir)},
        backend=_backend_settings(args),
        embedding=_embedding_settings(args),
        caches=_cache_settings(args),
        chunker={},
        ks=list(args.ks),
        seed=_mock_embedding_options(args)["seed"],
    )
    _write_run_config(config_record, out_dir / "run_config.json")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _reject_embedder_flags(args, "sweep", embeds=True)
    documents = [load_document(path, "paragraph_records") for path in args.documents]
    qa_pairs = load_qa(args.qa)
    backend = _completion_backend(args, needed_for="sweep")
    embed_backend = _embedding_backend(args)
    base_config = ChunkerConfig(
        max_retries=args.max_retries,
        min_tail_paragraphs=args.min_tail_paragraphs,
        id_width=args.id_width,
    )
    with (
        _embedding_cache(args, embed_backend) as embed_cache,
        _recorded(args, backend) as backend,
    ):
        reports = sweep_theta(
            documents,
            qa_pairs,
            args.thetas,
            backend,
            embed_backend,
            config=base_config,
            ks=tuple(args.ks),
            embed_cache=embed_cache,
        )
    table = format_report_table(reports)
    print(table)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table + "\n")
    write_reports(reports, out_dir / "reports.jsonl")
    config_record = RunConfig(
        command="sweep",
        inputs={"documents": [str(p) for p in args.documents], "qa": str(args.qa)},
        outputs={"directory": str(out_dir)},
        backend=_backend_settings(args),
        embedding=_embedding_settings(args),
        caches=_cache_settings(args),
        chunker={
            "method": "lumber",
            "thetas": sorted(set(args.thetas)),
            "max_retries": args.max_retries,
            "min_tail_paragraphs": args.min_tail_paragraphs,
            "id_width": args.id_width,
        },
        ks=list(args.ks),
        seed=_mock_embedding_options(args)["seed"],
    )
    _write_run_config(config_record, out_dir / "run_config.json")
    return 0


def cmd_rag(args: argparse.Namespace) -> int:
    _reject_embedder_flags(args, "rag", embeds=True)
    chunks = read_chunks(args.chunks)
    qa_pairs = load_qa(args.questions)
    backend = _completion_backend(args, needed_for="rag")
    embed_backend = _embedding_backend(args)
    with _embedding_cache(args, embed_backend) as embed_cache:
        vector_index = embed_chunks(chunks, embed_backend, embed_cache)
    bm25_index = bm25_build(chunks)
    with _recorded(args, backend) as backend:
        results = ordered_map(
            lambda pair: answer_question(
                pair.question, bm25_index, vector_index, embed_backend, backend
            ),
            qa_pairs,
        )
    records = [
        {
            "question": result.question,
            "mentions": list(result.decision.mention_strings),
            "bm25_k": result.decision.bm25_k,
            "retrieved": list(result.retrieved_ids),
            "answer": result.answer,
        }
        for result in results
    ]
    scored = [(result.answer, pair.answer) for result, pair in zip(results, qa_pairs)]
    accuracy = qa_accuracy(scored)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "answers.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {"qa_accuracy": accuracy, "questions": len(qa_pairs)},
            fh,
            ensure_ascii=False,
            indent=2,
        )
        fh.write("\n")
    config_record = RunConfig(
        command="rag",
        inputs={"chunks": str(args.chunks), "questions": str(args.questions)},
        outputs={"directory": str(out_dir)},
        backend=_backend_settings(args),
        embedding=_embedding_settings(args),
        caches=_cache_settings(args),
        chunker={},
        ks=None,
        seed=_mock_embedding_options(args)["seed"],
    )
    _write_run_config(config_record, out_dir / "run_config.json")
    print(f"qa_accuracy {accuracy:.2f} over {len(qa_pairs)} question(s)")
    return 0


def cmd_gen_qa(args: argparse.Namespace) -> int:
    document = load_document(args.document, "paragraph_records")
    backend = _completion_backend(args, needed_for="gen-qa")
    with _recorded(args, backend) as backend:
        pairs = generate_qa(document, backend, args.n, seed=args.seed)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    write_qa(pairs, output)
    config_record = RunConfig(
        command="gen-qa",
        inputs={"document": str(args.document), "n": args.n},
        outputs={"qa": str(output)},
        backend=_backend_settings(args),
        embedding={"kind": "none"},
        caches=_cache_settings(args),
        chunker={},
        ks=None,
        seed=args.seed,
    )
    _write_run_config(config_record, output.with_name(output.name + ".run.json"))
    print(f"wrote {len(pairs)} QA pair(s) to {output}")
    return 0


def _add_completion_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("completion backend")
    group.add_argument(
        "--replay-cache",
        metavar="FILE",
        help="serve completions from a recorded response cache (offline)",
    )
    group.add_argument(
        "--backend-url",
        metavar="URL",
        help=f"chat-completion endpoint base URL; key comes from ${API_KEY_ENV_VAR}",
    )
    group.add_argument("--model", metavar="NAME", help="model name for the live backend")
    group.add_argument(
        "--model-id",
        metavar="ID",
        help="identifier used in completion cache keys (default: --model, else 'default')",
    )
    group.add_argument(
        "--record-cache",
        metavar="FILE",
        help="record completion responses to this cache file",
    )


def _add_embedding_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("embedding backend")
    group.add_argument(
        "--embed",
        choices=("mock", "http"),
        default="mock",
        help="embedding backend (default: deterministic mock)",
    )
    group.add_argument("--embed-dim", type=int, help="mock embedding dimension")
    group.add_argument("--embed-seed", type=int, help="mock embedding seed")
    group.add_argument("--embed-url", metavar="URL", help="embedding endpoint base URL")
    group.add_argument("--embed-model", metavar="NAME", help="embedding model name")
    group.add_argument(
        "--embed-cache", metavar="FILE", help="embedding cache sidecar file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumberkit",
        description="Chunk documents, evaluate retrieval quality, and answer questions.",
    )
    parser.add_argument("--quiet", action="store_true", help="only log errors")
    subparsers = parser.add_subparsers(dest="command", required=True)

    ingest = subparsers.add_parser("ingest", help="parse a document into paragraph records")
    ingest.add_argument("--input", required=True, help="source document path")
    ingest.add_argument(
        "--format",
        choices=("plain_text", "paragraph_records"),
        default="plain_text",
        help="input format (default: plain_text)",
    )
    ingest.add_argument("--doc-id", help="document identifier (default: file stem)")
    ingest.add_argument("--title", help="document title (default: doc id)")
    ingest.add_argument("--output", required=True, help="paragraph records output path")
    ingest.set_defaults(func=cmd_ingest)

    chunk = subparsers.add_parser("chunk", help="chunk a document with one method")
    chunk.add_argument("--document", required=True, help="paragraph records path")
    chunk.add_argument(
        "--method",
        choices=chunk_method_names(),
        required=True,
        help="chunking method",
    )
    # method flags default to None, so a flag the chosen method does not read
    # can be rejected; the method's config supplies the default
    chunk.add_argument("--theta", type=int, help="token threshold for lumber")
    chunk.add_argument("--max-retries", type=int, help="split re-asks for lumber")
    chunk.add_argument(
        "--min-tail-paragraphs",
        type=int,
        help="smallest tail group worth splitting",
    )
    chunk.add_argument("--id-width", type=int, help="prompt ID zero-padding width")
    chunk.add_argument(
        "--max-tokens", type=int, help="chunk size cap for recursive"
    )
    chunk.add_argument(
        "--percentile", type=float, help="semantic breakpoint percentile"
    )
    chunk.add_argument(
        "--min-unit",
        choices=("sentence", "paragraph"),
        help="semantic unit granularity",
    )
    chunk.add_argument("--output-dir", required=True, help="directory for chunk outputs")
    _add_completion_flags(chunk)
    _add_embedding_flags(chunk)
    chunk.set_defaults(func=cmd_chunk)

    evaluate_cmd = subparsers.add_parser("eval", help="score chunk files against a QA set")
    evaluate_cmd.add_argument(
        "--chunks", nargs="+", required=True, help="one or more chunk record files"
    )
    evaluate_cmd.add_argument("--qa", required=True, help="QA records path")
    evaluate_cmd.add_argument(
        "--ks", nargs="+", type=int, default=list(DEFAULT_KS), help="metric cutoffs"
    )
    evaluate_cmd.add_argument(
        "--hyde",
        action="store_true",
        help="embed a hypothetical answer passage instead of the raw question "
        "(conventionally paired with recursive chunks)",
    )
    evaluate_cmd.add_argument("--output-dir", required=True, help="directory for reports")
    _add_completion_flags(evaluate_cmd)
    _add_embedding_flags(evaluate_cmd)
    evaluate_cmd.set_defaults(func=cmd_eval)

    sweep = subparsers.add_parser("sweep", help="chunk and score across theta values")
    sweep.add_argument(
        "--documents", nargs="+", required=True, help="paragraph record files"
    )
    sweep.add_argument("--qa", required=True, help="QA records path")
    sweep.add_argument(
        "--thetas",
        nargs="+",
        type=int,
        default=list(DEFAULT_THETAS),
        help="token thresholds to sweep",
    )
    sweep.add_argument(
        "--ks", nargs="+", type=int, default=list(DEFAULT_KS), help="metric cutoffs"
    )
    sweep.add_argument("--max-retries", type=int, default=3)
    sweep.add_argument("--min-tail-paragraphs", type=int, default=2)
    sweep.add_argument("--id-width", type=int, default=4)
    sweep.add_argument("--output-dir", required=True, help="directory for reports")
    _add_completion_flags(sweep)
    _add_embedding_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    rag = subparsers.add_parser(
        "rag", aliases=["rag-answer"], help="answer questions over a chunk file"
    )
    rag.add_argument("--chunks", required=True, help="chunk records path")
    rag.add_argument("--questions", required=True, help="QA records path")
    rag.add_argument("--output-dir", required=True, help="directory for answers")
    _add_completion_flags(rag)
    _add_embedding_flags(rag)
    rag.set_defaults(func=cmd_rag)

    gen_qa = subparsers.add_parser("gen-qa", help="generate QA pairs from a document")
    gen_qa.add_argument("--document", required=True, help="paragraph records path")
    gen_qa.add_argument("-n", type=int, required=True, help="samples to draw")
    gen_qa.add_argument("--seed", type=int, default=0, help="passage sampling seed")
    gen_qa.add_argument("--output", required=True, help="QA records output path")
    _add_completion_flags(gen_qa)
    gen_qa.set_defaults(func=cmd_gen_qa)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (LumberkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
