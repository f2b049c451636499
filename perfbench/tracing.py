"""In-memory tracing of lumberkit's public functions, from outside the package.

install() patches each traced function where its caller looks it up (for
example lumberkit.chunker.count_tokens, lumberkit.ragpipe.bm25_topk, or a
backend class's method), so the program itself is unchanged. A span records
name, start, end, parent span and a tag (the document and theta being
chunked, or the question being answered). Functions called more than ~10^4
times per run are only counted: calls and summed seconds, with the time also
charged to the enclosing span so its self time stays right.

fold() turns the stored spans into per-name totals, self times and call
durations; layer_metrics() turns those into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import itertools
import re
import statistics
from time import perf_counter

from endpoint import prompt_tokens

# span record fields
NAME, START, END, PARENT, TAG, COUNTED = range(6)


class Tracer:
    """Span store plus the counters the per-layer ratios need."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.tag: str | None = None
        self.in_rerank = False
        self.last_prompt_tokens = 0
        self.last_rerank_reply: str | None = None

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, *, before=None, after=None, tag=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            saved_tag = self.tag
            if tag is not None:
                self.tag = tag(args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                self.tag = saved_tag
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn, *, after=None):
        spans, stack = self.spans, self.stack
        totals = self.calls.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    spans[stack[-1]][COUNTED] += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_record(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "counts": self.counts}


def install(tracer: Tracer) -> None:
    """Patch every traced function of the eight lumberkit modules."""
    from lumberkit import backends, baselines, chunker, cli, corpus, evaluation, ragpipe

    def patch(targets, name, make):
        for module, attr in targets:
            setattr(module, attr, make(name, getattr(module, attr)))

    def span(**hooks):
        return lambda name, fn: tracer.span(name, fn, **hooks)

    def count(**hooks):
        return lambda name, fn: tracer.counted(name, fn, **hooks)

    def paragraphs_chunked(args, kwargs):
        tracer.add("paragraphs_chunked", len(args[0]))

    # corpus
    patch([(corpus, "split_paragraphs")], "corpus.split_paragraphs", span())
    patch([(cli, "load_document"), (corpus, "load_document")], "corpus.load_document", span())
    patch([(cli, "load_qa")], "corpus.load_qa", span())
    patch([(chunker, "count_tokens"), (baselines, "count_tokens")], "corpus.count_tokens", count())

    # chunker
    def chunk_tag(args, kwargs):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        return f"{args[0].doc_id}@{config.theta if config else 550}"

    patch(
        [(cli, "lumberchunk"), (evaluation, "lumberchunk"), (chunker, "lumberchunk")],
        "chunker.lumberchunk",
        span(before=paragraphs_chunked, tag=chunk_tag),
    )
    patch([(chunker, "build_group")], "chunker.build_group", span())

    def rendered(result, args, kwargs):
        tracer.last_prompt_tokens = prompt_tokens(result)

    patch([(chunker, "render_prompt")], "chunker.render_prompt", span(after=rendered))
    patch([(chunker, "parse_split_id")], "chunker.parse_split_id", span())

    original_steps = chunker.lumber_steps

    def lumber_steps(*args, **kwargs):
        for step in original_steps(*args, **kwargs):
            tracer.add("chunker.windows")
            if step.used_llm:
                tracer.add("chunker.llm_windows")
                tracer.add("chunker.split_requests", step.attempts)
                tracer.add("chunker.retries", step.attempts - 1)
                tracer.add("chunker.prompt_tokens", tracer.last_prompt_tokens * step.attempts)
                if step.fell_back:
                    tracer.add("chunker.fallbacks")
                else:
                    tracer.add("chunker.accepted_splits")
            yield step

    chunker.lumber_steps = lumber_steps

    # backends
    def completed(result, args, kwargs):
        if tracer.in_rerank:
            tracer.last_rerank_reply = result
            tracer.last_prompt_tokens = prompt_tokens(args[1])

    for cls, name in (
        (backends.HttpCompletionBackend, "backends.http_complete"),
        (backends.ReplayBackend, "backends.replay_complete"),
        (backends.ScriptedBackend, "backends.scripted_complete"),
    ):
        patch([(cls, "complete")], name, span(after=completed))

    def cache_read(result, args, kwargs):
        tracer.add("backends.cache_gets")
        if result is not None:
            tracer.add("backends.cache_hits")

    patch([(backends.ResponseCache, "__init__")], "backends.cache_load", span())
    patch([(backends.ResponseCache, "get")], "backends.cache_get", count(after=cache_read))
    patch([(backends.ResponseCache, "put")], "backends.cache_put", count())
    patch(
        [(backends.MockEmbeddingBackend, "embed")],
        "backends.embed",
        span(before=lambda args, kwargs: tracer.add("backends.embed_texts", len(args[1]))),
    )

    # baselines
    for attr, name in (
        ("paragraph_chunks", "baselines.paragraph"),
        ("recursive_chunks", "baselines.recursive"),
        ("semantic_chunks", "baselines.semantic"),
    ):
        patch([(cli, attr)], name, span(before=paragraphs_chunked))

    # index
    patch([(cli, "embed_chunks"), (evaluation, "embed_chunks")], "index.embed_chunks", span())
    patch([(cli, "bm25_build")], "index.bm25_build", span())
    patch([(ragpipe, "bm25_topk")], "index.bm25_topk", span())
    patch([(evaluation, "cosine_topk"), (ragpipe, "cosine_topk")], "index.cosine_topk", span())

    # evaluation
    def scored(runs, args, kwargs):
        tracer.add("evaluation.queries", len(runs))
        tracer.add("evaluation.gold_found", sum(1 for run in runs if run.gold_rank is not None))

    patch([(cli, "sweep_theta")], "evaluation.sweep_theta", span())
    patch([(cli, "evaluate"), (evaluation, "evaluate")], "evaluation.evaluate", span())
    patch([(evaluation, "build_runs")], "evaluation.build_runs", span(after=scored))
    patch([(evaluation, "judge_relevance")], "evaluation.judge_relevance", count())

    # ragpipe
    questions = itertools.count(1)

    def routed(decision, args, kwargs):
        tracer.add("ragpipe.questions")
        if decision.bm25_k == ragpipe.MENTION_BM25_K:
            tracer.add("ragpipe.mention_routes")

    def rerank_started(args, kwargs):
        tracer.in_rerank = True
        tracer.last_rerank_reply = None

    def reranked(result, args, kwargs):
        tracer.in_rerank = False
        reply = tracer.last_rerank_reply
        if reply is None:
            return
        tracer.add("ragpipe.rerank_calls")
        tracer.add("ragpipe.rerank_prompt_tokens", tracer.last_prompt_tokens)
        size = len(args[0])
        if any(1 <= int(m) <= size for m in re.findall(r"\d+", reply)):
            tracer.add("ragpipe.rerank_parsed")

    patch(
        [(cli, "answer_question")],
        "ragpipe.answer_question",
        span(tag=lambda args, kwargs: f"q{next(questions)}"),
    )
    patch([(ragpipe, "detect_mentions")], "ragpipe.detect_mentions", span(after=routed))
    patch([(ragpipe, "hybrid_retrieve")], "ragpipe.hybrid_retrieve", span())
    patch([(ragpipe, "rerank")], "ragpipe.rerank", span(before=rerank_started, after=reranked))
    patch([(ragpipe, "answer")], "ragpipe.answer", span())


def fold(records: list[dict]) -> dict[str, dict]:
    """Per span name, over all records: calls, total seconds, self seconds and
    call durations.

    Self time is a span's duration minus the time its child spans and its
    counted-only callees cover.
    """
    folded: dict[str, dict] = {}

    def entry(name: str) -> dict:
        return folded.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})

    for record in records:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            duration = span[END] - span[START]
            target = entry(span[NAME])
            target["calls"] += 1
            target["total_s"] += duration
            target["self_s"] += duration - child_time[i] - span[COUNTED]
            target["durations"].append(duration)
        for name, (calls, seconds) in record["calls"].items():
            target = entry(name)
            target["calls"] += int(calls)
            target["total_s"] += seconds
            target["self_s"] += seconds
    return folded


def merge_counts(records: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return counts


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile of a non-empty list, linearly interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(values: list[float], q: int) -> float:
    return 1000.0 * percentile(values, q) if values else 0.0


def layer_metrics(folded: dict[str, dict], counts: dict[str, int], service_ms: list[float]):
    """Per-layer metrics as {name: (value, unit, base)}; base names the sample
    count or the denominator behind the value."""
    def get(name: str) -> dict:
        return folded.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str, str]] = {}

    def seconds(metric: str, *names: str) -> None:
        calls = sum(get(n)["calls"] for n in names)
        metrics[metric] = (sum(get(n)["total_s"] for n in names), "s", f"{calls} calls")

    def timing(metric: str, *names: str) -> None:
        durations = [d for n in names for d in get(n)["durations"]]
        for q in (50, 95):
            metrics[f"{metric}_ms_p{q}"] = (_ms(durations, q), "ms", f"{len(durations)} samples")

    def count(metric: str, value: float, base: str = "") -> None:
        metrics[metric] = (value, "count", base)

    def share(metric: str, numerator: float, denominator: float, base: str) -> None:
        metrics[metric] = (ratio(numerator, denominator), "ratio", f"{denominator} {base}")

    paragraphs = counts.get("paragraphs_chunked", 0)
    seconds("corpus.split_paragraphs_s", "corpus.split_paragraphs")
    seconds("corpus.load_s", "corpus.load_document", "corpus.load_qa")
    count("corpus.count_tokens_calls", get("corpus.count_tokens")["calls"])
    seconds("corpus.count_tokens_s", "corpus.count_tokens")
    share("corpus.count_tokens_per_paragraph", get("corpus.count_tokens")["calls"], paragraphs,
          "paragraphs chunked")

    requests = counts.get("chunker.split_requests", 0)
    count("chunker.windows", counts.get("chunker.windows", 0), "build_group calls")
    seconds("chunker.build_group_s", "chunker.build_group")
    seconds("chunker.render_prompt_s", "chunker.render_prompt")
    seconds("chunker.parse_split_id_s", "chunker.parse_split_id")
    metrics["chunker.self_s"] = (get("chunker.lumberchunk")["self_s"], "s",
                                 f"{get('chunker.lumberchunk')['calls']} lumberchunk calls")
    count("chunker.retries", counts.get("chunker.retries", 0), f"{requests} split requests")
    count("chunker.fallbacks", counts.get("chunker.fallbacks", 0),
          f"{counts.get('chunker.llm_windows', 0)} windows sent to the backend")
    share("chunker.accepted_split_share", counts.get("chunker.accepted_splits", 0), requests,
          "split requests")
    count("chunker.prompt_tokens", counts.get("chunker.prompt_tokens", 0), f"{requests} split requests")

    # completion metrics cover requests to the endpoint; replayed answers are
    # cache reads, and the set-up's in-process recording is no client path
    count("backends.completion_calls", get("backends.http_complete")["calls"])
    seconds("backends.completion_wait_s", "backends.http_complete")
    timing("backends.completion", "backends.http_complete")
    client = get("backends.http_complete")["durations"]
    overhead = []
    if len(client) == len(service_ms):
        overhead = [c - s / 1000.0 for c, s in zip(client, service_ms)]
    for q in (50, 95):
        metrics[f"backends.http_overhead_ms_p{q}"] = (_ms(overhead, q), "ms", f"{len(overhead)} samples")
    count("backends.cache_puts", get("backends.cache_put")["calls"])
    seconds("backends.cache_put_s", "backends.cache_put")
    seconds("backends.cache_load_s", "backends.cache_load")
    gets = counts.get("backends.cache_gets", 0)
    count("backends.cache_hits", counts.get("backends.cache_hits", 0), f"{gets} cache reads")
    share("backends.cache_hit_share", counts.get("backends.cache_hits", 0), gets, "cache reads")
    seconds("backends.replay_s", "backends.replay_complete")
    count("backends.embed_calls", get("backends.embed")["calls"])
    count("backends.embed_texts", counts.get("backends.embed_texts", 0))
    seconds("backends.embed_s", "backends.embed")

    for method in ("paragraph", "recursive", "semantic"):
        seconds(f"baselines.{method}_s", f"baselines.{method}")

    seconds("index.embed_chunks_s", "index.embed_chunks")
    seconds("index.bm25_build_s", "index.bm25_build")
    count("index.bm25_topk_calls", get("index.bm25_topk")["calls"])
    timing("index.bm25_topk", "index.bm25_topk")
    count("index.cosine_topk_calls", get("index.cosine_topk")["calls"])
    timing("index.cosine_topk", "index.cosine_topk")

    queries = counts.get("evaluation.queries", 0)
    seconds("evaluation.build_runs_s", "evaluation.build_runs")
    count("evaluation.judge_calls", get("evaluation.judge_relevance")["calls"])
    seconds("evaluation.judge_s", "evaluation.judge_relevance")
    share("evaluation.judge_calls_per_query", get("evaluation.judge_relevance")["calls"], queries,
          "queries")
    share("evaluation.gold_found_share", counts.get("evaluation.gold_found", 0), queries, "queries")

    questions = counts.get("ragpipe.questions", 0)
    for stage in ("answer_question", "hybrid_retrieve", "rerank", "answer"):
        timing(f"ragpipe.{stage}", f"ragpipe.{stage}")
    seconds("ragpipe.detect_mentions_s", "ragpipe.detect_mentions")
    share("ragpipe.mention_route_share", counts.get("ragpipe.mention_routes", 0), questions,
          "questions")
    reranks = counts.get("ragpipe.rerank_calls", 0)
    share("ragpipe.rerank_parsed_share", counts.get("ragpipe.rerank_parsed", 0), reranks,
          "rerank calls")
    count("ragpipe.rerank_prompt_tokens", counts.get("ragpipe.rerank_prompt_tokens", 0),
          f"{reranks} rerank calls")

    cli_spans = [n for n in folded if n.startswith("cli.")]
    metrics["cli.self_s"] = (sum(get(n)["self_s"] for n in cli_spans), "s",
                             f"{sum(get(n)['calls'] for n in cli_spans)} commands")
    return metrics
