"""Dynamic LLM-driven document chunking with retrieval evaluation tooling."""

# set before the submodule imports: backends sends it as its User-Agent
__version__ = "0.1.0"

from .backends import (
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
    ScriptedBackend,
)
from .baselines import (
    RecursiveConfig,
    SemanticConfig,
    hyde_transform,
    paragraph_chunks,
    proposition_chunks,
    propositionize,
    recursive_chunks,
    semantic_chunks,
)
from .chunker import (
    Chunk,
    ChunkerConfig,
    ChunkingAborted,
    Group,
    LumberStep,
    build_group,
    chunk_stats,
    lumber_steps,
    lumberchunk,
    parse_split_id,
    read_chunks,
    render_prompt,
    verify_partition,
    write_chunks,
)
from .corpus import (
    Document,
    Paragraph,
    QAPair,
    count_tokens,
    generate_qa,
    load_document,
    load_qa,
    read_records,
    split_paragraphs,
    write_document,
    write_qa,
)
from .errors import ConfigError, LumberkitError
from .evaluation import (
    MetricsReport,
    RetrievalRun,
    dcg_at_k,
    evaluate,
    judge_relevance,
    recall_at_k,
    sweep_theta,
)
from .index import (
    Bm25Index,
    VectorIndex,
    bm25_build,
    bm25_topk,
    cosine_topk,
    embed_chunks,
)
from .ragpipe import (
    ContextAssembly,
    RoutingDecision,
    answer,
    answer_question,
    detect_mentions,
    hybrid_retrieve,
    midpoint_reverse,
    qa_accuracy,
    rerank,
)
