"""Bounded, order-preserving concurrency for independent backend-bound work.

LLM and embedding calls spend their time waiting on the network, so running
independent items (questions, documents) on a few threads overlaps those
waits. Results always come back in input order, which keeps every output
file byte-identical to a sequential run.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# One worker per CPU. HTTP clients cap their connection pools at the same
# number, so a run never holds more connections than it has workers.
WORKERS = os.cpu_count() or 1


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply fn to every item on WORKERS threads; results in input order.

    On the first failure the items not yet started are cancelled, the ones
    running are waited for, and the exception of the earliest failed item is
    raised, so a dead backend stops the run without issuing further work.
    """
    pool = ThreadPoolExecutor(max_workers=WORKERS)
    try:
        futures = [pool.submit(fn, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # items start in submission order, so every cancelled item comes after
    # the failed one and result() raises that failure before reaching them
    return [future.result() for future in futures]
