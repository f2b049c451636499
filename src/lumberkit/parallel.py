"""Bounded, order-preserving concurrency for independent backend-bound work.

LLM and embedding calls spend their time waiting on the network, so running
independent items (questions, documents) on a few threads overlaps those
waits. ordered_map returns results in input order, keeping every output file
byte-identical to a sequential run; stream_map hands them over as produced.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# One worker per CPU. HTTP clients cap their connection pools at the same
# number, so a run never holds more connections than it has workers.
WORKERS = os.cpu_count() or 1


def stream_map(
    produce: Callable[[T], Iterable[R]], items: Iterable[T], consume: Callable[[int, R], None]
) -> None:
    """Iterate produce(item) for every item on WORKERS threads and hand each
    result, as soon as it exists, to consume(position of item, result) on the
    calling thread; one item's results come in the order produce yields them.

    items is drawn on the calling thread, one item per submission, while the
    workers run the items already submitted; results are consumed only once
    every item has been drawn. A lazy iterable therefore overlaps its own work
    with the workers'.

    On the first failure, in a worker or in consume, no further item is drawn,
    items not yet started are cancelled and running ones stop after their
    current result. Once they have stopped, consume's exception, else the
    earliest failed item's, is raised. An exception from items itself is
    raised the same way.
    """
    handed: queue.SimpleQueue = queue.SimpleQueue()
    stop = threading.Event()

    def work(position: int, item: T) -> None:
        if stop.is_set():  # started after a failure, before the pool cancelled it
            return
        try:
            for result in produce(item):
                handed.put((position, result))
                if stop.is_set():
                    return
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(max_workers=WORKERS)
    futures: list[Future] = []
    try:
        for item in items:
            future = pool.submit(work, len(futures), item)
            # runs once work has returned, so it queues behind the item's results
            future.add_done_callback(handed.put)
            futures.append(future)
            if stop.is_set():
                break
        for _ in futures:
            while not isinstance(message := handed.get(), Future):
                consume(*message)
            if message.exception() is not None:
                break
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
    # items start in submission order, so every cancelled or skipped item
    # comes after the failed one and result() raises that failure first
    for future in futures:
        future.result()


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply fn to every item on WORKERS threads; results in input order, failing as stream_map."""
    results: dict[int, R] = {}
    stream_map(lambda item: (fn(item),), items, results.__setitem__)
    return [results[position] for position in range(len(results))]
