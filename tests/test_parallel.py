"""Tests for the order-preserving worker pool."""

from __future__ import annotations

import threading
import time

import pytest

from lumberkit import parallel
from lumberkit.parallel import ordered_map, stream_map


@pytest.fixture(autouse=True)
def four_workers(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 4)


def test_results_keep_input_order():
    # later items finish first
    def slow_for_early(i: int) -> int:
        time.sleep(0.002 * (20 - i))
        return i * i

    assert ordered_map(slow_for_early, range(20)) == [i * i for i in range(20)]


def test_runs_items_concurrently():
    both_running = threading.Barrier(2, timeout=10)

    def meet(item: str) -> str:
        both_running.wait()
        return item

    assert ordered_map(meet, ["a", "b"]) == ["a", "b"]


def test_empty_input():
    assert ordered_map(lambda item: item, []) == []


def test_first_failure_cancels_queued_items():
    started = []
    lock = threading.Lock()

    def work(i: int) -> int:
        with lock:
            started.append(i)
        if i == 3:
            raise ValueError("item 3 failed")
        time.sleep(0.01)
        return i

    with pytest.raises(ValueError, match="item 3 failed"):
        ordered_map(work, range(200))
    assert len(started) < 200
    assert 3 in started


def test_stream_hands_over_results_while_the_worker_runs():
    handed_over = threading.Event()
    consumed = []

    def produce(item: str):
        yield f"{item} first"
        assert handed_over.wait(timeout=10)
        yield f"{item} second"

    def consume(position: int, result: str) -> None:
        consumed.append((position, result))
        handed_over.set()

    stream_map(produce, ["a"], consume)
    assert consumed == [(0, "a first"), (0, "a second")]


def test_consume_failure_stops_workers_after_their_current_result():
    produced: dict[int, int] = {}
    lock = threading.Lock()
    threads = threading.active_count()

    def produce(item: int):
        while True:
            time.sleep(0.005)
            with lock:
                produced[item] = produced.get(item, 0) + 1
            yield item

    def consume(position: int, result: int) -> None:
        raise ValueError(f"could not use item {position}")

    with pytest.raises(ValueError, match="could not use item"):
        stream_map(produce, range(50), consume)
    assert len(produced) <= parallel.WORKERS
    assert max(produced.values()) <= 2
    assert threading.active_count() == threads


def test_items_are_drawn_on_the_calling_thread_while_workers_run():
    first_result = threading.Event()
    drawn_on = []

    def items():
        drawn_on.append(threading.get_ident())
        yield 0
        # the worker must be running item 0 while the next item is drawn
        assert first_result.wait(timeout=10), "item 1 was drawn only after every item"
        drawn_on.append(threading.get_ident())
        yield 1

    def work(i: int) -> int:
        first_result.set()
        return i

    assert ordered_map(work, items()) == [0, 1]
    assert drawn_on == [threading.get_ident()] * 2


def test_a_failed_item_stops_drawing_items():
    drawn = []

    def items():
        for i in range(100):
            drawn.append(i)
            time.sleep(0.005)
            yield i

    def work(i: int) -> int:
        if i == 0:
            raise ValueError("item 0 failed")
        return i

    with pytest.raises(ValueError, match="item 0 failed"):
        ordered_map(work, items())
    assert len(drawn) < 10


def test_an_exception_from_the_items_waits_for_running_items_and_starts_no_queued_one():
    started = []
    lock = threading.Lock()
    all_running = threading.Event()
    threads = threading.active_count()

    def items():
        yield from range(parallel.WORKERS)
        assert all_running.wait(timeout=10)
        yield from range(parallel.WORKERS, parallel.WORKERS + 3)  # queued behind them
        raise RuntimeError("the item source broke")

    def produce(item: int):
        with lock:
            started.append(item)
            if len(started) == parallel.WORKERS:
                all_running.set()
        while True:
            time.sleep(0.005)
            yield item

    with pytest.raises(RuntimeError, match="the item source broke"):
        stream_map(produce, items(), lambda position, result: None)
    assert sorted(started) == list(range(parallel.WORKERS))
    assert threading.active_count() == threads
