"""One long-lived thread pool per owner, for work that releases the GIL.

An index that splits a call into independent items — the shards of a
:class:`~repro.core.sharded.ShardedIndex`, the rows of a
:meth:`~repro.core.promips.ProMIPS.search_many` batch — runs them through
its own :class:`FanOut`.  The items' largest kernels (BLAS products,
``np.take``, ``np.partition``/``argsort``, ``nonzero``) release the GIL, so
threads overlap them on real cores.

Every item runs exactly as it would alone: ``map`` only decides on which
thread.  It runs the items on the calling thread when there is one item,
when the process may use one CPU, or when the caller is itself a fan-out
worker (a shard worker running its shard's rows), so fan-outs never nest
and a pool never waits on itself.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, TypeVar

__all__ = ["FanOut", "fanout_width"]

T = TypeVar("T")

# Marks the threads of every FanOut pool (set by the pool's initializer).
_worker = threading.local()


def fanout_width() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one (``taskset`` or a cpuset narrows it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mark_worker() -> None:
    _worker.active = True


class FanOut:
    """A lazily created thread pool, as wide as the usable CPUs.

    The pool starts at the first call that fans out, so an owner that only
    ever answers single items starts no thread.  Its idle workers exit when
    the owner (and so the pool) is garbage-collected.

    Args:
        name: prefix of the pool's thread names.
        max_width: most workers for an owner whose calls never have more
            items (a sharded index's shard count); ``None`` for no cap.
    """

    __slots__ = ("_name", "_max_width", "_pool", "_lock")

    def __init__(self, name: str, max_width: int | None = None) -> None:
        self._name = name
        self._max_width = max_width
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def map(self, fn: Callable[[int], T], n: int) -> list[T]:
        """``[fn(0), ..., fn(n - 1)]``, one pool task per item.

        Every item has finished when ``map`` returns or raises; an
        exception raised by an item propagates (the first in item order),
        and items not yet started are cancelled.
        """
        if n <= 1 or getattr(_worker, "active", False):
            return [fn(i) for i in range(n)]
        width = fanout_width()
        if self._max_width is not None:
            width = min(width, self._max_width)
        if width <= 1:
            return [fn(i) for i in range(n)]
        pool = self._executor(width)
        futures = [pool.submit(fn, i) for i in range(n)]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise

    def _executor(self, width: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=width,
                    thread_name_prefix=self._name,
                    initializer=_mark_worker,
                )
            return self._pool
