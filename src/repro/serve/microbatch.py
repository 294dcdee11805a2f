"""Micro-batching coalescer: N concurrent searches, one GEMM.

An online front-end receives *single* queries from many concurrent clients,
but every index in this repository answers a *batch* far faster than the
same queries looped — the whole point of the vectorized ``search_many``
paths (one GEMM panel instead of N GEMVs, one axis-wise top-k instead of N).
Quantization-serving systems (Guo et al.) assume exactly such a batched
online front-end.  The :class:`MicroBatcher` closes that gap: concurrent
``search`` calls park in a queue, a single dispatcher thread answers them
with **one** ``search_many`` call, and delivers each caller its slice
through a :class:`concurrent.futures.Future`.

The dispatch rule is continuous batching: whenever the index is free and at
least one request is pending, the dispatcher takes up to ``max_batch`` of
them at once.  A request that arrives at an idle index is dispatched
immediately, alone; a batch holds exactly what queued while the previous
dispatch held the index.  No request ever waits for company, so coalescing
costs nothing at low load and amortises the scan under concurrency.

Requests share a batch only when their ``k`` and search kwargs (e.g. a
per-request ``c`` override) match: each take is grouped by ``(k, kwargs)``
and dispatched as one batch per group.  ``k`` cannot be shared by answering
at a larger one and trimming, because for approximate methods ``k`` is part
of the search itself — ProMIPS' stopping conditions test the k-th best
score — so a trimmed top-10 is not the top-1 ``index.search(q, k=1)``
returns.

Queries are validated *at submit time*, so a malformed request fails fast
in its own thread and can never poison the batch it would have joined.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

import numpy as np

from repro.api import SearchResult, validate_k, validate_query

__all__ = ["MicroBatcher", "BatcherClosedError"]


class BatcherClosedError(RuntimeError):
    """A search was submitted to, or still queued in, a closed batcher."""


class _Request:
    __slots__ = ("query", "k", "kwargs", "group", "future")

    def __init__(self, query, k, kwargs):
        self.query = query
        self.k = k
        self.kwargs = kwargs
        self.group = (k, tuple(sorted(kwargs.items())))
        self.future: Future = Future()


class MicroBatcher:
    """Coalesce concurrent single-query searches into batched dispatches.

    Args:
        index: any :class:`repro.api.MIPSIndex`.
        max_batch: most requests answered by one ``search_many`` call.
        index_lock: optional lock held around every ``search_many`` call —
            the serving runtime shares one lock between the dispatcher and
            the mutation endpoints so inserts never interleave a scan.
        telemetry: optional :class:`repro.serve.telemetry.Telemetry`;
            receives the occupancy of every dispatched batch.
    """

    def __init__(
        self,
        index,
        max_batch: int = 32,
        index_lock: threading.Lock | None = None,
        telemetry=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._index = index
        self.max_batch = int(max_batch)
        self._index_lock = index_lock if index_lock is not None else threading.Lock()
        self._telemetry = telemetry
        self._cond = threading.Condition()
        self._pending: list[_Request] = []
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._run, name="repro-microbatch", daemon=True
        )
        self._dispatcher.start()

    # ---------------------------------------------------------------- submit

    def submit(self, query: np.ndarray, k: int = 1, **kwargs) -> Future:
        """Enqueue one search; returns a future resolving to a
        :class:`repro.api.SearchResult`.

        Raises:
            ValueError: malformed query or ``k`` (checked here, in the
                caller's thread, so bad requests never reach a batch).
            BatcherClosedError: the batcher has been closed.
        """
        k = validate_k(k)
        query = validate_query(query, self._index.dim)
        request = _Request(query, k, kwargs)
        try:
            hash(request.group)  # the dispatcher groups by this key
        except TypeError as exc:
            raise ValueError(
                f"search kwargs must be hashable, got {kwargs!r}"
            ) from exc
        with self._cond:
            if self._closed:
                raise BatcherClosedError("cannot submit to a closed MicroBatcher")
            self._pending.append(request)
            self._cond.notify()
        return request.future

    def search(self, query: np.ndarray, k: int = 1, **kwargs) -> SearchResult:
        """Blocking convenience wrapper: ``submit(...).result()``."""
        return self.submit(query, k=k, **kwargs).result()

    # ------------------------------------------------------------ dispatcher

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed, and every queued request answered
                take = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
            try:
                self._dispatch(take)
            except BaseException as exc:
                # The dispatcher must never die: an unexpected failure fails
                # the affected futures (rather than hanging their callers
                # forever) and the loop keeps serving.
                for request in take:
                    if not request.future.done():
                        request.future.set_exception(exc)

    def _dispatch(self, requests: list[_Request]) -> None:
        # One search_many per distinct (k, kwargs) group; groups preserve
        # arrival order, so a uniform take (the common case) is one batch.
        groups: dict[tuple, list[_Request]] = {}
        for request in requests:
            groups.setdefault(request.group, []).append(request)
        for members in groups.values():
            queries = np.stack([r.query for r in members])
            try:
                with self._index_lock:
                    batch = self._index.search_many(
                        queries, k=members[0].k, **members[0].kwargs
                    )
            except BaseException as exc:  # propagate to every waiter
                for request in members:
                    request.future.set_exception(exc)
                continue
            if self._telemetry is not None:
                self._telemetry.record_batch(len(members))
            for i, request in enumerate(members):
                result = batch[i]  # strips the padding of under-filled rows
                result.stats.extras = {
                    **result.stats.extras,
                    "coalesced": len(members),
                }
                request.future.set_result(result)

    # ----------------------------------------------------------------- close

    def close(self) -> None:
        """Stop the dispatcher once every queued request is answered.

        Idempotent.  Later submits raise :class:`BatcherClosedError`, and so
        does any request the dispatcher left queued when it exited, rather
        than hanging its client forever.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()
        with self._cond:
            leftover, self._pending = self._pending, []
        for request in leftover:
            request.future.set_exception(BatcherClosedError("MicroBatcher closed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
