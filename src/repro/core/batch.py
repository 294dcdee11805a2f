"""Batch query accounting.

Recommendation back-ends answer MIP queries for whole user cohorts at once.
Batching is part of the :class:`repro.api.MIPSIndex` protocol, so every index
answers a batch through its own ``search_many`` — natively vectorized
(ProMIPS, Dynamic, Exact, PQ, SimHash, Sharded) or the generic
:class:`repro.api.BatchSearchMixin` loop.  This module only adds the
accounting on top: :func:`search_batch` keeps the list-of-results signature
and aggregates :class:`BatchStats`, and :func:`has_native_batch` tells the
two kinds of ``search_many`` apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import BatchResult, BatchSearchMixin, MIPSIndex, SearchResult

__all__ = ["BatchStats", "search_batch", "has_native_batch"]


@dataclass(frozen=True)
class BatchStats:
    """Aggregate accounting for one batch.

    Attributes:
        n_queries: batch size.
        mean_pages / p95_pages: page-access distribution across queries.
        total_candidates: candidates verified over the whole batch.
    """

    n_queries: int
    mean_pages: float
    p95_pages: float
    total_candidates: int

    @classmethod
    def from_batch(cls, batch: BatchResult) -> "BatchStats":
        # Deferred import: repro.eval pulls the harness in, which imports
        # this module back — at call time the cycle has long resolved.
        from repro.eval.metrics import p95

        if len(batch) == 0:
            return cls(n_queries=0, mean_pages=0.0, p95_pages=0.0, total_candidates=0)
        pages = [s.pages for s in batch.stats]
        return cls(
            n_queries=len(batch),
            mean_pages=float(np.mean(pages)),
            p95_pages=p95(pages),
            total_candidates=int(sum(s.candidates for s in batch.stats)),
        )


def has_native_batch(index: MIPSIndex) -> bool:
    """Whether the index overrides the generic ``search_many`` fallback."""
    impl = getattr(type(index), "search_many", None)
    return impl is not None and impl is not BatchSearchMixin.search_many


def search_batch(
    index: MIPSIndex,
    queries: np.ndarray,
    k: int = 1,
    **search_kwargs,
) -> tuple[list[SearchResult], BatchStats]:
    """Run a batch through ``index.search_many`` and aggregate its statistics.

    Kept for callers that want per-query :class:`SearchResult` objects; new
    code can call ``index.search_many`` directly and keep the columnar
    :class:`repro.api.BatchResult`.

    Args:
        index: any MIPS index (ProMIPS or a baseline).
        queries: ``(n_q, d)`` array (one ``(d,)`` query is promoted).
        k: results per query.
        **search_kwargs: forwarded to the index (e.g. ProMIPS ``c=0.8``).

    Returns:
        The per-query results plus aggregated :class:`BatchStats`.
    """
    batch = index.search_many(queries, k=k, **search_kwargs)
    return list(batch), BatchStats.from_batch(batch)
