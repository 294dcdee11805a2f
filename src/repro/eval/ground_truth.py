"""Exact top-k ground truth with blocked evaluation and caching."""

from __future__ import annotations

import numpy as np

from repro.core.engine import batch_topk, merge_topk_panels

__all__ = ["GroundTruth"]


class GroundTruth:
    """Exact MIP answers for a fixed dataset/query workload.

    Computes all queries' exact top-``k_max`` in one blocked pass (memory
    stays bounded for big datasets) and serves per-query prefixes from the
    cache.

    Args:
        data: ``(n, d)`` dataset.
        queries: ``(n_q, d)`` queries.
        k_max: largest k any experiment will request (paper sweeps to 100).
        block: dataset rows per matmul block.
    """

    def __init__(
        self,
        data: np.ndarray,
        queries: np.ndarray,
        k_max: int = 100,
        block: int = 16384,
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        queries = np.asarray(queries, dtype=np.float64)
        if data.ndim != 2 or queries.ndim != 2:
            raise ValueError("data and queries must be 2-D arrays")
        if data.shape[1] != queries.shape[1]:
            raise ValueError(
                f"dimension mismatch: data {data.shape[1]} vs queries {queries.shape[1]}"
            )
        n, n_q = data.shape[0], queries.shape[0]
        k_max = min(k_max, n)
        self.k_max = k_max
        self.n_queries = n_q

        # Each block's top-k_max, then a merge with the running answer: both
        # steps keep the engine's (-score, id) order, and a point cut from
        # a block ranks below k_max of that block alone.
        top_ids = np.zeros((n_q, 0), dtype=np.int64)
        top_ips = np.zeros((n_q, 0), dtype=np.float64)
        for start in range(0, n, block):
            ids, ips = batch_topk(queries @ data[start : start + block].T, k_max)
            top_ids, top_ips = merge_topk_panels(
                [top_ids, ids + start], [top_ips, ips], k_max
            )
        self._ids = top_ids
        self._ips = top_ips

    def topk(self, query_index: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact ``(ids, inner_products)`` of query ``query_index`` at ``k``."""
        if not 0 <= query_index < self.n_queries:
            raise IndexError(f"query_index {query_index} out of range")
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in [1, {self.k_max}], got {k}")
        return self._ids[query_index, :k], self._ips[query_index, :k]
