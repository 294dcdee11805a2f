"""QALSH — query-aware LSH for c-approximate NN search (Huang et al., PVLDB 2015).

H2-ALSH solves the NN sub-problems of its norm shells with the disk-resident
QALSH, and the paper we reproduce states explicitly: "To evaluate the page
access, we employ the disk-resident QALSH in the implementation of H2-ALSH."

QALSH draws ``m`` query-*oblivious* projections ``h_i(o) = a_i · o`` but makes
the *bucketing* query-aware: for a query ``q``, point ``o`` collides under
``h_i`` at search radius ``R`` iff ``|h_i(o) − h_i(q)| ≤ w·R/2``.  A point
becomes a candidate once it collides in at least ``l`` of the ``m``
projections (collision counting); *virtual rehashing* grows ``R`` by factor
``c`` per round, which widens every window without rebuilding anything.

Parameters follow the QALSH paper: with target error probability ``δ``,
candidate-fraction ``β`` and approximation ratio ``c``:

    ``p1 = pr_collision(1)``, ``p2 = pr_collision(c)``,
    ``m = ⌈ (√ln(2/β) + √ln(1/δ))² / (2(p1 − p2)²) ⌉``,
    ``l = ⌈ α·m ⌉`` with ``α = (√ln(2/β)·p1 + √ln(1/δ)·p2) / (√ln(2/β) + √ln(1/δ))``

where ``pr_collision(x) = 2Φ(w/(2x)) − 1`` and ``w = sqrt(8c²·ln c / (c²−1))``
is the variance-optimal bucket width.

Disk model: each projection's ``(h_i(o), id)`` pairs are a key-sorted
B+-tree leaf level; a query descends once per tree (height pages) and then
scans leaf pages outward from the query's position, which is exactly how the
windows of virtual rehashing touch pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.api import validate_k
from repro.core.rng import resolve_rng
from repro.index.bptree import level_sizes
from repro.stats.special import std_normal_cdf
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, VectorReader

__all__ = ["QALSHParams", "qalsh_collision_probability", "derive_qalsh_params", "QALSH"]

# A (key, id) leaf entry: float32 projection + int32 id.
_ENTRY_BYTES = 8


@dataclass(frozen=True)
class QALSHParams:
    """Derived QALSH parameters.

    Attributes:
        c: approximation ratio for the NN search (> 1).
        w: bucket width.
        n_hash: number of hash functions (``m`` in the QALSH paper).
        threshold: collision-count threshold (``l``).
        beta: candidate fraction (budget ``β·n + k - 1`` exact verifications).
        delta: target error probability.
    """

    c: float
    w: float
    n_hash: int
    threshold: int
    beta: float
    delta: float


def qalsh_collision_probability(w: float, x: float) -> float:
    """``Pr[|a·(o−q)| ≤ w·x/2 / x] = 2Φ(w/(2x)) − 1`` for distance ``x``."""
    if x <= 0:
        return 1.0
    return 2.0 * std_normal_cdf(w / (2.0 * x)) - 1.0


def derive_qalsh_params(
    n: int,
    c: float = 2.0,
    delta: float = 0.1,
    beta: float | None = None,
    max_hash: int = 120,
) -> QALSHParams:
    """Instantiate the QALSH formulas for a dataset of size ``n``.

    ``max_hash`` caps the table count so that simulated builds stay cheap; the
    cap only binds for tiny ``β`` (huge ``n``) and is recorded in the params.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if c <= 1.0:
        raise ValueError(f"QALSH approximation ratio must exceed 1, got {c}")
    if beta is None:
        beta = min(1.0, 100.0 / n)
    w = math.sqrt(8.0 * c * c * math.log(c) / (c * c - 1.0))
    p1 = qalsh_collision_probability(w, 1.0)
    p2 = qalsh_collision_probability(w, c)
    term_beta = math.sqrt(math.log(2.0 / beta))
    term_delta = math.sqrt(math.log(1.0 / delta))
    n_hash = math.ceil((term_beta + term_delta) ** 2 / (2.0 * (p1 - p2) ** 2))
    n_hash = max(4, min(n_hash, max_hash))
    alpha = (term_beta * p1 + term_delta * p2) / (term_beta + term_delta)
    threshold = max(1, math.ceil(alpha * n_hash))
    return QALSHParams(c=c, w=w, n_hash=n_hash, threshold=threshold, beta=beta, delta=delta)


class QALSH:
    """Disk-resident QALSH index over a point set.

    Args:
        points: ``(n, d)`` points to index (H2-ALSH passes QNF-transformed
            shells).
        params: derived :class:`QALSHParams`; ``None`` uses
            :func:`derive_qalsh_params` defaults.
        rng: generator or seed for the projection vectors.
        page_size: leaf page size for page accounting.
        vectors: pre-drawn ``(n_hash, d)`` projection vectors (persistence
            path); when given, ``rng`` is unused.
    """

    def __init__(
        self,
        points: np.ndarray,
        rng: np.random.Generator | int | None = None,
        params: QALSHParams | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        vectors: np.ndarray | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty 2-D array, got {points.shape}")
        self._points = points
        self.n, self.dim = points.shape
        self.params = params or derive_qalsh_params(self.n)
        self.page_size = int(page_size)
        self.entries_per_page = max(1, self.page_size // _ENTRY_BYTES)

        if vectors is None:
            self._vectors = resolve_rng(rng).standard_normal(
                (self.params.n_hash, self.dim)
            )
        else:
            vectors = np.asarray(vectors, dtype=np.float64)
            if vectors.shape != (self.params.n_hash, self.dim):
                raise ValueError(
                    f"vectors must have shape ({self.params.n_hash}, {self.dim}), "
                    f"got {vectors.shape}"
                )
            self._vectors = vectors
        projections = points @ self._vectors.T  # (n, n_hash)
        self._sorted_proj = np.empty_like(projections.T)
        self._sorted_ids = np.empty((self.params.n_hash, self.n), dtype=np.int64)
        for i in range(self.params.n_hash):
            order = np.argsort(projections[:, i], kind="stable")
            self._sorted_proj[i] = projections[order, i]
            self._sorted_ids[i] = order

        # Shape of a B+-tree whose leaves hold the entries; fanout matches
        # one page of (separator, child) pairs.
        levels = level_sizes(self.n, self.entries_per_page, max(2, self.entries_per_page))
        self.tree_height = len(levels)
        self.leaf_pages_per_table = levels[0]

    @property
    def projection_vectors(self) -> np.ndarray:
        """The ``(n_hash, d)`` projection vectors (persistence state)."""
        return self._vectors

    def index_size_bytes(self) -> int:
        """All hash tables: (projection, id) pairs plus the projection vectors."""
        tables = self.params.n_hash * self.n * _ENTRY_BYTES
        return tables + self._vectors.nbytes

    def _initial_radius(self, gaps: np.ndarray) -> float:
        """A data-adaptive starting radius for virtual rehashing.

        QALSH assumes distances start at 1 after dataset normalization; here
        shells have arbitrary scale, so the first radius is set from the
        closest projections: the window ``w·R/2`` should just admit the
        nearest few entries per table.
        """
        finite = gaps[np.isfinite(gaps)]
        if finite.size == 0:
            return 1.0
        base = float(np.median(finite))
        return max(2.0 * base / self.params.w, 1e-12)

    def search(
        self,
        query: np.ndarray,
        k: int,
        reader: VectorReader | None = None,
        index_pages: list[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """c-k-ANN search with collision counting and virtual rehashing.

        Args:
            query: ``(d,)`` query in the indexed space.
            k: neighbours requested.
            reader: reader over the *indexed* points for verification page
                accounting (optional; the verification itself uses the
                in-memory array).
            index_pages: single-element list accumulating hash-table page
                reads (descents + leaf windows), if provided.

        Returns:
            ``(ids, distances, n_verified)`` sorted ascending by distance.
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise ValueError(f"query has dimension {query.shape[0]}, expected {self.dim}")
        k = validate_k(k)
        k = min(k, self.n)
        params = self.params
        m = params.n_hash

        q_proj = self._vectors @ query  # (m,)
        positions = np.array(
            [np.searchsorted(self._sorted_proj[i], q_proj[i]) for i in range(m)],
            dtype=np.int64,
        )
        left = positions - 1  # next entry to inspect on the left
        right = positions.copy()  # next entry to inspect on the right

        counts = np.zeros(self.n, dtype=np.int32)
        is_candidate = np.zeros(self.n, dtype=bool)
        verified: dict[int, float] = {}
        budget = int(params.beta * self.n) + k - 1

        nearest_gaps = np.full(m, np.inf)
        for i in range(m):
            if right[i] < self.n:
                nearest_gaps[i] = abs(self._sorted_proj[i][right[i]] - q_proj[i])
            if left[i] >= 0:
                nearest_gaps[i] = min(
                    nearest_gaps[i], abs(q_proj[i] - self._sorted_proj[i][left[i]])
                )
        radius = self._initial_radius(nearest_gaps)

        def verify_batch(pids: np.ndarray) -> None:
            if pids.size == 0:
                return
            if reader is not None:
                vecs = reader.get_many(pids)
            else:
                vecs = self._points[pids]
            dists = np.linalg.norm(vecs - query[None, :], axis=1)
            for pid, dist in zip(pids.tolist(), dists.tolist()):
                verified[pid] = float(dist)

        while True:
            half_window = params.w * radius / 2.0
            # Virtual rehashing round: widen every table's window to
            # ±w·R/2 around the query projection and bulk-count the newly
            # admitted entries.
            for i in range(m):
                proj = self._sorted_proj[i]
                ids = self._sorted_ids[i]
                new_right = int(np.searchsorted(proj, q_proj[i] + half_window, side="right"))
                new_left = int(np.searchsorted(proj, q_proj[i] - half_window, side="left")) - 1
                if new_right > right[i]:
                    np.add.at(counts, ids[right[i] : new_right], 1)
                    right[i] = new_right
                if new_left < left[i]:
                    np.add.at(counts, ids[new_left + 1 : left[i] + 1], 1)
                    left[i] = new_left
            crossed = np.flatnonzero((counts >= params.threshold) & ~is_candidate)
            if crossed.size:
                is_candidate[crossed] = True
                verify_batch(crossed)
            # Terminal tests of c-k-ANN: enough close answers, or budget.
            if len(verified) > budget:
                break
            if len(verified) >= k:
                kth = np.partition(
                    np.fromiter(verified.values(), dtype=np.float64, count=len(verified)),
                    k - 1,
                )[k - 1]
                if kth <= params.c * radius:
                    break
            if bool(np.all(left < 0) and np.all(right >= self.n)):
                break
            radius *= params.c

        # Charge hash-table pages: one descent per table plus the scanned
        # leaf window (contiguous entries around the query position).
        if index_pages is not None:
            pages = 0
            for i in range(m):
                span = int(right[i] - (left[i] + 1))
                span_pages = -(-span // self.entries_per_page) if span > 0 else 1
                pages += self.tree_height + span_pages
            index_pages[0] += pages

        if not verified and self.n > 0:
            # Degenerate guard: collision threshold never reached (can only
            # happen with extreme parameters); fall back to the single
            # closest projected entry.
            fallback = int(self._sorted_ids[0][min(max(int(positions[0]), 0), self.n - 1)])
            verify_batch(np.array([fallback], dtype=np.int64))

        id_arr = np.fromiter(verified.keys(), dtype=np.int64, count=len(verified))
        dist_arr = np.fromiter(verified.values(), dtype=np.float64, count=len(verified))
        order = np.argsort(dist_arr, kind="stable")[:k]
        return id_arr[order], dist_arr[order], len(verified)
