"""iDistance with the paper's ring + sub-partition pattern (§VI, Fig. 3).

The pattern differs from standard iDistance in two ways:

1. **Quantized ring keys** (Formula 6): ``I(p) = ⌊i·C + dis(p, O_i)/ε⌋`` with
   ``ε = r_avg / Nkey`` derived from the average cluster radius, so each
   partition is sliced into rings of equal width and one key indexes a whole
   ring instead of a single point.
2. **Sub-partitions**: the points of a ring are clustered again with
   ``ksp``-means; each sub-partition keeps a pivot and radius, so a range
   query can discard whole sub-partitions whose bounding sphere misses the
   query sphere, and the points of a sub-partition are laid out contiguously
   on disk (sequential reads instead of random ones).

The B+-tree maps each ring key to the indices of its sub-partitions; every
sub-partition is one row of the flat descriptor arrays (``sp_keys``,
``sp_pivots``, ``sp_radii``) and one slot run of ``layout_order``.

The ring owns the projected points: they are stored once, as ``(m, n)``
slot-ordered columns, and that is the index's projected page file,
``ring.file``: a :class:`~repro.storage.pagefile.PageFile` of ``n`` slots of
``m`` components.  Slot ``s`` holds point ``layout_order[s]``, so a
sub-partition's slot run covers one contiguous page range.  Queries charge
the pages they read to a per-query ``ring.file.bitmap()``: one closed-form
page range per chosen slot run, plus the pages of the one slot
:meth:`RingIDistance.slot_distance` reads for ProMIPS' Quick-Probe radius.

Keys ascend with the sub-partition index, so slot order is B+-tree traversal
order.  The range search exploits that: at m ≈ 6 the sub-partition spheres
are too loose to prune (a first range search keeps a median 97–99.8% of the
points on the yahoo, netflix and sift-like corpora), so instead of gathering
the chosen rows it computes the projected distance of every slot in the
chosen span over the columns (:func:`column_distances`) and masks the slots
of unchosen sub-partitions out.  It reports the slots it keeps in slot
order, unsorted: MIP-Search-II stops after a fraction of them, so the
consumer orders only what it reads, a growing prefix at a time
(:class:`DistanceOrder`).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import kmeans
from repro.index.bptree import BPlusTree
from repro.storage.pagefile import (
    DEFAULT_PAGE_SIZE,
    AccessCounter,
    PageFile,
    expand_runs,
    invert_layout,
)

__all__ = ["DistanceOrder", "RingIDistance", "column_distances"]

# numpy's pairwise summation sums runs of up to this many elements with eight
# accumulators and splits longer runs in two (``PW_BLOCKSIZE``).
_PAIRWISE_BLOCK = 128


def _sum_rows(sq: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sum rows ``lo:hi`` of ``sq`` in place, in the order numpy's contiguous
    ``add.reduce`` sums the elements of one row of the transpose."""
    n = hi - lo
    if n < 8:
        acc = sq[lo]
        for i in range(lo + 1, hi):
            acc += sq[i]
        return acc
    if n <= _PAIRWISE_BLOCK:
        r = sq[lo : lo + 8]
        stop = hi - n % 8
        for i in range(lo + 8, stop, 8):
            r += sq[i : i + 8]
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(stop, hi):
            acc += sq[i]
        return acc
    half = n // 2
    half -= half % 8
    return _sum_rows(sq, lo, lo + half) + _sum_rows(sq, lo + half, hi)


# column_distances works on slot tiles whose (m, tile) float64 temporary
# takes about this many bytes, so it stays in a core's L2 cache: 8192 slots
# at m = 6, the width measured fastest there.
_TILE_BYTES = 6 * 8192 * 8


def _column_tile(m: int) -> int:
    """Slots per :func:`column_distances` tile for ``m`` coordinates."""
    return max(_TILE_BYTES // (8 * m), 1)


def column_distances(columns: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance of every column of ``columns`` (``(m, n)``) to
    ``query`` (``(m,)``).

    Byte-identical to ``np.linalg.norm(columns.T - query, axis=1)``: the
    squared coordinates are summed column by column in the order numpy's
    pairwise summation uses for a contiguous row (left to right below 8
    terms, eight interleaved accumulators up to 128, halves beyond), but
    each step is one vectorized operation over a tile of
    :func:`_column_tile` points instead of a reduction over a 6-wide axis.
    """
    m, n = columns.shape
    out = np.empty(n)
    tile = _column_tile(m)
    sq = np.empty((m, min(tile, n)))
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        part = sq[:, : hi - lo]
        np.subtract(columns[:, lo:hi], query[:, None], out=part)
        part *= part
        np.sqrt(_sum_rows(part, 0, m), out=out[lo:hi])
    return out


class DistanceOrder:
    """The stable ascending order of ``dists``, built a prefix at a time.

    :meth:`head` ``(n)`` equals ``np.argsort(dists, kind="stable")[:n]``, but
    only as much of the order is built as has been asked for.  Each
    extension finds the value at its cut with ``np.partition``, selects the
    positions with ``prev_cut < d <= cut`` in position order, and sorts them
    by distance.  Cutting by value keeps every element tied at the cut, so
    which of them a partition happens to put first cannot matter, and the
    sort falls back to a stable one only when two selected distances are
    equal.  The first prefix holds :attr:`FIRST` positions and each extension
    at least doubles the ordered count.
    """

    # Four of CandidateVerifier's 2048-candidate blocks.
    FIRST = 8192

    __slots__ = ("_dists", "_order", "_filled", "_cut")

    def __init__(self, dists: np.ndarray) -> None:
        self._dists = dists
        self._order = np.empty(dists.size, dtype=np.int64)
        self._filled = 0
        self._cut = -np.inf

    def head(self, n: int) -> np.ndarray:
        """Positions of the ``n`` smallest distances in stable order (fewer if
        ``dists`` holds fewer), a view of the ordered buffer."""
        while self._filled < min(n, self._dists.size):
            self._extend(max(n, self.FIRST, 2 * self._filled))
        return self._order[:n]

    def _extend(self, target: int) -> None:
        dists = self._dists
        if target >= dists.size:
            cut = np.inf
            keep = dists > self._cut
        else:
            cut = np.partition(dists, target - 1)[target - 1]
            keep = dists <= cut
            if self._filled:
                keep &= dists > self._cut
        picked = np.flatnonzero(keep)
        values = dists[picked]
        order = np.argsort(values)
        ranked = values[order]
        if (ranked[1:] == ranked[:-1]).any():
            order = np.argsort(values, kind="stable")
        self._order[self._filled : self._filled + picked.size] = picked[order]
        self._filled += picked.size
        self._cut = cut


class RingIDistance:
    """The paper's iDistance variant (Algorithm 4).

    Sub-partition ``i`` is described by ``sp_keys[i]`` (its ring key,
    Formula 6), ``sp_pivots[i]`` and ``sp_radii[i]`` (its bounding sphere in
    the projected space); its members are the slot run
    ``layout_order[sp_offsets[i]:sp_offsets[i + 1]]`` (see :meth:`members`),
    stored contiguously in the ring's projected page file in that order.

    Args:
        points: ``(n, m)`` projected points to index.
        kp: number of first-stage partitions (paper default 5).
        n_key: rings per average radius, ``Nkey`` (paper default 40).
        ksp: sub-partitions per ring (paper default 10).
        rng: generator for the two k-means stages.
        epsilon: ring width override; default ``r_avg / n_key`` as in §VI.
        order: B+-tree fanout.
        page_size: page size of the projected file and the B+-tree nodes.
    """

    def __init__(
        self,
        points: np.ndarray,
        kp: int,
        n_key: int,
        ksp: int,
        rng: np.random.Generator,
        epsilon: float | None = None,
        order: int = 64,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty 2-D array, got {points.shape}")
        if n_key <= 0:
            raise ValueError(f"n_key must be positive, got {n_key}")
        n = points.shape[0]

        clustering = kmeans(points, kp, rng)
        dist_to_center = np.linalg.norm(
            points - clustering.centers[clustering.labels], axis=1
        )
        r_avg = float(clustering.radii.mean())
        if epsilon is None:
            epsilon = r_avg / n_key if r_avg > 0 else 1.0
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")

        rings = np.floor(dist_to_center / epsilon).astype(np.int64)
        # C separates key ranges of different partitions (Formula 6's constant).
        C = int(rings.max()) + 2
        max_ring = np.full(clustering.n_clusters, -1, dtype=np.int64)
        np.maximum.at(max_ring, clustering.labels, rings)

        # Second clustering stage: ksp-means inside every (partition, ring).
        # Cuts follow (partition, ring) order, so keys come out ascending.
        keys: list[int] = []
        pivots: list[np.ndarray] = []
        radii: list[float] = []
        layout: list[np.ndarray] = []
        group_order = np.lexsort((rings, clustering.labels))
        boundaries = np.flatnonzero(
            np.diff(clustering.labels[group_order]) != 0
        ) + 1
        ring_change = np.flatnonzero(np.diff(rings[group_order]) != 0) + 1
        cuts = np.unique(np.concatenate(([0], boundaries, ring_change, [n])))
        for start, end in zip(cuts[:-1], cuts[1:]):
            member_idx = group_order[start:end]
            key = int(clustering.labels[member_idx[0]]) * C + int(rings[member_idx[0]])
            sub = kmeans(points[member_idx], ksp, rng)
            for j in range(sub.n_clusters):
                local = sub.cluster_members(j)
                if local.size == 0:
                    continue
                keys.append(key)
                pivots.append(sub.centers[j])
                radii.append(float(sub.radii[j]))
                layout.append(member_idx[local])

        self._install(points, {
            "centers": clustering.centers,
            "epsilon": np.array([epsilon], dtype=np.float64),
            "C": np.array([C], dtype=np.int64),
            "n_key": np.array([n_key], dtype=np.int64),
            "ksp": np.array([ksp], dtype=np.int64),
            "max_ring": max_ring,
            "sp_keys": np.array(keys, dtype=np.int64),
            "sp_pivots": np.stack(pivots),
            "sp_radii": np.array(radii),
            "sp_offsets": np.cumsum([0] + [ids.size for ids in layout]),
            "layout_order": np.concatenate(layout),
        }, order, page_size)

    def _install(
        self,
        points: np.ndarray,
        state: dict[str, np.ndarray],
        order: int,
        page_size: int,
    ) -> None:
        """Set the geometry arrays from :meth:`state`-shaped input, build
        the B+-tree over the sub-partition keys and lay the points out as
        slot-ordered columns.

        Raises ``ValueError`` naming the state key that does not fit the
        points, so an inconsistent envelope fails on load instead of on its
        first query.
        """
        self.n, self.dim = points.shape
        self.file = PageFile(self.n, self.dim, page_size)
        self.centers = np.asarray(state["centers"], dtype=np.float64)
        self.kp = self.centers.shape[0]
        self.epsilon = float(state["epsilon"][0])
        self.C = int(state["C"][0])
        self.n_key = int(state["n_key"][0])
        self.ksp = int(state["ksp"][0])
        self.max_ring = np.asarray(state["max_ring"], dtype=np.int64)
        self.sp_keys = np.asarray(state["sp_keys"], dtype=np.int64)
        self.sp_pivots = np.asarray(state["sp_pivots"], dtype=np.float64)
        self.sp_radii = np.asarray(state["sp_radii"], dtype=np.float64)
        self.sp_offsets = np.asarray(state["sp_offsets"], dtype=np.int64)
        self.layout_order = np.asarray(state["layout_order"], dtype=np.int64)
        # A repeated id would sit in two slots, and a range search would
        # report it twice.
        invert_layout(self.layout_order, self.n)
        for key in ("centers", "sp_pivots"):
            width = getattr(self, key).shape[1]
            if width != self.dim:
                raise ValueError(
                    f"{key} are {width}-dimensional, but the points are "
                    f"{self.dim}-dimensional"
                )
        offsets = self.sp_offsets
        if (
            offsets.shape != (self.sp_keys.size + 1,)
            or offsets[0] != 0
            or offsets[-1] != self.n
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise ValueError(
                f"sp_offsets must run from 0 to {self.n} without decreasing, "
                f"one entry per sub-partition plus one"
            )
        # The range search reads slots in ascending order as B+-tree
        # traversal order, which holds because keys ascend with the index.
        if np.any(self.sp_keys[1:] < self.sp_keys[:-1]):
            raise ValueError("sp_keys must be non-decreasing")
        self._tree = BPlusTree(
            self.sp_keys, np.arange(self.sp_keys.size, dtype=np.int64), order
        )
        # Column j, slot s holds coordinate j of point layout_order[s]: one
        # gather per row, with no transient (n, m) copy as a fancy-indexed
        # ``points[layout_order].T`` would make.
        self._columns = np.empty((self.dim, self.n))
        for j in range(self.dim):
            np.take(points[:, j], self.layout_order, out=self._columns[j])
        self._pivot_columns = np.ascontiguousarray(self.sp_pivots.T)

    # -------------------------------------------------------- persistence

    def state(self) -> dict[str, np.ndarray]:
        """Geometry of the index as plain arrays (for serialization).

        Together with the projected points this is sufficient to rebuild the
        index without re-running either k-means stage.
        """
        return {
            "centers": self.centers,
            "epsilon": np.array([self.epsilon]),
            "C": np.array([self.C], dtype=np.int64),
            "n_key": np.array([self.n_key], dtype=np.int64),
            "ksp": np.array([self.ksp], dtype=np.int64),
            "max_ring": self.max_ring,
            "sp_keys": self.sp_keys,
            "sp_pivots": self.sp_pivots,
            "sp_radii": self.sp_radii,
            "sp_offsets": self.sp_offsets,
            "layout_order": self.layout_order,
        }

    @classmethod
    def from_state(
        cls,
        points: np.ndarray,
        state: dict[str, np.ndarray],
        order: int = 64,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "RingIDistance":
        """Rebuild an index from :meth:`state` output (no clustering runs).

        Envelopes written before 1.8 also carry ``sp_members``, a copy of
        ``layout_order``; it is ignored.
        """
        self = object.__new__(cls)
        self._install(np.asarray(points, dtype=np.float64), state, order, page_size)
        return self

    @property
    def n_subpartitions(self) -> int:
        return self.sp_keys.size

    def members(self, i: int) -> np.ndarray:
        """Point ids of sub-partition ``i``, in on-disk order (a view)."""
        return self.layout_order[self.sp_offsets[i] : self.sp_offsets[i + 1]]

    def index_size_bytes(self) -> int:
        """The projected file (``n · m`` float32 components) plus B+-tree
        nodes and sub-partition descriptors (pivot, radius, extent)."""
        descriptor_bytes = self.sp_pivots.nbytes + 24 * self.n_subpartitions
        meta = self.centers.nbytes + self.max_ring.nbytes
        return (
            self.file.size_bytes
            + self._tree.size_bytes(self.file.page_size)
            + descriptor_bytes
            + meta
        )

    # ------------------------------------------------------- page accounting

    def read_slot(self, slot: int, pages: np.ndarray) -> np.ndarray:
        """The coordinates stored at ``slot``, as a contiguous ``(m,)`` row;
        charges the slot's pages to ``pages``."""
        pages[self.file.slot_pages(slot)] = True
        return self._columns[:, slot].copy()

    def slot_distance(self, slot: int, query: np.ndarray, pages: np.ndarray) -> float:
        """The distance from the point at ``slot`` to ``query``, computed by
        the range search's kernel (so it keeps that point in a range search
        of this radius); charges the slot's pages to ``pages``."""
        row = self.read_slot(slot, pages)
        return float(column_distances(row[:, None], query)[0])

    # ------------------------------------------------------------------ search

    def _candidate_subpartitions(
        self,
        query: np.ndarray,
        radius: float,
        tree_counter: AccessCounter | None,
    ) -> np.ndarray:
        """Indices of the sub-partitions whose bounding sphere intersects the
        query sphere, in B+-tree traversal order (which is ascending)."""
        center_dists = np.linalg.norm(self.centers - query[None, :], axis=1)
        # Every distance here is rounded (relative error of order m/2 ulps),
        # so a point the exact ``dists <= radius`` mask of the range search
        # keeps may sit a few ulps outside a computed bound.  Both prunes
        # below keep a relative slack of m + 8 ulps for it; the mask still
        # decides the answer.
        slack = (self.dim + 8) * np.finfo(np.float64).eps
        # Ring bounds are clamped in float before the cast, so a huge radius
        # (or a tiny epsilon) cannot wrap the int64 keys; on the clamped,
        # non-negative values the cast is Formula 6's floor.  The +1 guards
        # the upper floor against a one-ulp undershoot of the ring boundary,
        # and sub-partition sphere tests discard any excess.
        lo = (center_dists * (1.0 - slack) - radius * (1.0 + slack)) / self.epsilon
        lo_ring = np.minimum(np.maximum(lo, 0.0), self.max_ring + 1.0).astype(np.int64)
        hi_ring = np.minimum((center_dists + radius) / self.epsilon, self.max_ring)
        hi_ring = np.minimum(hi_ring.astype(np.int64) + 1, self.max_ring)
        reached = np.flatnonzero((self.max_ring >= 0) & (lo_ring <= self.max_ring))
        base = reached * self.C
        starts, stops = self._tree.range(
            base + lo_ring[reached], base + hi_ring[reached], counter=tree_counter
        )
        sel = self._tree.values[expand_runs(starts, stops)]
        pivot_dists = column_distances(self._pivot_columns, query)[sel]
        return sel[pivot_dists <= (radius + self.sp_radii[sel]) * (1.0 + slack)]

    def range_search(
        self,
        query: np.ndarray,
        radius: float,
        tree_counter: AccessCounter | None = None,
        pages: np.ndarray | None = None,
        min_radius: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ids/distances of points with ``min_radius < dis(P(o), P(q)) <= radius``.

        ``min_radius > 0`` turns the search into an annulus scan, used by the
        compensation pass of MIP-Search-II so already-verified points are not
        reported twice.  Results come in ascending slot order (candidate
        order), not sorted by distance: Algorithm 3 consumes them in
        ascending distance but stops early, so its verifier orders only the
        prefix it reads (:class:`DistanceOrder`, ties in slot order).

        The chosen sub-partitions are slot runs of the §VI sequential layout,
        in ascending slot order.  Distances come from the ring's own
        slot-ordered columns: one :func:`column_distances` pass over the span
        from the first chosen slot to the last, masked down to the chosen
        runs and the annulus.  ``pages`` (a ``ring.file.bitmap()``), if given,
        is charged the pages of the chosen runs in closed form, one page
        range per run.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {query.shape}")
        if not 0 <= radius < np.inf:
            raise ValueError(f"radius must be finite and non-negative, got {radius}")
        chosen = self._candidate_subpartitions(query, radius, tree_counter)
        starts = self.sp_offsets[chosen]
        stops = self.sp_offsets[chosen + 1]
        if pages is not None:
            self.file.charge_runs(pages, starts, stops)
        if chosen.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        lo, hi = int(starts[0]), int(stops[-1])
        dists = column_distances(self._columns[:, lo:hi], query)
        # One flag per sub-partition of the span, repeated over its slots.
        first, last = int(chosen[0]), int(chosen[-1]) + 1
        in_chosen = np.zeros(last - first, dtype=bool)
        in_chosen[chosen - first] = True
        keep = np.repeat(in_chosen, np.diff(self.sp_offsets[first : last + 1]))
        keep &= dists <= radius
        keep &= dists > min_radius
        slots = np.flatnonzero(keep)
        return self.layout_order[lo + slots], dists[slots]

    def knn_iterate(
        self,
        query: np.ndarray,
        tree_counter: AccessCounter | None = None,
        pages: np.ndarray | None = None,
    ):
        """Yield ``(point_id, distance)`` in strictly non-decreasing distance order.

        Implements the incremental NN search over this index that Algorithm 1
        (MIP-Search-I) requires: the radius doubles until the dataset is
        exhausted, and points are only emitted once their distance is covered
        by a completed range search, which also checks the query.
        """
        radius = max(self.epsilon, 1e-12)
        emitted = 0
        # The annulus lower bound is strict; -1 keeps distance-0 points in
        # the first round.
        prev_radius = -1.0
        while emitted < self.n:
            ids, dists = self.range_search(
                query, radius, tree_counter, pages, min_radius=prev_radius
            )
            order = DistanceOrder(dists).head(dists.size)
            for pid, dist in zip(ids[order].tolist(), dists[order].tolist()):
                yield pid, dist
                emitted += 1
            prev_radius = radius
            radius *= 2.0
