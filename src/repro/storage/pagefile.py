"""Paged disk simulator with page-access accounting.

The paper evaluates every method by *page accesses*: the number of disk pages
fetched while answering a query (Fig. 7) and the total time dominated by those
fetches (Fig. 9).  This module provides the substrate all indexes share:

* :class:`VectorStore` — an ``(n, d)`` collection of vectors laid out
  contiguously in a simulated paged file.  The layout order is an explicit
  permutation, so an index can co-locate the points of a sub-partition on
  neighbouring pages exactly as §VI of the paper prescribes.
* :class:`VectorReader` — a per-query view whose one job is counting the
  *distinct* pages touched (the OS buffer caches a page for the duration of
  a query, matching the paper's "buffering management in the operating
  system"); queries are cold with respect to each other.  The touched set is
  a ``bool`` bitmap over the file's pages, charged by fancy assignment
  (:meth:`VectorReader.charge`), so no Python loop runs per point or per
  page.
* :class:`AccessCounter` — a plain page counter used by index structures
  (B+-tree node visits) where every visit is a page read.

Vectors are accounted as float32 (4 bytes/component), matching how the paper
sizes its datasets (e.g. 17770×300×4B ≈ 84.2MB for Netflix).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AccessCounter",
    "VectorStore",
    "VectorReader",
    "expand_runs",
    "DEFAULT_PAGE_SIZE",
    "BYTES_PER_COMPONENT",
]

DEFAULT_PAGE_SIZE = 4096
BYTES_PER_COMPONENT = 4  # float32, as in the paper's dataset sizing


class AccessCounter:
    """Counts page reads for index structures (one visit = one page)."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        self.pages = 0

    def add(self, n: int = 1) -> None:
        self.pages += n

    def reset(self) -> None:
        self.pages = 0

    def __repr__(self) -> str:
        return f"AccessCounter(pages={self.pages})"


class VectorStore:
    """Simulated paged file of ``n`` fixed-size vectors.

    Args:
        vectors: ``(n, d)`` array; kept in memory, the "disk" is simulated.
        page_size: page size in bytes (4KB in the paper; 64KB for P53).
        layout_order: permutation of point ids giving their on-disk order;
            position ``s`` of the file stores point ``layout_order[s]``.
            Defaults to identity.  Indexes pass the sub-partition order here
            so that a sub-partition occupies a contiguous page run.
        label: diagnostic name used in ``repr``.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        page_size: int = DEFAULT_PAGE_SIZE,
        layout_order: np.ndarray | None = None,
        label: str = "vectors",
    ) -> None:
        vectors = np.ascontiguousarray(vectors)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self._vectors = vectors
        self.page_size = int(page_size)
        self.label = label
        self.n, self.dim = vectors.shape
        self.stride_bytes = self.dim * BYTES_PER_COMPONENT

        if layout_order is None:
            layout_order = np.arange(self.n, dtype=np.int64)
        layout_order = np.asarray(layout_order, dtype=np.int64)
        if layout_order.shape != (self.n,):
            raise ValueError(
                f"layout_order must have shape ({self.n},), got {layout_order.shape}"
            )
        if not np.array_equal(np.sort(layout_order), np.arange(self.n)):
            raise ValueError("layout_order must be a permutation of 0..n-1")
        self._slot_of_point = np.empty(self.n, dtype=np.int64)
        self._slot_of_point[layout_order] = np.arange(self.n, dtype=np.int64)
        self._layout_order = layout_order

        # Pre-compute the page span of every point: the file packs vectors
        # back to back, so point at slot s occupies bytes
        # [s·stride, (s+1)·stride).
        offsets = self._slot_of_point * self.stride_bytes
        self._first_page = offsets // self.page_size
        self._last_page = (offsets + self.stride_bytes - 1) // self.page_size

    @property
    def size_bytes(self) -> int:
        """Total file size in bytes."""
        return self.n * self.stride_bytes

    @property
    def total_pages(self) -> int:
        """Number of pages the file occupies."""
        return -(-self.size_bytes // self.page_size)

    def slot_of(self, point_id: int) -> int:
        """On-disk slot (position) of a point."""
        return int(self._slot_of_point[point_id])

    def pages_of(self, point_id: int) -> range:
        """Page ids occupied by a point (a point wider than a page spans several)."""
        return range(int(self._first_page[point_id]), int(self._last_page[point_id]) + 1)

    def reader(self) -> "VectorReader":
        """A fresh per-query reader with an empty page cache."""
        return VectorReader(self)

    def __repr__(self) -> str:
        return (
            f"VectorStore(label={self.label!r}, n={self.n}, dim={self.dim}, "
            f"page_size={self.page_size}, pages={self.total_pages})"
        )


class VectorReader:
    """Per-query view of a :class:`VectorStore` that tracks distinct pages read.

    A page already fetched during the current query is assumed buffered and is
    not recounted — this mirrors OS buffering within a single query while
    keeping queries cold with respect to each other (the conservative setting
    the paper's page-access numbers imply).

    The touched pages live in a ``bool`` bitmap of ``store.total_pages``
    entries, so charging a batch is one fancy assignment and
    :attr:`pages_touched` one ``count_nonzero``.  A vector covers the pages
    from its first to its last byte: marking the first and the last page is
    exact for vectors narrower than a page (at most two pages, e.g. a
    24-byte stride straddling a 4KB boundary); only vectors wider than a
    page, which can span three or more, need their interior pages marked.
    """

    __slots__ = ("_store", "_touched")

    def __init__(self, store: VectorStore) -> None:
        self._store = store
        self._touched = np.zeros(store.total_pages, dtype=bool)

    @property
    def pages_touched(self) -> int:
        """Number of distinct pages read so far."""
        return int(np.count_nonzero(self._touched))

    @property
    def vectors(self) -> np.ndarray:
        """The store's raw ``(n, d)`` array, indexed by point id.

        Reading through it charges nothing: a caller that gathers vectors
        itself charges their pages with :meth:`charge`.
        """
        return self._store._vectors

    def charge(self, point_ids: np.ndarray) -> None:
        """Charge the pages of a batch of points without fetching them."""
        store = self._store
        point_ids = np.asarray(point_ids, dtype=np.int64)
        firsts = store._first_page[point_ids]
        lasts = store._last_page[point_ids]
        self._touched[firsts] = True
        self._touched[lasts] = True
        if store.stride_bytes > store.page_size:
            wide = lasts - firsts > 1
            if wide.any():
                self._touched[expand_runs(firsts[wide] + 1, lasts[wide])] = True

    def get(self, point_id: int) -> np.ndarray:
        """Fetch one vector, charging its pages on first touch."""
        store = self._store
        self._touched[store._first_page[point_id] : store._last_page[point_id] + 1] = True
        return store._vectors[point_id]

    def get_many(self, point_ids: np.ndarray) -> np.ndarray:
        """Fetch a batch of vectors, charging all their pages on first touch."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        self.charge(point_ids)
        return np.take(self._store._vectors, point_ids, axis=0)

    def scan_all(self) -> np.ndarray:
        """Full sequential scan: touches every page, returns the raw array."""
        self._touched[:] = True
        return self._store._vectors


def expand_runs(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], stops[i])`` over all ``i``.

    One ``repeat`` plus one ``arange`` instead of a loop over the runs;
    runs must satisfy ``starts[i] <= stops[i]``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(stops, dtype=np.int64) - starts
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        ends[-1] if ends.size else 0, dtype=np.int64
    )
