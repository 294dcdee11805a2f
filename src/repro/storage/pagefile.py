"""Paged disk simulator with page-access accounting.

The paper evaluates every method by *page accesses*: the number of disk pages
fetched while answering a query (Fig. 7) and the total time dominated by those
fetches (Fig. 9).  This module provides the substrate all indexes share:

* :class:`PageFile` — the one page model.  Slots are packed back to back, so
  a slot's pages, and a slot run's, follow from its position in closed form.
  A query's touched pages are a ``bool`` bitmap over the file, charged by
  fancy assignment; a page charged twice in one query counts once (the OS
  buffer keeps it, matching the paper's "buffering management in the
  operating system"), and queries are cold with respect to each other.
* :class:`VectorStore` — ``(n, d)`` vectors in a :class:`PageFile`, in an
  explicit layout order, so an index can co-locate the points of a
  sub-partition on neighbouring pages exactly as §VI of the paper
  prescribes; :class:`VectorReader` is its per-query view.
* :class:`AccessCounter` — a plain page counter used by index structures
  (B+-tree node visits) where every visit is a page read.

Vectors are accounted as float32 (4 bytes/component), matching how the paper
sizes its datasets (e.g. 17770×300×4B ≈ 84.2MB for Netflix).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AccessCounter",
    "PageFile",
    "VectorStore",
    "VectorReader",
    "expand_runs",
    "invert_layout",
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

    def __repr__(self) -> str:
        return f"AccessCounter(pages={self.pages})"


class PageFile:
    """A simulated file of ``n_slots`` slots of ``width`` components each.

    Slot ``s`` holds bytes ``[s·stride, (s+1)·stride)`` with ``stride_bytes
    = width · BYTES_PER_COMPONENT``, so it covers every page from the one
    holding its first byte to the one holding its last: at most two pages
    for a slot narrower than a page, interior pages only for a wider one.
    """

    __slots__ = ("n_slots", "page_size", "stride_bytes")

    def __init__(self, n_slots: int, width: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.n_slots = int(n_slots)
        self.page_size = int(page_size)
        self.stride_bytes = int(width) * BYTES_PER_COMPONENT

    @property
    def size_bytes(self) -> int:
        """Total file size in bytes."""
        return self.n_slots * self.stride_bytes

    @property
    def total_pages(self) -> int:
        """Number of pages the file occupies."""
        return -(-self.size_bytes // self.page_size)

    def bitmap(self) -> np.ndarray:
        """A fresh per-query ``bool`` page set over the file; the number of
        pages a query read is its ``count_nonzero``."""
        return np.zeros(self.total_pages, dtype=bool)

    def slot_pages(self, slot: int) -> slice:
        """The pages of one slot as a slice of a :meth:`bitmap`: the form of
        :meth:`charge` for a caller that reads one slot at a time."""
        offset = int(slot) * self.stride_bytes
        return slice(offset // self.page_size,
                     (offset + self.stride_bytes - 1) // self.page_size + 1)

    def charge(self, pages: np.ndarray, slots: np.ndarray) -> None:
        """Mark the first and last page of every slot in ``slots`` in the
        bitmap ``pages``, and the interior pages of a slot wider than a page."""
        offsets = np.asarray(slots, dtype=np.int64) * self.stride_bytes
        firsts = offsets // self.page_size
        pages[firsts] = True
        if self.stride_bytes and self.page_size % self.stride_bytes == 0:
            # Page edges fall on slot edges: every slot's last page is its first.
            return
        lasts = (offsets + (self.stride_bytes - 1)) // self.page_size
        pages[lasts] = True
        if self.stride_bytes > self.page_size:
            wide = lasts - firsts > 1
            if wide.any():
                pages[expand_runs(firsts[wide] + 1, lasts[wide])] = True

    def charge_runs(
        self, pages: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> None:
        """Mark the pages of the slot runs ``[starts[i], stops[i])`` in the
        bitmap ``pages``: a non-empty run covers exactly the pages from its
        first byte to its last, one page range per run whatever its length."""
        nonempty = stops > starts
        firsts = starts[nonempty] * self.stride_bytes // self.page_size
        ends = (stops[nonempty] * self.stride_bytes - 1) // self.page_size + 1
        pages[expand_runs(firsts, ends)] = True


class VectorStore:
    """``n`` vectors in a :class:`PageFile` of ``n`` slots (:attr:`file`).

    Args:
        vectors: ``(n, d)`` array; kept in memory, the "disk" is simulated.
        page_size: page size in bytes (4KB in the paper; 64KB for P53).
        layout_order: permutation of point ids giving their on-disk order;
            slot ``s`` of the file stores point ``layout_order[s]``.
            Defaults to identity.  Indexes pass the sub-partition order here
            so that a sub-partition occupies a contiguous page run.  Only a
            non-identity layout keeps a per-point table, the id→slot map.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        page_size: int = DEFAULT_PAGE_SIZE,
        layout_order: np.ndarray | None = None,
    ) -> None:
        vectors = np.ascontiguousarray(vectors)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        self._vectors = vectors
        self.n, self.dim = vectors.shape
        self.file = PageFile(self.n, self.dim, page_size)
        self._slot_of_point = None
        if layout_order is not None:
            slot_of_point = invert_layout(layout_order, self.n)
            if not np.array_equal(slot_of_point, np.arange(self.n)):
                self._slot_of_point = slot_of_point

    def slots(self, point_ids: np.ndarray) -> np.ndarray:
        """On-disk slots (positions) of a batch of points."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        if self._slot_of_point is None:
            return point_ids
        return self._slot_of_point[point_ids]

    def slot_of(self, point_id: int) -> int:
        """On-disk slot (position) of a point."""
        return int(self.slots(point_id))

    def reader(self) -> "VectorReader":
        """A fresh per-query reader with an empty page cache."""
        return VectorReader(self)

    def __repr__(self) -> str:
        return (
            f"VectorStore(n={self.n}, dim={self.dim}, "
            f"page_size={self.file.page_size}, pages={self.file.total_pages})"
        )


class VectorReader:
    """Per-query view of a :class:`VectorStore` that tracks distinct pages
    read in a :meth:`PageFile.bitmap` of the store's file."""

    __slots__ = ("_store", "_touched")

    def __init__(self, store: VectorStore) -> None:
        self._store = store
        self._touched = store.file.bitmap()

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
        self._store.file.charge(self._touched, self._store.slots(point_ids))

    def get(self, point_id: int) -> np.ndarray:
        """Fetch one vector, charging its pages on first touch."""
        store = self._store
        self._touched[store.file.slot_pages(store.slot_of(point_id))] = True
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


def invert_layout(layout_order: np.ndarray, n: int) -> np.ndarray:
    """The id→slot map of a slot layout, ``slot[layout_order[s]] == s``;
    raises ``ValueError`` unless ``layout_order`` is a permutation of ``0..n-1``."""
    layout_order = np.asarray(layout_order, dtype=np.int64)
    if layout_order.shape != (n,) or not np.array_equal(np.sort(layout_order), np.arange(n)):
        raise ValueError(f"layout_order of shape {layout_order.shape} must be a "
                         f"permutation of 0..n-1 for n = {n}")
    slot = np.empty(n, dtype=np.int64)
    slot[layout_order] = np.arange(n, dtype=np.int64)
    return slot


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
