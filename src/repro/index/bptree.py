"""Static B+-tree over sorted key arrays, with per-search page accounting.

iDistance (§II-C / §VI of the paper) organises one-dimensional keys in a
single B+-tree — the "lightweight index" that replaces the hundreds of hash
tables LSH methods need.  Every tree here is bulk-loaded and never mutated,
so it is fully described by its sorted keys, their values and its ``order``
(max entries per node): leaf ``j`` holds entries ``[j·order, (j+1)·order)``
and each internal level packs ``order`` children per node.  A range search
is two ``searchsorted`` calls, and the pages it reads are counted in closed
form against an :class:`repro.storage.AccessCounter`: the internal nodes of
one root-to-leaf descent plus every leaf the forward leaf walk crosses.

Keys may be ints or floats; duplicate keys are allowed and keep their
insertion order.
"""

from __future__ import annotations

import numpy as np

from repro.storage.pagefile import AccessCounter

__all__ = ["BPlusTree", "level_sizes"]

DEFAULT_ORDER = 64


def level_sizes(n_entries: int, leaf_capacity: int, fanout: int) -> list[int]:
    """Node counts per level, leaves first, of a bulk-loaded B+-tree.

    An empty tree still has one (empty) leaf; the list's length is the
    tree's height and its last entry is the root's 1.
    """
    sizes = [max(1, -(-n_entries // leaf_capacity))]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // fanout))
    return sizes


class BPlusTree:
    """Immutable bulk-loaded B+-tree held as its sorted key and value arrays.

    Args:
        keys: 1-D keys, sorted ascending; duplicates allowed.
        values: one value per key, in the same order.
        order: max entries per node (= page fanout).
    """

    def __init__(self, keys, values, order: int = DEFAULT_ORDER) -> None:
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        keys, values = np.asarray(keys), np.asarray(values)
        if keys.ndim != 1 or values.shape != keys.shape:
            raise ValueError("keys and values must be 1-D arrays of one length")
        if (keys[1:] < keys[:-1]).any():
            raise ValueError("keys must be sorted ascending")
        self.keys, self.values, self.order = keys, values, order
        sizes = level_sizes(keys.size, order, order)
        self.height, self.n_nodes, self._n_leaves = len(sizes), sum(sizes), sizes[0]
        self._leaf_mins = keys[::order]

    def size_bytes(self, page_size: int) -> int:
        """Index size if each node occupies one page."""
        return self.n_nodes * page_size

    def range(self, lo, hi, counter: AccessCounter | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Entry runs ``[starts[i], stops[i])`` with ``lo[i] <= key <= hi[i]``.

        ``lo`` and ``hi`` are equal-length arrays of inclusive bounds; the
        matches of range ``i`` are ``values[starts[i]:stops[i]]``, in key
        order, and an inverted range is empty.  Each range with
        ``lo <= hi`` charges ``counter`` one page per internal node of its
        descent plus one per leaf walked.  The descent is left-biased: it
        lands on the last leaf whose first key is ``< lo`` (or leaf 0), so a
        run of duplicates spanning several leaves is reached from its first
        occurrence.  The walk then reads forward up to the leaf holding the
        first key ``> hi``, or up to the last leaf.
        """
        lo, hi = np.asarray(lo), np.asarray(hi)
        starts = np.searchsorted(self.keys, lo, "left")
        stops = np.maximum(np.searchsorted(self.keys, hi, "right"), starts)
        if counter is not None:
            first = np.maximum(np.searchsorted(self._leaf_mins, lo, "left") - 1, 0)
            last = np.minimum(stops // self.order, self._n_leaves - 1)
            pages = np.where(lo <= hi, self.height + last - first, 0)
            counter.add(int(pages.sum()))
        return starts, stops

    def __len__(self) -> int:
        return self.keys.size

    def __repr__(self) -> str:
        return (
            f"BPlusTree(entries={len(self)}, nodes={self.n_nodes}, "
            f"height={self.height}, order={self.order})"
        )
