"""Standard iDistance (Jagadish et al., TODS 2005) — the Fig. 1 pattern.

The whole space is divided into ``kp`` k-means partitions centred at
reference points; each point is mapped to the one-dimensional key
``i·C + dis(p, O_i)`` and keys are organised in a single B+-tree.  A range
query inspects, per partition, the key interval that the query sphere can
reach.

ProMIPS replaces this pattern with the ring + sub-partition layout of
:mod:`repro.index.ring_idistance`; the standard variant is kept for the
ablation benchmark that quantifies what the new pattern buys.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import kmeans
from repro.index.bptree import BPlusTree
from repro.storage.pagefile import AccessCounter, VectorReader, expand_runs

__all__ = ["IDistanceIndex"]


class IDistanceIndex:
    """Classic iDistance over an in-memory point set with paged accounting.

    Args:
        points: ``(n, m)`` array of (projected) points to index.
        n_partitions: number of k-means reference partitions (``kp``).
        rng: generator used for k-means seeding.
        order: B+-tree node fanout.
    """

    def __init__(
        self,
        points: np.ndarray,
        n_partitions: int,
        rng: np.random.Generator,
        order: int = 64,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty 2-D array, got {points.shape}")
        self._points = points
        self.n, self.dim = points.shape

        clustering = kmeans(points, n_partitions, rng)
        self.centers = clustering.centers
        self.radii = clustering.radii
        self.kp = clustering.n_clusters

        dist_to_center = np.linalg.norm(
            points - self.centers[clustering.labels], axis=1
        )
        # C separates partition key ranges; any value above the largest
        # in-partition distance works.
        self.C = float(self.radii.max()) * 1.000001 + 1.0
        keys = clustering.labels * self.C + dist_to_center

        sort_idx = np.argsort(keys, kind="stable")
        self.layout_order = sort_idx.astype(np.int64)
        self._tree = BPlusTree(keys[sort_idx], self.layout_order, order)

    def index_size_bytes(self, page_size: int) -> int:
        """B+-tree footprint plus the partition metadata."""
        meta = self.centers.nbytes + self.radii.nbytes
        return self._tree.size_bytes(page_size) + meta

    def range_search(
        self,
        query: np.ndarray,
        radius: float,
        tree_counter: AccessCounter | None = None,
        reader: VectorReader | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ids and distances of all indexed points within ``radius`` of ``query``.

        Every candidate in the touched key intervals is fetched (charging
        pages through ``reader`` when given) and verified — this is exactly
        the "large unnecessary searching area" §VI criticises.
        """
        query = np.asarray(query, dtype=np.float64)
        if not 0 <= radius < np.inf:
            raise ValueError(f"radius must be finite and non-negative, got {radius}")
        center_dists = np.linalg.norm(self.centers - query[None, :], axis=1)
        # Partitions the sphere reaches, each scanned over the key interval
        # it can reach.  The ±ulp widening keeps boundary keys (computed in
        # a different expression order at build time) inside the scan;
        # every fetched point is distance-verified anyway.
        reached = np.flatnonzero(center_dists - radius <= self.radii)
        base = self.C * reached
        slack = 1e-9 * (1.0 + base)
        lo = base + np.maximum(0.0, center_dists[reached] - radius) - slack
        hi = base + np.minimum(self.radii[reached], center_dists[reached] + radius) + slack
        starts, stops = self._tree.range(lo, hi, counter=tree_counter)
        ids = self._tree.values[expand_runs(starts, stops)]
        vecs = reader.get_many(ids) if reader is not None else self._points[ids]
        dists = np.linalg.norm(vecs - query[None, :], axis=1)
        keep = dists <= radius
        return ids[keep], dists[keep]
