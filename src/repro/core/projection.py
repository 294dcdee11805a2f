"""2-stable random projections (Definition 2, Lemma 1/2 of the paper).

A 2-stable random projection computes ``f(o) = v · o`` with the entries of
``v`` drawn i.i.d. from ``N(0, 1)``.  Stacking ``m`` such projections gives
``P(o) ∈ R^m`` with the key property (Lemma 2)

    ``dis²(P(o), P(q)) / dis²(o, q)  ~  χ²(m)``,

which is what turns projected distances into probability statements about
original distances — the engine behind Condition B and Quick-Probe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StableProjection"]


class StableProjection:
    """An ``m``-fold 2-stable random projection ``R^d → R^m``.

    Args:
        dim: original dimensionality ``d``.
        proj_dim: projected dimensionality ``m``.
        rng: generator for the i.i.d. ``N(0,1)`` projection entries.
    """

    def __init__(self, dim: int, proj_dim: int, rng: np.random.Generator) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if proj_dim <= 0:
            raise ValueError(f"proj_dim must be positive, got {proj_dim}")
        self.dim = int(dim)
        self.proj_dim = int(proj_dim)
        self._matrix = rng.standard_normal((proj_dim, dim))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "StableProjection":
        """The projection with a given ``(m, d)`` matrix (e.g. a persisted one)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or 0 in matrix.shape:
            raise ValueError(f"matrix must be a non-empty (m, d) array, got {matrix.shape}")
        self = cls.__new__(cls)
        self.proj_dim, self.dim = matrix.shape
        self._matrix = matrix
        return self

    @property
    def matrix(self) -> np.ndarray:
        """The ``(m, d)`` projection matrix (rows are the vectors ``v_i``)."""
        return self._matrix

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project one point ``(d,)`` or a batch ``(n, d)``.

        Returns an array of shape ``(m,)`` or ``(n, m)`` respectively.
        """
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        if points.shape[1] != self.dim:
            raise ValueError(
                f"points have dimension {points.shape[1]}, projection expects {self.dim}"
            )
        projected = points @ self._matrix.T
        return projected[0] if single else projected

    def size_bytes(self) -> int:
        """Footprint of the projection matrix (part of the index size)."""
        return self._matrix.nbytes

    def __repr__(self) -> str:
        return f"StableProjection(dim={self.dim}, proj_dim={self.proj_dim})"
