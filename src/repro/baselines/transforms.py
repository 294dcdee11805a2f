"""MIPS→NN and MIPS→MCS reductions used by the baseline methods (§IX).

* **QNF transformation** (H2-ALSH, KDD 2018): an asymmetric MIPS→NNS
  reduction without transformation error.  With ``M ≥ max ‖o‖``:

  - data:  ``õ = [o ; sqrt(M² − ‖o‖²)] ∈ R^{d+1}`` (every ``õ`` has norm M),
  - query: ``q̃ = [λq ; 0]`` with ``λ = M/‖q‖``,

  giving ``dis²(õ, q̃) = 2M² − 2λ⟨o, q⟩`` — Euclidean NN order on the
  transformed points is exactly MIP order on the originals.

* **Simple-LSH transformation** (Neyshabur & Srebro, ICML 2015): a symmetric
  MIPS→MCS reduction.  With ``U ≥ max ‖x‖``:

  - data:  ``x̃ = [x/U ; sqrt(1 − ‖x/U‖²)]`` (unit norm),
  - query: ``q̃ = [q/‖q‖ ; 0]`` (unit norm),

  giving ``cos(x̃, q̃) = ⟨x, q⟩ / (U·‖q‖)`` — cosine order is MIP order.
  Norm Ranging-LSH applies it per norm-range subset with a *local* U to fix
  the long-tail excessive-normalization problem.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "qnf_scale",
    "qnf_transform_data",
    "qnf_transform_query",
    "qnf_distance_to_ip",
    "simple_lsh_transform_data",
    "simple_lsh_transform_query",
]


def _augment_with_residual(data: np.ndarray, scale: float) -> np.ndarray:
    """Append ``sqrt(scale² − ‖o‖²)`` as an extra coordinate."""
    norms_sq = np.einsum("ij,ij->i", data, data)
    residual_sq = np.maximum(scale * scale - norms_sq, 0.0)
    return np.hstack([data, np.sqrt(residual_sq)[:, None]])


def qnf_scale(data: np.ndarray) -> float:
    """The QNF constant ``M`` of a dataset: its largest norm (1.0 for an
    all-zero dataset, whose residual coordinate then carries everything)."""
    max_norm = float(np.linalg.norm(np.asarray(data, dtype=np.float64), axis=1).max())
    return max_norm if max_norm > 0 else 1.0


def qnf_transform_data(data: np.ndarray, max_norm: float | None = None) -> tuple[np.ndarray, float]:
    """QNF-transform a dataset; returns the ``(n, d+1)`` points and the M used
    (:func:`qnf_scale` of the data unless ``max_norm`` is given)."""
    data = np.asarray(data, dtype=np.float64)
    if max_norm is None:
        max_norm = qnf_scale(data)
    else:
        norms = np.linalg.norm(data, axis=1)
        if norms.size and norms.max() > max_norm * (1 + 1e-12):
            raise ValueError(
                f"max_norm={max_norm} is smaller than the largest data norm {norms.max()}"
            )
        max_norm = max_norm if max_norm > 0 else 1.0
    return _augment_with_residual(data, max_norm), max_norm


def qnf_transform_query(query: np.ndarray, max_norm: float) -> np.ndarray:
    """QNF-transform a query: ``[M·q/‖q‖ ; 0]`` (zero queries stay zero)."""
    query = np.asarray(query, dtype=np.float64)
    q_norm = float(np.linalg.norm(query))
    scale = max_norm / q_norm if q_norm > 0 else 0.0
    return np.concatenate([scale * query, [0.0]])


def qnf_distance_to_ip(dist_sq: float, max_norm: float, q_norm: float) -> float:
    """Invert ``dis²(õ, q̃) = 2M² − 2(M/‖q‖)⟨o, q⟩`` back to ``⟨o, q⟩``."""
    if q_norm <= 0:
        return 0.0
    return (2.0 * max_norm * max_norm - dist_sq) * q_norm / (2.0 * max_norm)


def simple_lsh_transform_data(data: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, float]:
    """Simple-LSH transform a dataset to unit-norm ``(n, d+1)`` points."""
    data = np.asarray(data, dtype=np.float64)
    norms = np.linalg.norm(data, axis=1)
    if scale is None:
        scale = float(norms.max())
    elif norms.size and norms.max() > scale * (1 + 1e-12):
        raise ValueError(f"scale={scale} is smaller than the largest data norm {norms.max()}")
    if scale <= 0:
        scale = 1.0
    return _augment_with_residual(data / scale, 1.0), scale


def simple_lsh_transform_query(query: np.ndarray) -> np.ndarray:
    """Simple-LSH transform a query: ``[q/‖q‖ ; 0]``."""
    query = np.asarray(query, dtype=np.float64)
    q_norm = float(np.linalg.norm(query))
    unit = query / q_norm if q_norm > 0 else query
    return np.concatenate([unit, [0.0]])
