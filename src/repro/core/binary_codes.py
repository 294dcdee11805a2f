"""Binary codes and the distance bounds behind Quick-Probe (§V-A).

Each projected point ``P(o)`` is turned into an ``m``-bit code
``c(o) = (c_1(o), …, c_m(o))`` with ``c_i(o) = 1`` iff ``P_i(o) ≥ 0``.
Points sharing a code form a *group*; within a group points are sorted by
the 1-norm of their **original** vectors.  All groups live in one sorted
member array cut by group offsets, so every per-group summary is one array
gather rather than a per-group object.

Two bounds make the codes useful (Theorems 3 and 4):

* lower bound on projected distance —
  ``dis(P(o), P(q)) ≥ (1/√m) Σ_i (c_i(o) ⊕ c_i(q)) · |P_i(q)|``;
  the right-hand side only depends on the *group* of ``o``, so one number
  covers every member;
* upper bound on original distance — ``dis(o, q) ≤ ‖o‖₁ + ‖q‖₁``.

Together they lower-bound ``dis²(P(o),P(q)) / (c · dis²(o,q))``, the quantity
Quick-Probe thresholds with ``Ψm⁻¹(p)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sign_bits",
    "pack_code",
    "group_lower_bounds",
    "BinaryCodeGroups",
]


def sign_bits(projected: np.ndarray) -> np.ndarray:
    """Sign pattern of projected points: 1 where the coordinate is ≥ 0.

    Accepts ``(m,)`` or ``(n, m)``; returns uint8 bits of the same shape.
    """
    projected = np.asarray(projected)
    return (projected >= 0.0).astype(np.uint8)


def pack_code(bits: np.ndarray) -> np.ndarray:
    """Pack bit rows into integer codes (bit ``i`` of the code is column ``i``)."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint64))
    m = bits.shape[1]
    if m > 63:
        raise ValueError(f"codes wider than 63 bits are not supported, got m={m}")
    weights = (np.uint64(1) << np.arange(m, dtype=np.uint64))
    return (bits * weights[None, :]).sum(axis=1)


def group_lower_bounds(
    group_bits: np.ndarray, query_bits: np.ndarray, query_abs_proj: np.ndarray
) -> np.ndarray:
    """Theorem 3 lower bound of every group against a query.

    Args:
        group_bits: ``(G, m)`` sign bits, one row per group code.
        query_bits: ``(m,)`` sign bits of ``P(q)``.
        query_abs_proj: ``(m,)`` values ``|P_i(q)|``.

    Returns:
        ``(G,)`` array ``LB_g = (1/√m) Σ_i (bit_gi ⊕ qbit_i) · |P_i(q)|``.
    """
    group_bits = np.atleast_2d(group_bits)
    m = group_bits.shape[1]
    xor = group_bits.astype(np.int8) ^ query_bits.astype(np.int8)
    return (xor @ np.asarray(query_abs_proj, dtype=np.float64)) / np.sqrt(m)


class BinaryCodeGroups:
    """The Quick-Probe pre-processing artefact (§V-A, pre-process step).

    Groups projected points by binary code; members are sorted ascending by
    the 1-norm of their original vectors so "the point whose ‖o‖₁ is the
    smallest" (Algorithm 2 line 7) is the first member.  The structure is
    two flat arrays: ``order`` (point ids, grouped by ascending code and
    sorted by 1-norm inside each group) and ``offsets`` (group ``g`` is
    ``order[offsets[g]:offsets[g + 1]]``, see :meth:`members`).  The group
    summaries Quick-Probe reads are gathers at each group's first member:
    ``min_l1_ids`` (``(G,)`` point id of the smallest original 1-norm),
    ``min_l1`` (that 1-norm) and ``group_bits`` (``(G, m)`` sign bits of the
    group's code).

    Args:
        projected: ``(n, m)`` projected points.
        l1_norms: ``(n,)`` 1-norms of the **original** points.
    """

    def __init__(self, projected: np.ndarray, l1_norms: np.ndarray) -> None:
        projected = np.asarray(projected, dtype=np.float64)
        l1_norms = np.asarray(l1_norms, dtype=np.float64)
        if projected.ndim != 2 or projected.shape[0] == 0:
            raise ValueError(f"projected must be non-empty 2-D, got {projected.shape}")
        if l1_norms.shape != (projected.shape[0],):
            raise ValueError(
                f"l1_norms must have shape ({projected.shape[0]},), got {l1_norms.shape}"
            )
        self.n, self.m = projected.shape

        bits = sign_bits(projected)
        codes = pack_code(bits)
        self.order = np.lexsort((l1_norms, codes))
        cuts = np.flatnonzero(np.diff(codes[self.order]) != 0) + 1
        self.offsets = np.concatenate(([0], cuts, [self.n]))
        self.min_l1_ids = self.order[self.offsets[:-1]]
        self.group_bits = bits[self.min_l1_ids]
        self.min_l1 = l1_norms[self.min_l1_ids]

    @property
    def n_groups(self) -> int:
        return self.offsets.size - 1

    def members(self, g: int) -> np.ndarray:
        """Point ids of group ``g``, ascending by original 1-norm (a view)."""
        return self.order[self.offsets[g] : self.offsets[g + 1]]

    def lower_bounds(self, query_projected: np.ndarray) -> np.ndarray:
        """Theorem 3 lower bound of every group against ``P(q)``."""
        query_projected = np.asarray(query_projected, dtype=np.float64).reshape(-1)
        if query_projected.shape[0] != self.m:
            raise ValueError(
                f"query has projected dimension {query_projected.shape[0]}, expected {self.m}"
            )
        qbits = sign_bits(query_projected)
        return group_lower_bounds(self.group_bits, qbits, np.abs(query_projected))

    def size_bytes(self) -> int:
        """Binary codes (m bits per point) + per-point 1-norms, as stored for
        Quick-Probe (§VII space analysis)."""
        code_bytes = self.n * ((self.m + 7) // 8)
        norm_bytes = self.n * 8
        return code_bytes + norm_bytes

    def summary_size_bytes(self) -> int:
        """Query-time footprint of Quick-Probe: one (code, min-ℓ1 id, min-ℓ1)
        summary per group.  Algorithm 2 only ever touches each group's
        min-ℓ1 representative, so this — not the per-point artefacts — is
        what a query needs resident."""
        per_group = (self.m + 7) // 8 + 8 + 8
        return self.n_groups * per_group
