"""Quick-Probe (Algorithm 2, §V-A).

Instead of incrementally testing every returned NN point against Condition B,
Quick-Probe locates — from group summaries alone, without touching the disk —
a point that is likely to satisfy Condition B, and uses its projected distance
to the query as the radius of a single range search.

The probe walks the binary-code groups in *ascending* order of their
Theorem 3 lower bound ``LB``; for each group it evaluates *Test A* on the
member with the smallest original 1-norm:

    ``Ψm( LB² / (c · (‖o‖₁ + ‖q‖₁)²) ) ≥ p``

The first passing point is returned (nearest group first ⇒ tightest radius).
If no group passes, the point with the largest recorded test value is the
fallback — MIP-Search-II then relies on its compensation pass.

``c`` and ``p`` are per-probe arguments (not baked into the structure), so a
single pre-processed index serves the paper's c- and p-sweeps (Figs. 10/11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.binary_codes import BinaryCodeGroups
from repro.stats.chi2 import ChiSquare

__all__ = ["ProbeOutcome", "QuickProbe"]


@dataclass(frozen=True)
class ProbeOutcome:
    """Result of one Quick-Probe invocation.

    Attributes:
        point_id: the located point ``o`` whose projected distance to the
            query becomes the range-search radius.
        test_value: the Test A statistic ``LB²/(c·(‖o‖₁+‖q‖₁)²)`` of that point.
        passed: whether Test A was satisfied (False ⇒ fallback point; the
            compensation pass of MIP-Search-II will very likely be needed).
        groups_examined: how many groups were visited before returning.
    """

    point_id: int
    test_value: float
    passed: bool
    groups_examined: int


class QuickProbe:
    """Pre-built Quick-Probe over binary-code group summaries."""

    def __init__(self, groups: BinaryCodeGroups) -> None:
        self._groups = groups
        self._chi2 = ChiSquare(groups.m)

    @property
    def chi2(self) -> ChiSquare:
        return self._chi2

    @property
    def n_groups(self) -> int:
        return self._groups.n_groups

    def probe_many(
        self,
        queries_projected: np.ndarray,
        query_l1s: np.ndarray,
        c: float,
        p: float,
    ) -> list[ProbeOutcome]:
        """Run Algorithm 2 for a whole batch with one vectorized group scan.

        The Theorem 3 lower bounds stay per-query multiplies (their XOR
        matrix is query-specific), but the scan itself — ordering groups by
        LB, evaluating Test A on each min-ℓ1 representative, finding the
        first pass or the best fallback — is a handful of array operations
        over the ``(n_q, G)`` value matrix instead of a Python loop per
        group.  Decisions are elementwise/argsort-based, so each row's
        outcome is independent of the rest of the batch.

        Args:
            queries_projected: ``(n_q, m)`` projected queries ``P(q)``.
            query_l1s: ``(n_q,)`` original 1-norms ``‖q‖₁``.
            c: approximation ratio (0 < c < 1).
            p: guaranteed probability (0 < p < 1).

        Returns:
            One :class:`ProbeOutcome` per query, in batch order.
        """
        if not 0.0 < c < 1.0:
            raise ValueError(f"approximation ratio must satisfy 0 < c < 1, got {c}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"guaranteed probability must satisfy 0 < p < 1, got {p}")
        queries_projected = np.atleast_2d(
            np.asarray(queries_projected, dtype=np.float64)
        )
        query_l1s = np.asarray(query_l1s, dtype=np.float64).reshape(-1)
        if query_l1s.shape[0] != queries_projected.shape[0]:
            raise ValueError(
                f"need one l1 norm per query, got {query_l1s.shape[0]} "
                f"for {queries_projected.shape[0]} queries"
            )
        if np.any(query_l1s < 0):
            raise ValueError("query_l1 must be non-negative")

        # Theorem 3 bounds, one row per query (query-specific XOR ⇒ per-query
        # multiply).
        lbs = np.stack(
            [self._groups.lower_bounds(q) for q in queries_projected]
        )  # (n_q, G)

        # Test A is a monotone comparison: Ψm(v) ≥ p  ⇔  v ≥ Ψm⁻¹(p).
        threshold = self._chi2.ppf(p)
        denominators = c * (self._groups.min_l1[None, :] + query_l1s[:, None]) ** 2
        with np.errstate(divide="ignore"):
            values = np.where(denominators > 0.0, lbs**2 / denominators, np.inf)

        # Scan groups in ascending-LB order (Algorithm 2: nearest group first
        # ⇒ the tightest admissible search radius).  `passed` rows return the
        # first group reaching the threshold; the rest fall back to the best
        # test value, ties resolved to the last group in scan order (matching
        # the sequential `value >= best` update rule).
        n_q, n_groups = values.shape
        order = np.argsort(lbs, axis=1, kind="stable")
        values_ordered = np.take_along_axis(values, order, axis=1)
        passing = values_ordered >= threshold
        any_pass = passing.any(axis=1)
        first_pass = np.argmax(passing, axis=1)
        best_value = values_ordered.max(axis=1)
        last_best = n_groups - 1 - np.argmax(
            (values_ordered == best_value[:, None])[:, ::-1], axis=1
        )

        min_l1_ids = self._groups.min_l1_ids
        outcomes: list[ProbeOutcome] = []
        for i in range(n_q):
            if any_pass[i]:
                pos = int(first_pass[i])
                outcomes.append(
                    ProbeOutcome(
                        point_id=int(min_l1_ids[order[i, pos]]),
                        test_value=float(values_ordered[i, pos]),
                        passed=True,
                        groups_examined=pos + 1,
                    )
                )
            else:
                outcomes.append(
                    ProbeOutcome(
                        point_id=int(min_l1_ids[order[i, int(last_best[i])]]),
                        test_value=float(best_value[i]),
                        passed=False,
                        groups_examined=n_groups,
                    )
                )
        return outcomes
