"""The stopping rule of ProMIPS: the probability-guaranteed searching
conditions (§IV) and the compensation radius of MIP-Search-II (§V-A), for
one query.

Condition A (Formula 1, deterministic — Theorem 1):

    ``‖oM‖² + ‖q‖² − 2⟨oi, q⟩ / c ≤ 0``

Once any candidate's inner product makes this quantity non-positive, a
c-AMIP point is *certain* to be among the candidates already seen, because
``‖o*‖² + ‖q‖² − 2⟨o*, q⟩ = dis²(o*, q) ≥ 0`` and ``‖oM‖ ≥ ‖o*‖``.

Condition B (Formula 2, probabilistic — Theorem 2):

    ``Ψm( dis²(P(oi), P(q)) / (‖oM‖² + ‖q‖² − 2⟨omax, q⟩/c) ) ≥ p``

where ``Ψm`` is the chi-square CDF with ``m`` degrees of freedom (Lemma 2)
and ``omax`` the best candidate so far.  When it holds, the probability that
the true MIP point lies beyond the current search frontier *and* no c-AMIP
point has been collected is at most ``1 − p``.

For c-k-AMIP search both conditions substitute the current k-th best
candidate ``ok_max`` for ``omax`` (end of §IV).

:class:`StoppingRule` is the one implementation of both conditions and of
``r'``.  ``Ψm`` is monotone, so Formula 2 is decided without a CDF: it holds
iff ``dis² ≥ Ψm⁻¹(p) · (‖oM‖² + ‖q‖² − 2⟨ok_max, q⟩/c)``, and ``r'`` is the
square root of that threshold.  Every stop — in the verifier of
MIP-Search-II, after each of its range searches, and in MIP-Search-I — is
that comparison, in the same arithmetic.
"""

from __future__ import annotations

import math

from repro.stats.chi2 import ChiSquare

__all__ = ["StoppingRule"]


class StoppingRule:
    """Conditions A and B and the compensation radius for one query.

    Args:
        chi2: the index's ``ChiSquare(m)``.
        max_norm_sq: ``‖oM‖²`` over the dataset.
        q_norm_sq: ``‖q‖²`` of the query.
        c: approximation ratio, ``0 < c < 1``.
        p: guaranteed probability, ``0 < p < 1``.

    Attributes:
        a_threshold: ``c·(‖oM‖² + ‖q‖²)/2``; Condition A holds once the k-th
            best inner product reaches it.
    """

    __slots__ = ("c", "quantile", "base", "a_threshold")

    def __init__(
        self, chi2: ChiSquare, max_norm_sq: float, q_norm_sq: float, c: float, p: float
    ) -> None:
        if not 0.0 < c < 1.0:
            raise ValueError(f"approximation ratio must satisfy 0 < c < 1, got {c}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"guaranteed probability must satisfy 0 < p < 1, got {p}")
        self.c = c
        self.quantile = chi2.ppf(p)
        self.base = max_norm_sq + q_norm_sq
        self.a_threshold = 0.5 * c * self.base

    def condition_a(self, kth: float) -> bool:
        """Formula 1 for the k-th best inner product ``kth`` (−inf: none yet)."""
        return kth >= self.a_threshold

    def b_threshold(self, kth: float) -> float:
        """The squared projected distance at which Condition B first holds
        for the k-th best ``kth``: ``Ψm⁻¹(p)·(‖oM‖² + ‖q‖² − 2·kth/c)``.

        It is +inf while there is no candidate (``kth = −inf``) and
        non-positive once Condition A holds, which subsumes B.
        """
        return self.quantile * (self.base - 2.0 * kth / self.c)

    def condition_b(self, dist_sq: float, kth: float) -> bool:
        """Formula 2 at squared projected distance ``dist_sq``."""
        return dist_sq >= self.b_threshold(kth)

    def compensation_radius(self, kth: float) -> tuple[float, float]:
        """``r'`` for the k-th best ``kth``, with its exact square (§V-A).

        The square is :meth:`b_threshold` itself, so Condition B holds at
        ``r'`` for the ``kth`` that set it by comparison, not by rounding.
        Once Condition A holds, ``r' = 0``.  Undefined without a candidate.
        """
        threshold = max(self.b_threshold(kth), 0.0)
        if math.isinf(threshold):
            raise ValueError("compensation radius undefined without a candidate")
        return math.sqrt(threshold), threshold
