"""Chi-square distribution: CDF ``Ψm`` and inverse CDF ``Ψm⁻¹``.

ProMIPS states every probability guarantee through the chi-square CDF:

* Condition B (Formula 2) tests ``Ψm(dis²(P(oi),P(q)) / denom) ≥ p``;
* Quick-Probe's Test A tests ``Ψm(LB² / (c·(‖o‖₁+‖q‖₁)²)) ≥ p``;
* the compensation radius is ``r' = sqrt(Ψm⁻¹(p) · denom)``.

``Ψm`` is monotone, so both tests are decided as ``value ≥ Ψm⁻¹(p)``
through the cached inverse; the CDF itself checks those decisions in the
tests.

``Ψm`` is the CDF of the chi-square distribution with ``m`` degrees of
freedom, ``Ψm(x) = P(m/2, x/2)`` with ``P`` the regularized lower incomplete
gamma function implemented in :mod:`repro.stats.special`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.stats.special import log_gamma, regularized_lower_gamma

__all__ = ["chi2_cdf", "chi2_ppf", "chi2_pdf", "ChiSquare"]


def chi2_cdf(x: float, df: int) -> float:
    """CDF ``Ψ_df(x)`` of the chi-square distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"chi2_cdf requires df > 0, got {df}")
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return regularized_lower_gamma(0.5 * df, 0.5 * x)


def chi2_pdf(x: float, df: int) -> float:
    """Density of the chi-square distribution (used by Newton refinement)."""
    if df <= 0:
        raise ValueError(f"chi2_pdf requires df > 0, got {df}")
    if x <= 0.0:
        return 0.0
    half = 0.5 * df
    log_pdf = (half - 1.0) * math.log(x) - 0.5 * x - half * math.log(2.0) - log_gamma(half)
    return math.exp(log_pdf)


def chi2_ppf(p: float, df: int) -> float:
    """Inverse CDF ``Ψ_df⁻¹(p)``, by bracketed bisection with Newton polish.

    Args:
        p: target probability in ``[0, 1)``.  ``p = 0`` returns ``0``.
        df: degrees of freedom, positive.
    """
    if df <= 0:
        raise ValueError(f"chi2_ppf requires df > 0, got {df}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"chi2_ppf requires 0 <= p < 1, got {p}")
    if p == 0.0:
        return 0.0

    # Bracket the root: the mean of chi2(df) is df, variance 2·df, so a few
    # standard deviations above the mean covers any p we care about.
    lo, hi = 0.0, float(df) + 10.0
    while chi2_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for p < 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    x = 0.5 * (lo + hi)

    # A couple of Newton steps sharpen the bisection estimate.
    for _ in range(4):
        pdf = chi2_pdf(x, df)
        if pdf <= 0.0:
            break
        step = (chi2_cdf(x, df) - p) / pdf
        candidate = x - step
        if candidate <= 0.0:
            break
        x = candidate
    return x


class ChiSquare:
    """Chi-square distribution with memoized inverse-CDF lookups.

    ProMIPS evaluates ``Ψm⁻¹(p)`` once per query and only at a handful of
    ``p`` values, so the inverse is cached.
    """

    def __init__(self, df: int) -> None:
        if df <= 0:
            raise ValueError(f"ChiSquare requires df > 0, got {df}")
        self.df = int(df)
        self._ppf_cached = lru_cache(maxsize=64)(lambda p: chi2_ppf(p, self.df))

    def cdf(self, x: float) -> float:
        """``Ψ_df(x)``."""
        return chi2_cdf(x, self.df)

    def ppf(self, p: float) -> float:
        """``Ψ_df⁻¹(p)`` (memoized)."""
        return self._ppf_cached(p)

    def __repr__(self) -> str:
        return f"ChiSquare(df={self.df})"
