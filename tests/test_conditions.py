"""Tests for repro.core.conditions — Theorems 1/2 and the compensation
radius, as decided by the one per-query StoppingRule."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.conditions import StoppingRule
from repro.stats.chi2 import ChiSquare


def _rule(max_norm_sq=9.0, q_norm_sq=4.0, c=0.9, p=0.5, m=6):
    return StoppingRule(ChiSquare(m), max_norm_sq, q_norm_sq, c, p)


class TestConditionA:
    def test_fires_exactly_at_formula_one(self):
        # ‖oM‖² + ‖q‖² − 2·ip/c ≤ 0  ⇔  ip ≥ c(‖oM‖²+‖q‖²)/2
        max_norm_sq, q_norm_sq, c = 9.0, 4.0, 0.9
        rule = _rule(max_norm_sq, q_norm_sq, c)
        threshold = 0.5 * c * (max_norm_sq + q_norm_sq)
        assert rule.a_threshold == threshold
        assert rule.condition_a(threshold)
        assert not rule.condition_a(float(np.nextafter(threshold, -np.inf)))

    def test_theorem1_guarantee_on_real_data(self):
        """Whenever Condition A holds for a candidate's ip, that candidate is
        itself a c-AMIP answer (the constructive content of Theorem 1)."""
        gen = np.random.default_rng(0)
        data = gen.standard_normal((500, 8))
        norms_sq = (data**2).sum(axis=1)
        max_norm_sq = norms_sq.max()
        c = 0.8
        for _ in range(50):
            q = gen.standard_normal(8)
            ips = data @ q
            best = ips.max()
            rule = _rule(max_norm_sq, float(q @ q), c)
            for ip in ips[gen.choice(500, 30)]:
                if rule.condition_a(float(ip)):
                    assert ip >= c * best - 1e-9

    def test_no_candidate_never_fires(self):
        assert not _rule(1.0, 1.0).condition_a(-math.inf)

    def test_rejects_bad_c(self):
        for c in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="approximation ratio"):
                _rule(c=c)


class TestDenominator:
    """Condition B's threshold is Ψm⁻¹(p) times Formula 2's denominator
    ``‖oM‖² + ‖q‖² − 2·ip_k/c``."""

    def test_formula(self):
        rule = _rule(9.0, 4.0, c=0.8)
        assert rule.b_threshold(2.0) == pytest.approx(
            ChiSquare(6).ppf(0.5) * (9.0 + 4.0 - 2.0 * 2.0 / 0.8)
        )

    def test_infinite_without_candidate(self):
        assert _rule(9.0, 4.0).b_threshold(-math.inf) == math.inf

    def test_negative_when_condition_a_would_fire(self):
        rule = _rule(1.0, 1.0)
        assert rule.condition_a(10.0)
        assert rule.b_threshold(10.0) < 0

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            _rule(1.0, 1.0, c=1.5)


class TestConditionB:
    def test_matches_cdf_threshold(self):
        chi2 = ChiSquare(6)
        rule = StoppingRule(chi2, 9.0, 4.0, 0.9, 0.5)
        kth = 1.5
        boundary = chi2.ppf(0.5) * (13.0 - 2.0 * kth / 0.9)
        assert rule.condition_b(boundary * 1.001, kth)
        assert not rule.condition_b(boundary * 0.999, kth)
        assert chi2.cdf(boundary * 1.001 / (13.0 - 2.0 * kth / 0.9)) >= 0.5

    def test_true_when_denominator_non_positive(self):
        rule = _rule(1.0, 1.0, m=4)
        assert rule.condition_b(0.0, 10.0)  # denominator < 0
        assert rule.condition_b(0.0, 0.5 * 0.9 * 2.0)  # denominator 0

    def test_false_with_infinite_denominator(self):
        assert not _rule(m=4).condition_b(1e9, -math.inf)

    def test_monotone_in_p(self):
        # Larger p demands a larger projected distance before stopping.
        dist_sq, kth = 30.0, 1.0
        fired = [
            _rule(5.0, 4.0, p=p, m=5).condition_b(dist_sq, kth)
            for p in (0.3, 0.5, 0.7, 0.9)
        ]
        assert fired == sorted(fired, reverse=True)
        assert fired[0] and not fired[-1]

    def test_rejects_bad_arguments(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="guaranteed probability"):
                _rule(p=p)


class TestCompensationRadius:
    def test_formula(self):
        chi2 = ChiSquare(6)
        rule = StoppingRule(chi2, 9.0, 4.0, 0.9, 0.5)
        r, r_sq = rule.compensation_radius(2.0)
        assert r_sq == rule.b_threshold(2.0)
        assert r == math.sqrt(r_sq) == pytest.approx(
            math.sqrt(chi2.ppf(0.5) * (13.0 - 2.0 * 2.0 / 0.9))
        )

    def test_zero_for_non_positive_denominator(self):
        rule = _rule(1.0, 1.0)
        assert rule.compensation_radius(10.0) == (0.0, 0.0)
        assert rule.compensation_radius(0.9) == (0.0, 0.0)

    def test_satisfies_condition_b_at_radius(self):
        """B holds at exactly r' for the k-th best that set it — at the exact
        square r' is carried with, with no slack — and not one ulp inside."""
        gen = np.random.default_rng(3)
        for m in (1, 2, 6, 7, 10):
            for p in (0.3, 0.5, 0.9):
                rule = _rule(12.0, 3.0, p=p, m=m)
                for kth in gen.uniform(-20.0, 5.0, size=20):
                    r, r_sq = rule.compensation_radius(kth)
                    assert rule.condition_b(r_sq, kth)
                    assert not rule.condition_b(float(np.nextafter(r_sq, 0.0)), kth)
                    assert r == math.sqrt(r_sq)

    def test_grows_with_p(self):
        radii = [_rule(3.0, 2.0, p=p, m=5).compensation_radius(0.0)[0]
                 for p in (0.3, 0.5, 0.7, 0.9)]
        assert radii == sorted(radii)
        assert radii[0] < radii[-1]

    def test_rejects_infinite_denominator(self):
        with pytest.raises(ValueError, match="without a candidate"):
            _rule(m=4).compensation_radius(-math.inf)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            _rule(p=1.0)
