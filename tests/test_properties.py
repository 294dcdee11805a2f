"""Cross-cutting property-based tests: the theory of §IV–§V exercised on
randomly generated instances (hypothesis).

These complement the per-module tests by checking the *composed* invariants
that the correctness of ProMIPS actually rests on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.binary_codes import BinaryCodeGroups
from repro.core.conditions import StoppingRule
from repro.core.projection import StableProjection
from repro.stats.chi2 import ChiSquare

_finite = st.floats(-50.0, 50.0)


class TestTheorem1Property:
    """Condition A certifies a c-AMIP answer on arbitrary instances."""

    @given(
        arrays(np.float64, (40, 6), elements=_finite),
        arrays(np.float64, (6,), elements=_finite),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=80, deadline=None)
    def test_condition_a_certificate(self, data, query, c):
        norms_sq = np.einsum("ij,ij->i", data, data)
        max_norm_sq = float(norms_sq.max())
        q_norm_sq = float(query @ query)
        ips = data @ query
        best = float(ips.max())
        rule = StoppingRule(ChiSquare(6), max_norm_sq, q_norm_sq, c, 0.5)
        for ip in ips[:10]:
            if rule.condition_a(float(ip)):
                assert ip >= c * best - 1e-7 * (1.0 + abs(best))


class TestConditionBConsistency:
    """Condition B ⇔ Formula 2 ⇔ the compensation radius, on arbitrary inputs."""

    @given(
        st.integers(1, 12),
        st.floats(0.05, 0.95),
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_radius_is_the_condition_boundary(self, m, p, max_norm_sq, q_norm_sq, kth):
        rule = StoppingRule(ChiSquare(m), max_norm_sq, q_norm_sq, 0.9, p)
        radius, radius_sq = rule.compensation_radius(kth)
        assert radius == np.sqrt(radius_sq)
        assert rule.condition_b(radius_sq, kth)
        if radius > 0:
            assert not rule.condition_b(float(np.nextafter(radius_sq, 0.0)), kth)

    @given(
        st.sampled_from([1, 2, 6, 10]),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(-50.0, 50.0),
        st.floats(0.0, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_condition_b_is_formula_two(self, m, c, p, max_norm_sq, q_norm_sq, kth, ratio):
        """The rule's threshold comparison decides Formula 2,
        ``Ψm(dis² / denominator) ≥ p``, everywhere outside a 1e-9 relative
        band around the quantile, where the regularized-gamma CDF and the
        cached quantile may round apart; a non-positive denominator means
        Condition A holds, which subsumes B."""
        chi2 = ChiSquare(m)
        rule = StoppingRule(chi2, max_norm_sq, q_norm_sq, c, p)
        quantile = chi2.ppf(p)
        denominator = max_norm_sq + q_norm_sq - 2.0 * kth / c
        dist_sq = ratio * quantile * abs(denominator)
        if denominator <= 0.0:
            assert rule.condition_b(dist_sq, kth)
            return
        x = dist_sq / denominator
        if abs(x - quantile) > 1e-9 * quantile:
            assert rule.condition_b(dist_sq, kth) == (chi2.cdf(x) >= p)

    @given(st.integers(2, 12), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_denominator_monotone_in_ip(self, m, c):
        rule = StoppingRule(ChiSquare(m), 9.0, 4.0, c, 0.5)
        thresholds = [rule.b_threshold(ip) for ip in (-5.0, 0.0, 1.0, 10.0)]
        assert thresholds == sorted(thresholds, reverse=True)


class TestProjectionContractsGroups:
    """Theorem 3 composed through real projections: the group lower bound
    never exceeds the true projected distance, whatever the data."""

    @given(
        arrays(np.float64, (25, 10), elements=_finite),
        st.integers(0, 24),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_composition(self, data, query_row, seed):
        rng = np.random.default_rng(seed)
        projection = StableProjection(10, 4, rng)
        projected = projection.project(data)
        l1 = np.abs(data).sum(axis=1)
        groups = BinaryCodeGroups(projected, l1)
        q_proj = projected[query_row]
        lbs = groups.lower_bounds(q_proj)
        dists = np.linalg.norm(projected - q_proj[None, :], axis=1)
        for g in range(groups.n_groups):
            members = groups.members(g)
            assert np.all(dists[members] >= lbs[g] - 1e-9)


class TestEndToEndGuaranteeProperty:
    """ProMIPS on random latent-ish instances: the fraction of successful
    ranks clears p with margin (statistical property of the whole system)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_guarantee_on_random_instance(self, seed):
        from repro.core.promips import ProMIPS, ProMIPSParams
        from repro.eval.metrics import guarantee_success

        gen = np.random.default_rng(seed)
        base = gen.standard_normal((1500, 20))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        data = base * gen.lognormal(0.0, 0.1, size=(1500, 1))
        index = ProMIPS.build(data, ProMIPSParams(c=0.8, p=0.5), rng=seed + 10)

        successes = []
        for qi in gen.choice(1500, 15, replace=False):
            q = data[qi]
            exact = np.sort(data @ q)[::-1][:5]
            res = index.search(q, k=5)
            successes.append(guarantee_success(res.scores, exact, 0.8))
        assert float(np.mean(successes)) >= 0.5
