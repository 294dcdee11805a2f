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
from repro.core.conditions import (
    compensation_radius,
    condition_a_holds,
    condition_b_holds,
    guarantee_denominator,
)
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
        for ip in ips[:10]:
            if condition_a_holds(max_norm_sq, q_norm_sq, float(ip), c):
                assert ip >= c * best - 1e-7 * (1.0 + abs(best))


class TestConditionBConsistency:
    """Condition B ⇔ the compensation radius, on arbitrary inputs."""

    @given(
        st.integers(2, 12),
        st.floats(0.05, 0.95),
        st.floats(0.01, 1000.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_radius_is_the_condition_boundary(self, m, p, denom):
        chi2 = ChiSquare(m)
        radius = compensation_radius(denom, chi2, p)
        assert condition_b_holds(radius**2 * (1 + 1e-9), denom, chi2, p)
        if radius > 0:
            assert not condition_b_holds(radius**2 * (1 - 1e-6), denom, chi2, p)

    @given(st.integers(2, 12), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_denominator_monotone_in_ip(self, m, c):
        ips = [-5.0, 0.0, 1.0, 10.0]
        denoms = [guarantee_denominator(9.0, 4.0, ip, c) for ip in ips]
        assert denoms == sorted(denoms, reverse=True)


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
