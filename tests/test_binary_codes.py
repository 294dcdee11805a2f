"""Tests for repro.core.binary_codes — Theorems 3/4 and the group structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.binary_codes import (
    BinaryCodeGroups,
    group_lower_bounds,
    pack_code,
    sign_bits,
)


class TestSignBitsAndPack:
    def test_sign_bits_basic(self):
        assert np.array_equal(sign_bits(np.array([1.0, -2.0, 0.0])), [1, 0, 1])

    def test_sign_bits_batch(self):
        x = np.array([[1.0, -1.0], [-0.5, 2.0]])
        assert np.array_equal(sign_bits(x), [[1, 0], [0, 1]])

    def test_pack_code_weights(self):
        # bit i has weight 2^i.
        assert pack_code(np.array([[1, 0, 0]]))[0] == 1
        assert pack_code(np.array([[0, 1, 0]]))[0] == 2
        assert pack_code(np.array([[1, 1, 1]]))[0] == 7

    def test_pack_rejects_wide_codes(self):
        with pytest.raises(ValueError):
            pack_code(np.zeros((1, 64), dtype=np.uint64))

    def test_pack_roundtrip_distinct(self):
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        codes = pack_code(bits)
        assert len(set(codes.tolist())) == 4


class TestTheorem3:
    """LB(group) ≤ dis(P(o), P(q)) for every member o of the group."""

    @given(
        arrays(np.float64, (30, 6), elements=st.floats(-50, 50)),
        arrays(np.float64, (6,), elements=st.floats(-50, 50)),
    )
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_holds_for_all_points(self, projected, query_proj):
        l1 = np.abs(projected).sum(axis=1)  # stand-in for original 1-norms
        groups = BinaryCodeGroups(projected, l1)
        lbs = groups.lower_bounds(query_proj)
        actual = np.linalg.norm(projected - query_proj[None, :], axis=1)
        for g in range(groups.n_groups):
            members = groups.members(g)
            assert np.all(actual[members] >= lbs[g] - 1e-9)

    def test_own_group_bound_is_zero(self):
        gen = np.random.default_rng(0)
        projected = gen.standard_normal((50, 5))
        groups = BinaryCodeGroups(projected, np.abs(projected).sum(axis=1))
        lbs = groups.lower_bounds(projected[0])
        bits_q = sign_bits(projected[0])
        own = [
            g for g in range(groups.n_groups)
            if np.array_equal(groups.group_bits[g], bits_q)
        ]
        assert len(own) == 1
        assert lbs[own[0]] == pytest.approx(0.0, abs=1e-12)

    def test_matches_manual_formula(self):
        gen = np.random.default_rng(1)
        projected = gen.standard_normal((20, 4))
        q = gen.standard_normal(4)
        groups = BinaryCodeGroups(projected, np.abs(projected).sum(axis=1))
        lbs = groups.lower_bounds(q)
        qbits = sign_bits(q)
        qabs = np.abs(q)
        m = 4
        for g in range(groups.n_groups):
            xor = groups.group_bits[g] ^ qbits
            manual = float(xor @ qabs) / np.sqrt(m)
            assert lbs[g] == pytest.approx(manual, abs=1e-12)


class TestTheorem4:
    """dis(o, q) ≤ ‖o‖₁ + ‖q‖₁ (used to upper-bound the Test A denominator)."""

    @given(
        arrays(np.float64, (8,), elements=st.floats(-100, 100)),
        arrays(np.float64, (8,), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=100, deadline=None)
    def test_l2_distance_below_l1_norm_sum(self, o, q):
        dist = float(np.linalg.norm(o - q))
        assert dist <= np.abs(o).sum() + np.abs(q).sum() + 1e-9


class TestGroupStructure:
    def test_groups_partition_points(self):
        gen = np.random.default_rng(2)
        projected = gen.standard_normal((200, 5))
        groups = BinaryCodeGroups(projected, np.abs(projected).sum(axis=1))
        members = np.concatenate(
            [groups.members(g) for g in range(groups.n_groups)]
        )
        assert sorted(members.tolist()) == list(range(200))

    def test_members_share_the_group_code(self):
        gen = np.random.default_rng(3)
        projected = gen.standard_normal((100, 4))
        groups = BinaryCodeGroups(projected, np.abs(projected).sum(axis=1))
        bits = sign_bits(projected)
        for g in range(groups.n_groups):
            assert np.all(bits[groups.members(g)] == groups.group_bits[g])

    def test_members_sorted_by_l1(self):
        gen = np.random.default_rng(4)
        projected = gen.standard_normal((150, 4))
        l1 = np.abs(gen.standard_normal((150, 20))).sum(axis=1)
        groups = BinaryCodeGroups(projected, l1)
        for g in range(groups.n_groups):
            member_l1 = l1[groups.members(g)]
            assert np.all(np.diff(member_l1) >= 0)

    def test_min_l1_representative(self):
        gen = np.random.default_rng(5)
        projected = gen.standard_normal((80, 4))
        l1 = np.abs(gen.standard_normal((80, 10))).sum(axis=1)
        groups = BinaryCodeGroups(projected, l1)
        for g in range(groups.n_groups):
            members = groups.members(g)
            assert groups.min_l1_ids[g] == members[0]
            assert groups.min_l1[g] == pytest.approx(l1[members].min())

    def test_group_count_bounded_by_2m(self):
        gen = np.random.default_rng(6)
        projected = gen.standard_normal((5000, 4))
        groups = BinaryCodeGroups(projected, np.abs(projected).sum(axis=1))
        assert groups.n_groups <= 2**4

    def test_size_accounting(self):
        gen = np.random.default_rng(7)
        projected = gen.standard_normal((64, 8))
        groups = BinaryCodeGroups(projected, np.abs(projected).sum(axis=1))
        assert groups.size_bytes() == 64 * (1 + 8)
        assert groups.summary_size_bytes() == groups.n_groups * (1 + 8 + 8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            BinaryCodeGroups(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValueError):
            BinaryCodeGroups(np.ones((5, 3)), np.ones(4))

    def test_rejects_wrong_query_width(self):
        groups = BinaryCodeGroups(np.ones((5, 3)), np.ones(5))
        with pytest.raises(ValueError):
            groups.lower_bounds(np.ones(4))


class TestGroupLowerBoundsFunction:
    def test_zero_when_codes_match(self):
        bits = np.array([[1, 0, 1]])
        lb = group_lower_bounds(bits, np.array([1, 0, 1]), np.array([2.0, 3.0, 4.0]))
        assert lb[0] == 0.0

    def test_accumulates_mismatched_coordinates(self):
        bits = np.array([[0, 0, 0]])
        lb = group_lower_bounds(bits, np.array([1, 0, 1]), np.array([2.0, 3.0, 4.0]))
        assert lb[0] == pytest.approx((2.0 + 4.0) / np.sqrt(3))
