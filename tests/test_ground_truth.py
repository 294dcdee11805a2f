"""Tests for repro.eval.ground_truth."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.ground_truth import GroundTruth

from conftest import exact_topk_reference


class TestGroundTruth:
    @pytest.fixture(scope="class")
    def setup(self):
        gen = np.random.default_rng(0)
        data = gen.standard_normal((700, 9))
        queries = gen.standard_normal((12, 9))
        return data, queries, GroundTruth(data, queries, k_max=50)

    def test_matches_brute_force(self, setup):
        data, queries, gt = setup
        for qi in range(len(queries)):
            for k in (1, 10, 50):
                ids, ips = gt.topk(qi, k)
                ref_ids, ref_ips = exact_topk_reference(data, queries[qi], k)
                assert np.allclose(ips, ref_ips)
                assert np.array_equal(ids, ref_ids)

    def test_blocked_equals_unblocked(self):
        gen = np.random.default_rng(1)
        data = gen.standard_normal((500, 5))
        queries = gen.standard_normal((4, 5))
        small_block = GroundTruth(data, queries, k_max=20, block=64)
        big_block = GroundTruth(data, queries, k_max=20, block=10**6)
        for qi in range(4):
            a_ids, a_ips = small_block.topk(qi, 20)
            b_ids, b_ips = big_block.topk(qi, 20)
            assert np.array_equal(a_ids, b_ids)
            assert np.allclose(a_ips, b_ips)

    @pytest.mark.parametrize("block", [7, 64, 10**6])
    def test_tied_scores_keep_the_lowest_ids(self, block):
        """On integer data most scores tie, also at the k-th place and
        across block boundaries; every prefix is still the first k of the
        ``(-score, id)`` order."""
        gen = np.random.default_rng(block)
        data = gen.integers(-1, 2, size=(300, 4)).astype(np.float64)
        queries = gen.integers(-1, 2, size=(16, 4)).astype(np.float64)
        gt = GroundTruth(data, queries, k_max=25, block=block)
        for qi in range(len(queries)):
            ids, ips = gt.topk(qi, 25)
            ref_ids, ref_ips = exact_topk_reference(data, queries[qi], 25)
            assert np.array_equal(ids, ref_ids)
            assert np.array_equal(ips, ref_ips)

    def test_prefix_consistency(self, setup):
        _, _, gt = setup
        ids50, _ = gt.topk(0, 50)
        ids10, _ = gt.topk(0, 10)
        assert np.array_equal(ids50[:10], ids10)

    def test_k_max_capped_at_n(self):
        gen = np.random.default_rng(2)
        gt = GroundTruth(gen.standard_normal((8, 3)), gen.standard_normal((2, 3)), k_max=100)
        assert gt.k_max == 8

    def test_rejects_bad_requests(self, setup):
        _, _, gt = setup
        with pytest.raises(IndexError):
            gt.topk(99, 5)
        with pytest.raises(ValueError):
            gt.topk(0, 0)
        with pytest.raises(ValueError):
            gt.topk(0, 51)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GroundTruth(np.ones((5, 3)), np.ones((2, 4)))
