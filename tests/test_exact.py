"""Tests for repro.baselines.exact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactMIPS, exact_topk


class TestExactTopk:
    def test_matches_numpy_reference(self):
        gen = np.random.default_rng(0)
        data = gen.standard_normal((300, 7))
        q = gen.standard_normal(7)
        ids, ips = exact_topk(data, q, 10)
        all_ips = data @ q
        expected = np.sort(all_ips)[::-1][:10]
        assert np.allclose(ips, expected)
        assert np.all(np.diff(ips) <= 1e-12)

    def test_k_capped(self):
        data = np.eye(3)
        ids, ips = exact_topk(data, np.ones(3), 10)
        assert len(ids) == 3

    def test_deterministic_tie_break_by_id(self):
        data = np.ones((5, 2))  # all tie
        ids, _ = exact_topk(data, np.ones(2), 3)
        assert ids.tolist() == [0, 1, 2]


class TestExactMIPS:
    @pytest.fixture(scope="class")
    def built(self):
        gen = np.random.default_rng(1)
        data = gen.standard_normal((200, 6))
        return data, ExactMIPS(data, page_size=256)

    def test_matches_reference(self, built):
        data, index = built
        q = np.random.default_rng(2).standard_normal(6)
        result = index.search(q, k=7)
        expected_ips = np.sort(data @ q)[::-1][:7]
        assert np.allclose(result.scores, expected_ips)

    def test_pages_equal_full_scan(self, built):
        data, index = built
        result = index.search(data[0], k=1)
        assert result.stats.pages == index._store.file.total_pages
        assert result.stats.candidates == len(data)

    def test_index_size_zero(self, built):
        assert built[1].index_size_bytes() == 0

    def test_rejects_bad_inputs(self, built):
        _, index = built
        with pytest.raises(ValueError):
            index.search(np.zeros(6), k=0)
        with pytest.raises(ValueError):
            index.search(np.zeros(5), k=1)
        with pytest.raises(ValueError):
            ExactMIPS(np.empty((0, 2)))
