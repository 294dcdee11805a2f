"""Tests for repro.baselines.qalsh — the query-aware LSH substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.qalsh import (
    QALSH,
    derive_qalsh_params,
    qalsh_collision_probability,
)
from repro.storage.pagefile import VectorStore


class TestCollisionProbability:
    def test_decreases_with_distance(self):
        w = 2.7
        probs = [qalsh_collision_probability(w, x) for x in (0.5, 1.0, 2.0, 4.0)]
        assert probs == sorted(probs, reverse=True)

    def test_bounds(self):
        assert qalsh_collision_probability(2.7, 1e-9) <= 1.0
        assert qalsh_collision_probability(2.7, 0.0) == 1.0
        assert qalsh_collision_probability(2.7, 1e9) == pytest.approx(0.0, abs=1e-6)


class TestDeriveParams:
    def test_sane_defaults(self):
        params = derive_qalsh_params(10000)
        assert params.c == 2.0
        assert params.w > 0
        assert 4 <= params.n_hash <= 120
        assert 1 <= params.threshold <= params.n_hash

    def test_p1_exceeds_p2(self):
        params = derive_qalsh_params(5000, c=2.0)
        p1 = qalsh_collision_probability(params.w, 1.0)
        p2 = qalsh_collision_probability(params.w, params.c)
        assert p1 > p2

    def test_beta_defaults_to_100_over_n(self):
        assert derive_qalsh_params(400).beta == pytest.approx(0.25)
        assert derive_qalsh_params(50).beta == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            derive_qalsh_params(0)
        with pytest.raises(ValueError):
            derive_qalsh_params(100, c=1.0)


class TestQALSHSearch:
    @pytest.fixture(scope="class")
    def setup(self):
        gen = np.random.default_rng(17)
        # Clustered Euclidean data: QALSH must find near neighbours.
        centers = gen.standard_normal((10, 12)) * 8
        points = centers[gen.integers(10, size=1200)] + gen.standard_normal((1200, 12))
        index = QALSH(points, np.random.default_rng(18))
        return points, index

    def test_finds_near_neighbours(self, setup):
        points, index = setup
        gen = np.random.default_rng(19)
        recalls = []
        for qi in gen.choice(len(points), 15, replace=False):
            q = points[qi]
            brute = np.linalg.norm(points - q, axis=1)
            exact = set(np.argsort(brute)[:10].tolist())
            ids, dists, _ = index.search(q, k=10)
            recalls.append(len(exact & set(ids.tolist())) / 10)
        assert float(np.mean(recalls)) >= 0.6

    def test_returned_distances_are_exact(self, setup):
        points, index = setup
        q = points[3]
        ids, dists, _ = index.search(q, k=5)
        for pid, dist in zip(ids, dists):
            assert dist == pytest.approx(float(np.linalg.norm(points[pid] - q)), abs=1e-9)

    def test_distances_sorted(self, setup):
        points, index = setup
        _, dists, _ = index.search(points[0], k=8)
        assert np.all(np.diff(dists) >= 0)

    def test_respects_budget_roughly(self, setup):
        points, index = setup
        _, _, verified = index.search(points[5], k=5)
        budget = int(index.params.beta * index.n) + 5 - 1
        # One extra round may overshoot, but not unboundedly.
        assert verified <= budget + index.n // 2

    def test_page_accounting(self, setup):
        points, index = setup
        store = VectorStore(points, page_size=512)
        reader = store.reader()
        index_pages = [0]
        index.search(points[0], k=5, reader=reader, index_pages=index_pages)
        assert index_pages[0] >= index.params.n_hash * index.tree_height
        assert reader.pages_touched > 0

    def test_index_size(self, setup):
        points, index = setup
        expected_tables = index.params.n_hash * len(points) * 8
        assert index.index_size_bytes() >= expected_tables

    def test_rejects_bad_inputs(self, setup):
        _, index = setup
        with pytest.raises(ValueError):
            index.search(np.zeros(12), k=0)
        with pytest.raises(ValueError):
            index.search(np.zeros(5), k=1)
        with pytest.raises(ValueError):
            QALSH(np.empty((0, 3)), np.random.default_rng(0))

    def test_k_capped_at_n(self):
        gen = np.random.default_rng(20)
        points = gen.standard_normal((30, 6))
        index = QALSH(points, gen)
        ids, _, _ = index.search(points[0], k=100)
        assert len(ids) <= 30


class TestTreeShape:
    @pytest.mark.parametrize(
        "page_size, height, leaf_pages",
        [
            (8, 10, 500),  # one entry per leaf, binary internal levels
            (15, 10, 500),
            (16, 9, 250),
            (64, 3, 63),
            (512, 2, 8),
            (4096, 1, 1),
        ],
    )
    def test_height_pinned(self, page_size, height, leaf_pages):
        # Values recorded with the 1.8 inline level arithmetic.
        points = np.random.default_rng(0).standard_normal((500, 8))
        index = QALSH(points, rng=0, page_size=page_size)
        assert index.tree_height == height
        assert index.leaf_pages_per_table == leaf_pages
