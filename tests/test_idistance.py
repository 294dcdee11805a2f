"""Tests for repro.index.idistance — the standard Fig. 1 pattern."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.idistance import IDistanceIndex
from repro.storage.pagefile import AccessCounter, VectorStore


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(1).standard_normal((800, 6))


@pytest.fixture(scope="module")
def index(points):
    return IDistanceIndex(points, n_partitions=5, rng=np.random.default_rng(2))


class TestBuild:
    def test_layout_is_permutation(self, index, points):
        assert sorted(index.layout_order.tolist()) == list(range(len(points)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IDistanceIndex(np.empty((0, 3)), 2, np.random.default_rng(0))

    def test_index_size_positive(self, index):
        assert index.index_size_bytes(4096) > 0


class TestRangeSearch:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 4.0])
    def test_matches_brute_force(self, index, points, radius):
        query = np.random.default_rng(radius_seed := int(radius * 10)).standard_normal(6)
        ids, dists = index.range_search(query, radius)
        brute = np.linalg.norm(points - query, axis=1)
        expected = set(np.flatnonzero(brute <= radius).tolist())
        assert set(ids.tolist()) == expected
        assert np.allclose(np.sort(dists), np.sort(brute[sorted(expected)]))

    def test_zero_radius(self, index, points):
        ids, _ = index.range_search(points[10], 0.0)
        assert 10 in ids.tolist()

    def test_rejects_negative_radius(self, index):
        for radius in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                index.range_search(np.zeros(6), radius)

    def test_counts_pages(self, index, points):
        counter = AccessCounter()
        store = VectorStore(points, page_size=256, layout_order=index.layout_order)
        reader = store.reader()
        index.range_search(np.zeros(6), 2.0, tree_counter=counter, reader=reader)
        assert counter.pages > 0
        assert reader.pages_touched > 0
