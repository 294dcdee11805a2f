"""Tests for repro.cluster.kmeans."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.kmeans import KMeansResult, assign_to_centers, kmeans


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestKMeansBasics:
    def test_result_shapes(self):
        points = _rng().standard_normal((200, 5))
        result = kmeans(points, 4, _rng(1))
        assert result.centers.shape == (4, 5)
        assert result.labels.shape == (200,)
        assert result.radii.shape == (4,)
        assert result.n_clusters == 4
        assert result.n_iter >= 1

    def test_labels_are_nearest_centers(self):
        points = _rng(2).standard_normal((300, 4))
        result = kmeans(points, 6, _rng(3))
        expected = assign_to_centers(points, result.centers)
        assert np.array_equal(result.labels, expected)

    def test_radii_cover_members(self):
        points = _rng(4).standard_normal((250, 3))
        result = kmeans(points, 5, _rng(5))
        dist = np.linalg.norm(points - result.centers[result.labels], axis=1)
        for j in range(result.n_clusters):
            members = result.labels == j
            if members.any():
                assert dist[members].max() <= result.radii[j] + 1e-9

    def test_every_cluster_nonempty(self):
        points = _rng(6).standard_normal((100, 2))
        result = kmeans(points, 8, _rng(7))
        for j in range(result.n_clusters):
            assert (result.labels == j).sum() > 0

    def test_separated_clusters_recovered(self):
        gen = _rng(8)
        a = gen.standard_normal((50, 2)) + [0.0, 0.0]
        b = gen.standard_normal((50, 2)) + [30.0, 0.0]
        c = gen.standard_normal((50, 2)) + [0.0, 30.0]
        points = np.vstack([a, b, c])
        result = kmeans(points, 3, _rng(9))
        # Each true cluster should map to a single k-means label.
        for block in (slice(0, 50), slice(50, 100), slice(100, 150)):
            assert len(np.unique(result.labels[block])) == 1
        assert result.inertia < 800.0

    def test_k_capped_at_n(self):
        points = _rng(10).standard_normal((3, 2))
        result = kmeans(points, 10, _rng(11))
        assert result.n_clusters == 3

    def test_single_point(self):
        result = kmeans(np.array([[1.0, 2.0]]), 1, _rng(12))
        assert np.allclose(result.centers, [[1.0, 2.0]])
        assert result.inertia == pytest.approx(0.0)

    def test_identical_points(self):
        points = np.ones((40, 3))
        result = kmeans(points, 4, _rng(13))
        assert result.inertia == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(result.centers, 1.0)

    def test_cluster_members_helper(self):
        points = _rng(14).standard_normal((60, 2))
        result = kmeans(points, 3, _rng(15))
        all_members = np.concatenate(
            [result.cluster_members(j) for j in range(result.n_clusters)]
        )
        assert sorted(all_members.tolist()) == list(range(60))


class TestKMeansErrors:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), 2, _rng())

    def test_rejects_bad_k(self):
        points = _rng().standard_normal((10, 2))
        with pytest.raises(ValueError):
            kmeans(points, 0, _rng())
        with pytest.raises(ValueError):
            kmeans(points, -1, _rng())

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            kmeans(np.arange(10.0), 2, _rng())


class TestAssignToCenters:
    def test_matches_manual_argmin(self):
        gen = _rng(16)
        points = gen.standard_normal((50, 3))
        centers = gen.standard_normal((4, 3))
        labels = assign_to_centers(points, centers)
        manual = np.array(
            [np.argmin(((c - centers) ** 2).sum(axis=1)) for c in points]
        )
        assert np.array_equal(labels, manual)

    @given(
        arrays(np.float64, (20, 3), elements=st.floats(-100, 100)),
        arrays(np.float64, (5, 3), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=50, deadline=None)
    def test_assigned_center_is_closest(self, points, centers):
        # assign_to_centers ranks by the expanded form ‖p‖² − 2p·c + ‖c‖²,
        # whose rounding error grows with the norms, not with the distance:
        # a near-tie can be misordered by up to that bound, so the check
        # allows exactly that much on squared distances.
        labels = assign_to_centers(points, centers)
        eps = np.finfo(np.float64).eps
        p_sq = np.sum(points * points, axis=1)
        c_sq = np.sum(centers * centers, axis=1)
        d_assigned = np.sum((points - centers[labels]) ** 2, axis=1)
        for j in range(centers.shape[0]):
            d_j = np.sum((points - centers[j]) ** 2, axis=1)
            slack = 8 * eps * (p_sq + c_sq[labels] + c_sq[j])
            assert np.all(d_assigned <= d_j + slack)


class TestDeterminism:
    def test_same_seed_same_result(self):
        points = _rng(17).standard_normal((150, 4))
        r1 = kmeans(points, 5, np.random.default_rng(42))
        r2 = kmeans(points, 5, np.random.default_rng(42))
        assert np.array_equal(r1.labels, r2.labels)
        assert np.allclose(r1.centers, r2.centers)

    def test_result_is_dataclass(self):
        points = _rng(18).standard_normal((30, 2))
        result = kmeans(points, 2, _rng(19))
        assert isinstance(result, KMeansResult)
