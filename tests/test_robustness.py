"""Robustness / failure-injection tests: degenerate datasets and adversarial
inputs across every method.

A production search library must not crash (or silently mis-answer) on
all-zero vectors, duplicate points, constant datasets, single points, or
negative-only inner products — shapes that all occur in real MF/feature
pipelines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactMIPS
from repro.baselines.h2alsh import H2ALSH
from repro.baselines.pq import PQBasedMIPS
from repro.baselines.rangelsh import RangeLSH
from repro.core.promips import ProMIPS, ProMIPSParams

SMALL_PARAMS = ProMIPSParams(m=4, kp=2, n_key=6, ksp=2)


def _build_all(data):
    return {
        "exact": ExactMIPS(data),
        "promips": ProMIPS.build(data, SMALL_PARAMS, rng=1),
        "h2alsh": H2ALSH(data, rng=1),
        "rangelsh": RangeLSH(data, rng=1),
        "pq": PQBasedMIPS(data, rng=1, n_coarse=4, n_centroids=8, n_probe=4,
                          opq_iters=1, min_local_train=30),
    }


class TestDegenerateDatasets:
    def test_dataset_with_zero_vectors(self):
        gen = np.random.default_rng(0)
        data = gen.standard_normal((200, 8))
        data[::7] = 0.0
        for name, index in _build_all(data).items():
            result = index.search(data[1], k=5)
            assert len(result) == 5, name
            assert np.all(np.isfinite(result.scores)), name

    def test_duplicate_points(self):
        gen = np.random.default_rng(1)
        base = gen.standard_normal((40, 6))
        data = np.vstack([base, base, base])  # every point ×3
        for name, index in _build_all(data).items():
            result = index.search(base[0], k=6)
            assert len(set(result.ids.tolist())) == len(result.ids), name

    def test_constant_dataset(self):
        data = np.ones((100, 5))
        for name, index in _build_all(data).items():
            result = index.search(np.ones(5), k=3)
            assert len(result) == 3, name
            assert np.allclose(result.scores, 5.0), name

    def test_single_point_dataset(self):
        data = np.array([[1.0, 2.0, 3.0]])
        exact = ExactMIPS(data)
        promips = ProMIPS.build(data, ProMIPSParams(m=2, kp=1, n_key=2, ksp=1), rng=0)
        for index in (exact, promips):
            result = index.search(np.array([1.0, 1.0, 1.0]), k=5)
            assert len(result) == 1
            assert result.ids[0] == 0

    def test_two_point_dataset(self):
        data = np.array([[1.0, 0.0], [0.0, 1.0]])
        promips = ProMIPS.build(data, ProMIPSParams(m=2, kp=1, n_key=2, ksp=1), rng=0)
        result = promips.search(np.array([2.0, 0.1]), k=2)
        assert set(result.ids.tolist()) == {0, 1}
        assert result.scores[0] >= result.scores[1]

    def test_negative_inner_products_only(self):
        """A query pointing away from every data point still gets answers
        (the best of a bad lot), with correct descending order."""
        gen = np.random.default_rng(2)
        data = np.abs(gen.standard_normal((150, 6)))  # positive orthant
        query = -np.ones(6)  # all inner products negative
        for name, index in _build_all(data).items():
            result = index.search(query, k=5)
            assert len(result) == 5, name
            assert np.all(result.scores <= 0), name
            assert np.all(np.diff(result.scores) <= 1e-12), name

    def test_tiny_scale_dataset(self):
        gen = np.random.default_rng(3)
        data = gen.standard_normal((100, 4)) * 1e-8
        promips = ProMIPS.build(data, SMALL_PARAMS, rng=1)
        result = promips.search(data[0], k=3)
        assert np.all(np.isfinite(result.scores))

    def test_huge_scale_dataset(self):
        gen = np.random.default_rng(4)
        data = gen.standard_normal((100, 4)) * 1e8
        promips = ProMIPS.build(data, SMALL_PARAMS, rng=1)
        result = promips.search(data[0], k=3, p=0.9)
        assert np.all(np.isfinite(result.scores))
        exact_best = float((data @ data[0]).max())
        # The guarantee arithmetic must survive 1e16-scale magnitudes.
        assert result.scores[0] >= 0.9 * exact_best


class TestAdversarialQueries:
    @pytest.fixture(scope="class")
    def world(self, latent_small):
        data, _ = latent_small
        return data, _build_all(data)

    def test_zero_query(self, world):
        data, indexes = world
        for name, index in indexes.items():
            result = index.search(np.zeros(data.shape[1]), k=3)
            assert len(result) == 3, name
            assert np.allclose(result.scores, 0.0), name

    def test_orthogonal_heavy_query(self, world):
        """A very large query must not overflow the condition arithmetic."""
        data, indexes = world
        query = np.full(data.shape[1], 1e6)
        for name, index in indexes.items():
            result = index.search(query, k=3)
            assert np.all(np.isfinite(result.scores)), name

    def test_query_equal_to_max_norm_point(self, world):
        data, indexes = world
        heavy = int(np.argmax(np.linalg.norm(data, axis=1)))
        for name, index in indexes.items():
            result = index.search(data[heavy], k=1)
            # Self-match is the exact MIP for the max-norm point.
            assert result.ids[0] == heavy, name

    def test_nan_query_rejected_everywhere(self, world):
        data, indexes = world
        bad = np.full(data.shape[1], np.nan)
        for name, index in indexes.items():
            with pytest.raises(ValueError):
                index.search(bad, k=1)

    def test_overflowing_norm_query_rejected_everywhere(self, world):
        data, indexes = world
        huge = np.full(data.shape[1], 1e308)
        for name, index in indexes.items():
            with pytest.raises(ValueError, match="squared norm overflows"):
                index.search(huge, k=1)
            with pytest.raises(ValueError, match="squared norm overflows"):
                index.search_many(np.stack([data[0], huge]), k=1)
