"""Tests for repro.api — shared result types and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    BatchResult,
    MIPSIndex,
    SearchResult,
    SearchStats,
    validate_id,
    validate_queries,
    validate_query,
)
from repro.baselines.exact import ExactMIPS
from repro.core.promips import ProMIPS, ProMIPSParams


class TestSearchResult:
    def test_normalises_dtypes(self):
        result = SearchResult(
            ids=[3, 1], scores=[2.5, 1.5], stats=SearchStats()
        )
        assert result.ids.dtype == np.int64
        assert result.scores.dtype == np.float64
        assert len(result) == 2

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            SearchResult(ids=[1, 2], scores=[1.0], stats=SearchStats())

    def test_stats_defaults(self):
        stats = SearchStats()
        assert stats.pages == 0
        assert stats.candidates == 0
        assert stats.extras == {}


class TestValidateQuery:
    def test_accepts_lists(self):
        out = validate_query([1, 2, 3], 3)
        assert out.dtype == np.float64

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            validate_query(np.ones(4), 3)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            validate_query([1.0, np.nan], 2)
        with pytest.raises(ValueError):
            validate_query([1.0, np.inf], 2)

    def test_flattens_row_vectors(self):
        assert validate_query(np.ones((1, 3)), 3).shape == (3,)

    def test_rejects_overflowing_squared_norm(self):
        # Finite entries, but every inner product with the vector itself
        # (or a neighbour along it) would score as infinity.
        with pytest.raises(ValueError, match="squared norm overflows"):
            validate_query([1e308, 1e308], 2)
        with pytest.raises(ValueError, match="squared norm overflows"):
            validate_queries([[1.0, 2.0], [1e200, 0.0]], 2)
        assert validate_query([1e150, 1e150], 2)[0] == 1e150


class TestValidateId:
    def test_accepts_python_and_numpy_integers(self):
        for value in (0, 7, np.int64(7), np.int32(7), np.uint8(7)):
            out = validate_id(value)
            assert out == int(value) and type(out) is int

    @pytest.mark.parametrize(
        "bad", [True, False, np.bool_(True), 2.5, 2.0, np.float64(2), "x", None],
        ids=repr,
    )
    def test_rejects_bools_floats_and_non_numbers(self, bad):
        with pytest.raises(ValueError, match="integer"):
            validate_id(bad)

    def test_range_is_left_to_the_caller(self):
        assert validate_id(-1) == -1


class TestEmptyBatch:
    def test_from_results_empty_list(self):
        batch = BatchResult.from_results([])
        assert batch.ids.shape == (0, 0)
        assert batch.scores.shape == (0, 0)
        assert batch.stats == []
        assert len(batch) == 0
        assert list(batch) == []

    def test_empty_constructor(self):
        batch = BatchResult.empty()
        assert batch.ids.shape == (0, 0)
        assert batch.ids.dtype == np.int64
        assert batch.scores.dtype == np.float64

    def test_validate_queries_empty_batch(self):
        out = validate_queries(np.empty((0, 5)), 5)
        assert out.shape == (0, 5)
        assert out.dtype == np.float64
        # Dimension is taken from the index when the batch carries none.
        assert validate_queries(np.empty((0, 0)), 7).shape == (0, 7)

    def test_validate_queries_still_rejects_bad_nonempty(self):
        with pytest.raises(ValueError):
            validate_queries(np.ones((2, 3)), 5)
        with pytest.raises(ValueError):
            validate_queries(np.full((1, 5), np.nan), 5)

    def test_validate_queries_rejects_zero_column_rows(self):
        # Five malformed (zero-width) queries are an error, not an empty batch.
        with pytest.raises(ValueError):
            validate_queries(np.empty((5, 0)), 8)


class TestProtocol:
    def test_indexes_satisfy_protocol(self):
        gen = np.random.default_rng(0)
        data = gen.standard_normal((100, 8))
        exact = ExactMIPS(data)
        promips = ProMIPS.build(data, ProMIPSParams(m=4, kp=2, n_key=6, ksp=2), rng=1)
        assert isinstance(exact, MIPSIndex)
        assert isinstance(promips, MIPSIndex)
