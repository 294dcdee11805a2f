"""Tests for repro.storage.pagefile — the page-accounting disk simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.pagefile import (
    BYTES_PER_COMPONENT,
    AccessCounter,
    VectorReader,
    VectorStore,
)


def _store(n=100, dim=8, page_size=128, layout=None):
    vectors = np.arange(n * dim, dtype=np.float64).reshape(n, dim)
    return VectorStore(vectors, page_size=page_size, layout_order=layout)


class TestAccessCounter:
    def test_add_and_reset(self):
        counter = AccessCounter()
        counter.add()
        counter.add(4)
        assert counter.pages == 5
        counter.reset()
        assert counter.pages == 0


class TestVectorStoreLayout:
    def test_identity_layout(self):
        store = _store()
        for pid in (0, 17, 99):
            assert store.slot_of(pid) == pid

    def test_custom_layout_slots(self):
        layout = np.arange(100)[::-1].copy()
        store = _store(layout=layout)
        # layout_order[s] = point stored at slot s, so point 99 sits at slot 0.
        assert store.slot_of(99) == 0
        assert store.slot_of(0) == 99

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            _store(layout=np.zeros(100, dtype=np.int64))

    def test_rejects_wrong_length_layout(self):
        with pytest.raises(ValueError):
            _store(layout=np.arange(50))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            VectorStore(np.arange(10.0), page_size=64)

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            VectorStore(np.ones((4, 4)), page_size=0)


class TestPageGeometry:
    def test_points_per_page(self):
        # 8 dims × 4 bytes = 32 bytes/point → 4 points per 128-byte page.
        store = _store()
        assert store.stride_bytes == 8 * BYTES_PER_COMPONENT
        assert store.total_pages == 100 * 32 // 128
        assert list(store.pages_of(0)) == [0]
        assert list(store.pages_of(3)) == [0]
        assert list(store.pages_of(4)) == [1]

    def test_wide_vector_spans_pages(self):
        # 64 dims × 4B = 256 bytes/point on 128-byte pages → 2 pages each,
        # the P53 regime that forces the paper to 64KB pages.
        vectors = np.ones((10, 64))
        store = VectorStore(vectors, page_size=128)
        assert list(store.pages_of(0)) == [0, 1]
        assert list(store.pages_of(1)) == [2, 3]
        assert store.total_pages == 20

    def test_size_bytes(self):
        store = _store()
        assert store.size_bytes == 100 * 32


class TestVectorReader:
    def test_get_returns_correct_vector(self):
        store = _store()
        reader = store.reader()
        assert np.array_equal(reader.get(7), store._vectors[7])

    def test_distinct_page_counting(self):
        store = _store()  # 4 points/page
        reader = store.reader()
        reader.get(0)
        reader.get(1)  # same page
        assert reader.pages_touched == 1
        reader.get(4)  # next page
        assert reader.pages_touched == 2
        reader.get(0)  # buffered
        assert reader.pages_touched == 2

    def test_get_many_counts_union_of_pages(self):
        store = _store()
        reader = store.reader()
        reader.get_many(np.array([0, 1, 2, 3, 4, 5, 6, 7]))
        assert reader.pages_touched == 2

    def test_get_many_returns_rows(self):
        store = _store()
        reader = store.reader()
        out = reader.get_many(np.array([3, 9]))
        assert np.array_equal(out, store._vectors[[3, 9]])

    def test_get_many_empty(self):
        reader = _store().reader()
        out = reader.get_many(np.array([], dtype=np.int64))
        assert out.shape == (0, 8)
        assert reader.pages_touched == 0

    def test_scan_all_touches_every_page(self):
        store = _store()
        reader = store.reader()
        reader.scan_all()
        assert reader.pages_touched == store.total_pages

    def test_readers_are_independent(self):
        store = _store()
        r1, r2 = store.reader(), store.reader()
        r1.get(0)
        assert r2.pages_touched == 0

    def test_layout_affects_locality(self):
        # Points 0..3 contiguous under identity layout → 1 page; under a
        # scattered layout they straddle 4 pages.
        ids = np.array([0, 1, 2, 3])
        contiguous = _store()
        reader = contiguous.reader()
        reader.get_many(ids)
        assert reader.pages_touched == 1

        # Build a valid permutation placing 0,1,2,3 on different pages.
        layout = np.arange(100)
        layout[[0, 1, 2, 3]] = [0, 4, 8, 12]
        layout[[4, 8, 12]] = [1, 2, 3]
        store = _store(layout=layout)
        reader = store.reader()
        reader.get_many(ids)
        assert reader.pages_touched == 4

    def test_wide_vector_get_many_counts_spans(self):
        vectors = np.ones((6, 64))
        store = VectorStore(vectors, page_size=128)  # 2 pages per point
        reader = store.reader()
        reader.get_many(np.array([0, 2]))
        assert reader.pages_touched == 4

    def test_reader_type(self):
        assert isinstance(_store().reader(), VectorReader)
