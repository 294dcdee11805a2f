"""Tests for repro.storage.pagefile — the page-accounting disk simulator."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.index.ring_idistance import RingIDistance
from repro.storage.pagefile import (
    BYTES_PER_COMPONENT,
    AccessCounter,
    PageFile,
    VectorReader,
    VectorStore,
    expand_runs,
)

from conftest import page_set, slot_pages_reference


def _store(n=100, dim=8, page_size=128, layout=None):
    vectors = np.arange(n * dim, dtype=np.float64).reshape(n, dim)
    return VectorStore(vectors, page_size=page_size, layout_order=layout)


class TestAccessCounter:
    def test_add_and_reset(self):
        counter = AccessCounter()
        counter.add()
        counter.add(4)
        assert counter.pages == 5


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
        assert store.file.stride_bytes == 8 * BYTES_PER_COMPONENT
        assert store.file.total_pages == 100 * 32 // 128
        for pid, page in ((0, 0), (3, 0), (4, 1)):
            reader = store.reader()
            reader.get(pid)
            assert page_set(reader._touched) == {page}

    def test_wide_vector_spans_pages(self):
        # 64 dims × 4B = 256 bytes/point on 128-byte pages → 2 pages each,
        # the P53 regime that forces the paper to 64KB pages.
        file = PageFile(10, 64, page_size=128)
        for slot, pages in ((0, {0, 1}), (1, {2, 3})):
            bitmap = file.bitmap()
            file.charge(bitmap, np.array([slot]))
            assert page_set(bitmap) == pages
        assert file.total_pages == 20

    def test_size_bytes(self):
        store = _store()
        assert store.file.size_bytes == 100 * 32

    def test_identity_layout_store_allocates_no_per_point_array(self):
        # Only a non-identity layout needs an id→slot table; the slot of an
        # identity-layout point is its id.
        vectors = np.zeros((50_000, 4))
        for layout in (None, np.arange(50_000)):
            tracemalloc.start()
            store = VectorStore(vectors, layout_order=layout)
            retained, _ = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert retained < 50_000, retained
            assert store.slot_of(123) == 123
        shuffled = VectorStore(vectors, layout_order=np.arange(50_000)[::-1])
        assert shuffled.slot_of(123) == 50_000 - 124


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
        assert reader.pages_touched == store.file.total_pages

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


def _brute_pages(store, point_ids):
    """Distinct pages of a set of points, slot byte range by byte range."""
    slots = [store.slot_of(int(pid)) for pid in point_ids]
    return slot_pages_reference(slots, store.file.stride_bytes, store.file.page_size)


class TestPageBitmap:
    """The bitmap reader against a brute-force distinct-page set."""

    # (6, 4096) and (5, 256) straddle page edges; (64, 4096) and (16, 64)
    # divide the page (256-byte slots on 4 KB pages, as offline-batch's
    # 64-d vectors); (300, 256) and (64, 100) are 3+ and 2+ pages wide.
    @pytest.mark.parametrize(
        "dim, page_size",
        [(6, 4096), (5, 256), (64, 4096), (16, 64), (300, 256), (64, 100)],
    )
    def test_counts_match_brute_force(self, dim, page_size):
        gen = np.random.default_rng(dim)
        n = 3000
        store = VectorStore(gen.standard_normal((n, dim)), page_size=page_size,
                            layout_order=gen.permutation(n))
        reader = store.reader()
        expected: set[int] = set()
        for _ in range(5):
            ids = gen.integers(0, n, size=int(gen.integers(0, 400)))
            reader.get_many(ids)
            single = int(gen.integers(0, n))
            reader.get(single)
            expected |= _brute_pages(store, ids.tolist() + [single])
            assert reader.pages_touched == len(expected)
            assert page_set(reader._touched) == expected

    def test_wide_vectors_span_three_or_more_pages(self):
        store = VectorStore(np.zeros((10, 300)), page_size=256)  # 1200-byte stride
        assert max(len(_brute_pages(store, [i])) for i in range(10)) >= 5
        reader = store.reader()
        reader.get_many(np.array([3]))
        assert page_set(reader._touched) == _brute_pages(store, [3])

    @pytest.mark.parametrize(
        "dim, page_size",
        [(6, 4096), (5, 256), (6, 16), (300, 256), (64, 100)],  # straddling; 3+ pages wide
    )
    def test_slot_runs_charge_their_points_pages(self, dim, page_size):
        # The ring's projected file charges slot runs in closed form; the
        # reference walks every slot of every run byte range by byte range.
        gen = np.random.default_rng(dim + page_size)
        n = 3000
        ring = _one_run_ring(n, dim, gen.permutation(n), page_size)
        stride = dim * BYTES_PER_COMPONENT
        assert ring.file.bitmap().shape == (-(-n * stride // page_size),)
        for _ in range(5):
            # Sorted, disjoint runs including empty ones at unaligned slots.
            edges = np.sort(gen.choice(n + 1, size=2 * int(gen.integers(1, 40)),
                                       replace=False))
            starts, stops = edges[0::2], edges[1::2]
            stops[::3] = starts[::3]
            runs = ring.file.bitmap()
            ring.file.charge_runs(runs, starts, stops)
            slots = [s for a, b in zip(starts.tolist(), stops.tolist()) for s in range(a, b)]
            assert page_set(runs) == slot_pages_reference(slots, stride, page_size)

    @pytest.mark.parametrize(
        "dim, page_size",
        # straddling; dividing the page; 3+ pages wide
        [(6, 4096), (5, 256), (6, 16), (64, 4096), (16, 64), (300, 256), (64, 100)],
    )
    def test_charge_equals_charge_runs_of_single_slots(self, dim, page_size):
        # The three charge forms mark the same pages: a batch of slots, the
        # same slots as one-slot runs, and each slot's own page slice.
        gen = np.random.default_rng(dim * page_size)
        file = PageFile(3000, dim, page_size)
        for _ in range(5):
            slots = gen.integers(0, 3000, size=int(gen.integers(0, 400)))
            by_slot, by_run, one_by_one = file.bitmap(), file.bitmap(), file.bitmap()
            file.charge(by_slot, slots)
            file.charge_runs(by_run, slots, slots + 1)
            for slot in slots.tolist():
                one_by_one[file.slot_pages(slot)] = True
            assert np.array_equal(by_slot, by_run)
            assert np.array_equal(by_slot, one_by_one)

    @pytest.mark.parametrize("dim, page_size", [(64, 4096), (16, 64), (1, 8), (6, 4096)])
    def test_charge_matches_brute_force_whether_or_not_slots_straddle(self, dim, page_size):
        # charge skips the last-page pass when the stride divides the page;
        # both branches against the byte-range reference.
        file = PageFile(5000, dim, page_size)
        stride = dim * BYTES_PER_COMPONENT
        gen = np.random.default_rng(dim + page_size)
        for size in (0, 1, 37, 2048):
            slots = gen.integers(0, 5000, size=size)
            pages = file.bitmap()
            file.charge(pages, slots)
            assert page_set(pages) == slot_pages_reference(slots.tolist(), stride, page_size)

    def test_charge_counts_pages_and_vectors_is_the_store(self):
        store = _store()  # 4 points/page
        reader = store.reader()
        reader.charge(np.array([0, 5]))
        assert reader.pages_touched == 2
        assert reader.vectors is store._vectors


def _one_run_ring(n, dim, layout, page_size):
    """A ring over ``n`` zero points whose one sub-partition holds them all,
    in ``layout`` order."""
    state = {
        "centers": np.zeros((1, dim)),
        "epsilon": np.ones(1),
        "C": np.array([2]),
        "n_key": np.ones(1, dtype=np.int64),
        "ksp": np.ones(1, dtype=np.int64),
        "max_ring": np.zeros(1, dtype=np.int64),
        "sp_keys": np.zeros(1, dtype=np.int64),
        "sp_pivots": np.zeros((1, dim)),
        "sp_radii": np.zeros(1),
        "sp_offsets": np.array([0, n]),
        "layout_order": layout,
    }
    return RingIDistance.from_state(np.zeros((n, dim)), state, page_size=page_size)


class TestExpandRuns:
    def test_matches_concatenated_aranges(self):
        starts = np.array([5, 0, 9, 9, 20])
        stops = np.array([8, 0, 12, 9, 21])
        expected = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
        out = expand_runs(starts, stops)
        assert out.dtype == np.int64
        assert np.array_equal(out, expected)

    def test_no_runs(self):
        out = expand_runs(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.int64
