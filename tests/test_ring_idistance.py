"""Tests for repro.index.ring_idistance — the paper's §VI partition pattern."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine
from repro.core.conditions import StoppingRule
from repro.core.engine import TopK
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.index.ring_idistance import (
    DistanceOrder,
    RingIDistance,
    _column_tile,
    column_distances,
)
from repro.spec import build_index
from repro.storage.pagefile import AccessCounter, VectorStore

from conftest import page_set, slot_pages_reference


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(21).standard_normal((1500, 5))


@pytest.fixture(scope="module")
def ring(points):
    return RingIDistance(
        points, kp=4, n_key=12, ksp=4, rng=np.random.default_rng(22)
    )


class TestBuild:
    def test_layout_is_permutation(self, ring, points):
        assert sorted(ring.layout_order.tolist()) == list(range(len(points)))

    def test_subpartitions_cover_all_points(self, ring, points):
        members = np.concatenate(
            [ring.members(i) for i in range(ring.n_subpartitions)]
        )
        assert sorted(members.tolist()) == list(range(len(points)))

    def test_subpartition_radii_cover_members(self, ring, points):
        for i in range(ring.n_subpartitions):
            dists = np.linalg.norm(points[ring.members(i)] - ring.sp_pivots[i], axis=1)
            assert dists.max() <= ring.sp_radii[i] + 1e-9

    def test_keys_follow_formula6(self, ring, points):
        # Every member's key must equal ⌊i·C + dis(p, O_i)/ε⌋ for its
        # partition i — reconstruct from the stored geometry.
        for i in range(20):
            part = ring.sp_keys[i] // ring.C
            ring_idx = ring.sp_keys[i] - part * ring.C
            dists = np.linalg.norm(points[ring.members(i)] - ring.centers[part], axis=1)
            assert np.all((dists / ring.epsilon).astype(int) == ring_idx)

    def test_epsilon_override(self, points):
        custom = RingIDistance(
            points, kp=3, n_key=10, ksp=3, rng=np.random.default_rng(1), epsilon=0.5
        )
        assert custom.epsilon == 0.5

    def test_rejects_bad_epsilon(self, points):
        with pytest.raises(ValueError):
            RingIDistance(points, 3, 10, 3, np.random.default_rng(1), epsilon=-1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RingIDistance(np.empty((0, 4)), 3, 10, 3, np.random.default_rng(1))

    def test_rejects_bad_nkey(self, points):
        with pytest.raises(ValueError):
            RingIDistance(points, 3, 0, 3, np.random.default_rng(1))

    def test_from_state_rejects_descending_keys(self, ring, points):
        # Slot order is B+-tree traversal order only while keys ascend.
        state = {**ring.state(), "sp_keys": ring.sp_keys[::-1].copy()}
        with pytest.raises(ValueError, match="non-decreasing"):
            RingIDistance.from_state(points, state)

    def test_from_state_rejects_a_layout_that_is_not_a_permutation(self, ring, points):
        # A repeated id would sit in two slots and be reported twice.
        for bad in (np.r_[ring.layout_order[:1], ring.layout_order[:-1]],
                    np.r_[ring.layout_order[:-1], len(points)],
                    np.r_[ring.layout_order[:-1], -1]):
            state = {**ring.state(), "layout_order": bad}
            with pytest.raises(ValueError, match="layout_order.*permutation"):
                RingIDistance.from_state(points, state)

    def test_index_size_positive(self, ring, points):
        # The ring owns the projected file: n · m float32 components.
        assert ring.index_size_bytes() > points.size * 4


class TestRangeSearch:
    # 1e19 and 1e300 put the ring bounds past the int64 key range: they
    # must clamp, not wrap, and return every point.
    @pytest.mark.parametrize("radius", [0.4, 1.0, 2.5, 5.0, 1e19, 1e300])
    def test_matches_brute_force(self, ring, points, radius):
        query = np.random.default_rng(int(radius * 7)).standard_normal(5)
        ids, dists = ring.range_search(query, radius)
        brute = np.linalg.norm(points - query, axis=1)
        expected = set(np.flatnonzero(brute <= radius).tolist())
        assert set(ids.tolist()) == expected
        assert np.all(np.diff(_slots_of(ring, ids)) > 0)

    def test_results_in_ascending_slot_order(self, ring):
        # Candidate order, unsorted: the verifier orders what it reads.
        query = np.random.default_rng(5).standard_normal(5)
        brute = column_distances(ring._columns, query)
        for radius, min_radius in ((3.0, -1.0), (3.0, 1.5), (2.0, -1.0)):
            ids, dists = ring.range_search(query, radius, min_radius=min_radius)
            slots = np.flatnonzero((brute <= radius) & (brute > min_radius))
            assert np.array_equal(ids, ring.layout_order[slots])
            assert dists.tobytes() == brute[slots].tobytes()
            assert (np.diff(dists) < 0).any()  # the distances are not sorted

    def test_annulus_excludes_inner_ball(self, ring, points):
        query = np.random.default_rng(6).standard_normal(5)
        ids, dists = ring.range_search(query, 3.0, min_radius=1.5)
        brute = np.linalg.norm(points - query, axis=1)
        expected = set(np.flatnonzero((brute <= 3.0) & (brute > 1.5)).tolist())
        assert set(ids.tolist()) == expected
        assert np.all(dists > 1.5)

    def test_rejects_negative_radius(self, ring):
        for radius in (-0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                ring.range_search(np.zeros(5), radius)

    def test_counts_tree_and_data_pages(self, ring, points):
        ring = RingIDistance.from_state(points, ring.state(), page_size=256)
        counter, pages = AccessCounter(), ring.file.bitmap()
        assert pages.shape == (-(-len(points) * 5 * 4 // 256),) and not pages.any()
        ids, _ = ring.range_search(np.zeros(5), 2.0, tree_counter=counter, pages=pages)
        assert counter.pages > 0
        assert 0 < np.count_nonzero(pages) < pages.size
        # The bitmap covers the pages of every chosen run, not just the hits.
        store = VectorStore(points, page_size=256, layout_order=ring.layout_order)
        hits = store.reader()
        hits.charge(ids)
        assert np.all(pages[hits._touched])

    @pytest.mark.parametrize("shape", [(1,), (4,), (6,), (5, 1), (1, 5), ()],
                             ids=lambda shape: "x".join(map(str, shape)) or "scalar")
    def test_rejects_query_of_the_wrong_shape(self, ring, shape):
        # A (1,) query would broadcast against the 5-wide columns.
        query = np.zeros(shape)
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            ring.range_search(query, 1.0)
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            next(ring.knn_iterate(query))

    def test_subpartition_layout_gives_sequential_reads(self, ring, points):
        """Points of one sub-partition must occupy contiguous slots, the
        §VI property that turns candidate fetches into sequential I/O."""
        slot_of = np.empty(len(points), dtype=int)
        slot_of[ring.layout_order] = np.arange(len(points))
        for i in range(30):
            slots = np.sort(slot_of[ring.members(i)])
            assert np.array_equal(slots, np.arange(slots[0], slots[0] + len(slots)))


class TestRunReads:
    """Range search reads sub-partitions as slot runs of the §VI layout, and
    charges them to the ring's own page bitmap."""

    def test_slot_runs_hold_member_ids(self, ring, points):
        restored = RingIDistance.from_state(points, ring.state())
        assert ring.sp_offsets[0] == 0 and ring.sp_offsets[-1] == len(points)
        for index in (ring, restored):
            for i in range(ring.n_subpartitions):
                run = ring.layout_order[ring.sp_offsets[i] : ring.sp_offsets[i + 1]]
                assert np.array_equal(index.members(i), run)

    @pytest.mark.parametrize("layout", ["ring", "identity", "shuffled"])
    @pytest.mark.parametrize("page_size", [4096, 256, 64, 16])
    def test_charges_the_pages_of_get_many(self, ring, points, page_size, layout):
        # The reference walks every slot of every chosen run byte range by
        # byte range; at 16-byte pages a 20-byte slot straddles.
        ring, points = _relaid(ring, points, layout, page_size)
        stride = ring.dim * 4
        gen = np.random.default_rng(page_size)
        for radius in (0.3, 1.0, 2.5):
            query = gen.standard_normal(5)
            pages = ring.file.bitmap()
            assert pages.shape == (-(-len(points) * stride // page_size),)
            ring.range_search(query, radius, pages=pages)
            chosen = ring._candidate_subpartitions(query, radius, None)
            slots = [s for i in chosen.tolist()
                     for s in range(ring.sp_offsets[i], ring.sp_offsets[i + 1])]
            assert page_set(pages) == slot_pages_reference(slots, stride, page_size)

    @pytest.mark.parametrize("page_size", [4096, 64, 16, 8])
    def test_read_slot_returns_the_row_and_charges_its_pages(self, ring, points, page_size):
        ring = RingIDistance.from_state(points, ring.state(), page_size=page_size)
        for slot in (0, 1, 7, len(points) // 2, len(points) - 1):
            pages = ring.file.bitmap()
            row = ring.read_slot(slot, pages)
            want = points[ring.layout_order[slot]]
            assert row.flags.c_contiguous and row.tobytes() == want.tobytes()
            assert page_set(pages) == slot_pages_reference([slot], ring.dim * 4, page_size)

    @pytest.mark.parametrize("page_size", [4096, 64, 16, 8])
    def test_slot_distance_is_the_range_search_distance_and_charges_its_pages(
        self, ring, points, page_size
    ):
        ring = RingIDistance.from_state(points, ring.state(), page_size=page_size)
        query = np.random.default_rng(page_size).standard_normal(ring.dim)
        for slot in (0, 1, 7, len(points) // 2, len(points) - 1):
            pages = ring.file.bitmap()
            dist = ring.slot_distance(slot, query, pages)
            assert page_set(pages) == slot_pages_reference([slot], ring.dim * 4, page_size)
            # A range search at that radius keeps the point, at that distance.
            ids, dists = ring.range_search(query, dist)
            hit = ids == ring.layout_order[slot]
            assert np.count_nonzero(hit) == 1 and dists[hit][0] == dist

    @pytest.mark.parametrize("m", [1, 6, 9, 129])
    def test_slot_distance_is_the_kernel_column_bytes(self, m):
        # The probe radius is the kernel's own column, whatever the summation
        # order: below 8 terms, eight accumulators and a remainder, halves
        # past 128.
        gen = np.random.default_rng(m)
        points = gen.standard_normal((200, m)) * np.logspace(-2, 2, 200)[:, None]
        ring = RingIDistance(points, kp=3, n_key=4, ksp=2, rng=np.random.default_rng(1))
        for scale in (1e-3, 1.0, 1e3):
            query = gen.standard_normal(m) * scale
            for slot in (0, 1, 57, 199):
                dist = ring.slot_distance(slot, query, ring.file.bitmap())
                row = points[ring.layout_order[slot]]
                want = column_distances(row[:, None], query)
                assert isinstance(dist, float)
                assert np.array([dist]).tobytes() == want.tobytes(), (m, scale, slot)


def _relaid(ring, points, layout, page_size):
    """The sub-partitions of ``ring`` at ``page_size``, in one of three slot
    layouts, and the points that ring indexes.

    ``ring`` keeps the built layout; ``identity`` renumbers the points in
    slot order, so ``layout_order`` is the identity; ``shuffled`` permutes
    the members inside every sub-partition run.  Page charges must follow
    the ring's own layout whichever it is.
    """
    if layout == "ring" and page_size == ring.file.page_size:
        return ring, points
    order = ring.layout_order
    if layout == "identity":
        points = points[order]
        order = np.arange(len(points))
    elif layout == "shuffled":
        gen = np.random.default_rng(7)
        order = np.concatenate(
            [gen.permutation(ring.members(i)) for i in range(ring.n_subpartitions)]
        )
    state = {**ring.state(), "layout_order": order}
    return RingIDistance.from_state(points, state, page_size=page_size), points


def _unbounded(ring, points):
    """A copy of ``ring`` whose sub-partition spheres contain everything, so
    its candidate set is exactly the sub-partitions the B+-tree walk reaches."""
    state = {**ring.state(), "sp_radii": np.full(ring.n_subpartitions, np.inf)}
    return RingIDistance.from_state(points, state)


def _slots_of(ring, ids):
    """The slots holding ``ids`` in ``ring``'s layout."""
    slot_of = np.empty(ring.n, dtype=np.int64)
    slot_of[ring.layout_order] = np.arange(ring.n)
    return slot_of[ids]


def _reference_range_search(ring, points, query, radius, min_radius,
                            reader=None, unbounded=None):
    """Tree walk, ``np.linalg.norm`` sphere test (with the ring's relative
    slack of m + 8 ulps), member-by-member read and ``np.linalg.norm``
    distances, in slot order: the chosen sub-partitions ascend, and so do
    their slot runs.

    Returns ids, distances and the B+-tree pages of the walk; ``reader``, if
    given, is charged through ``get_many`` one sub-partition at a time.
    """
    unbounded = unbounded or _unbounded(ring, points)
    counter = AccessCounter()
    reached = unbounded._candidate_subpartitions(query, radius, counter)
    pivot_dists = np.linalg.norm(ring.sp_pivots[reached] - query[None, :], axis=1)
    slack = 1.0 + (ring.dim + 8) * np.finfo(np.float64).eps
    chosen = reached[pivot_dists <= (radius + ring.sp_radii[reached]) * slack]
    members = [ring.members(i) for i in chosen]
    rows = [
        reader.get_many(ids) if reader is not None else points[ids] for ids in members
    ]
    ids = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
    vecs = np.concatenate(rows) if rows else np.empty((0, ring.dim))
    dists = np.linalg.norm(vecs - query[None, :], axis=1)
    mask = (dists <= radius) & (dists > min_radius)
    return ids[mask], dists[mask], counter.pages


class TestColumnDistances:
    """The range-search kernel against ``np.linalg.norm`` byte for byte: it
    re-creates numpy's summation order, so numpy drift shows here."""

    @pytest.mark.parametrize("m", [*range(1, 25), 64, 129, 300])
    def test_matches_linalg_norm_bytes(self, m):
        gen = np.random.default_rng(m)
        n = 500
        scales = np.logspace(-3, 3, n)[gen.permutation(n), None]
        points = gen.standard_normal((n, m)) * scales
        points[n // 2 :: 7] = points[n // 2]  # coincident points
        columns = np.ascontiguousarray(points.T)
        for query in (gen.standard_normal(m), gen.standard_normal(m) * 1e3,
                      gen.standard_normal(m) * 1e-3, points[3].copy()):
            got = column_distances(columns, query)
            want = np.linalg.norm(points - query[None, :], axis=1)
            assert got.tobytes() == want.tobytes()
        # A query equal to a row is at distance 0 from it and its copies.
        assert column_distances(columns, points[3])[3] == 0.0
        assert np.all(column_distances(columns, points[n // 2])[n // 2 :: 7] == 0.0)

    def test_column_slices(self):
        gen = np.random.default_rng(5)
        columns = gen.standard_normal((6, 1000))
        query = gen.standard_normal(6)
        got = column_distances(columns[:, 123:877], query)
        want = np.linalg.norm(columns.T[123:877] - query[None, :], axis=1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 6, 9, 129, 300])
    def test_spans_around_the_tile_width(self, m):
        # The kernel works tile by tile; a span one short of, equal to, one
        # past and two tiles past a tile edge must give the same bytes.
        tile = _column_tile(m)
        assert tile >= 1 and 8 * m * tile <= 6 * 8192 * 8
        gen = np.random.default_rng(m)
        n = 2 * tile + 5
        columns = gen.standard_normal((m, n + 3)) * np.logspace(-2, 2, n + 3)
        query = gen.standard_normal(m)
        for width in (tile - 1, tile, tile + 1, n):
            for lo in (0, 3):
                span = columns[:, lo : lo + width]
                got = column_distances(span, query)
                # Row-major points, as the ring's points are: numpy sums a
                # contiguous row pairwise, a strided one left to right.
                rows = np.ascontiguousarray(span.T)
                want = np.linalg.norm(rows - query[None, :], axis=1)
                assert got.tobytes() == want.tobytes(), (m, width, lo)


class _SmallOrder(DistanceOrder):
    """The prefix order with a first prefix of 3, so a few hundred distances
    run through several extensions."""

    FIRST = 3


class TestDistanceOrder:
    """``head(n)`` against the eager stable argsort, across extensions, with
    values tied at every cut."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 400),
        levels=st.sampled_from([1, 2, 5, 40, 10**9]),
        step=st.integers(1, 70),
    )
    def test_head_is_the_stable_argsort_prefix(self, seed, size, levels, step):
        # Quantized distances: few levels put ties across every cut.
        gen = np.random.default_rng(seed)
        dists = gen.integers(0, levels, size=size) * 0.25
        want = np.argsort(dists, kind="stable")
        order = _SmallOrder(dists)
        for n in [*range(0, size + step, step), size + 1]:
            assert np.array_equal(order.head(n), want[:n])
        # Asking again, or for less, reads the ordered buffer.
        assert np.array_equal(order.head(size // 2), want[: size // 2])

    def test_full_size_prefixes_with_ties_straddling_every_cut(self):
        # 40k distances on 300 levels, ~133 copies each: every extension's
        # target position falls inside a run of ties, which the cut by value
        # takes whole.
        gen = np.random.default_rng(3)
        dists = np.sqrt(gen.integers(0, 300, size=40_000).astype(np.float64))
        want = np.argsort(dists, kind="stable")
        ranked = dists[want]
        first = DistanceOrder.FIRST
        order = DistanceOrder(dists)
        extensions = 0
        for n in (1, 2047, 2048, 4096, first - 1, first, first + 1, 2 * first + 5,
                  3 * first, 4 * first + 1, dists.size, dists.size + 7):
            filled = order._filled
            assert np.array_equal(order.head(n), want[:n]), n
            if order._filled > filled and order._filled < dists.size:
                target = max(n, first, 2 * filled)
                assert ranked[target - 1] == ranked[target]
                assert order._filled > target
                extensions += 1
        assert extensions >= 2

    def test_orders_only_what_was_asked(self):
        dists = np.random.default_rng(4).random(5 * DistanceOrder.FIRST)
        order = DistanceOrder(dists)
        order.head(10)
        assert order._filled == DistanceOrder.FIRST
        order.head(DistanceOrder.FIRST + 1)
        assert order._filled == 2 * DistanceOrder.FIRST

    def test_empty(self):
        assert DistanceOrder(np.empty(0)).head(5).size == 0


class TestBoundaryPoints:
    """A point whose computed distance equals the radius is in range, even
    where the rounded bounds the range search prunes with (ring keys,
    sub-partition spheres) put it a few ulps outside.  Pruned once, it is
    lost for good: the next annulus starts strictly above that radius."""

    def test_probe_point_on_a_sphere_boundary_is_returned(self):
        # The Quick-Probe radius is the distance to id 0, whose sub-partition
        # sphere touches the query sphere to the last ulp.
        gen = np.random.default_rng(3)
        n = int(gen.integers(2, 6))
        data = np.abs(gen.standard_normal((n, 2))) + 0.1
        index = build_index("promips(m=1, kp=1, n_key=2, ksp=1)", data, rng=3)
        result = index.search(data[2], k=5)
        assert sorted(result.ids.tolist()) == list(range(n))

    def test_point_on_an_inner_ring_boundary_is_returned(self):
        # Id 2 lies in ring 2.9999999999999964 of its partition, while the
        # query's lower ring bound (dis(q, O) - r) / ε rounds to 3.0.
        points = np.array([[0.3887992451373623], [0.9084817486827258],
                           [0.2202118741536941], [0.30882676816747145]])
        ring = RingIDistance(points, kp=3, n_key=1, ksp=1, rng=np.random.default_rng(0))
        ids, _ = ring.range_search(np.array([-2.746659857242539]), 2.966871731396233)
        assert 2 in ids.tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        m=st.integers(1, 6),
        kp=st.integers(1, 3),
        n_key=st.integers(1, 5),
        ksp=st.integers(1, 3),
        kind=st.sampled_from(["positive", "integer", "scaled"]),
    )
    def test_every_annulus_equals_brute_force(self, seed, n, m, kp, n_key, ksp, kind):
        """``range_search(q, r, min_radius=r0)`` returns exactly the slots
        with ``r0 < column_distances(...) <= r``, for every radius that is
        some point's distance (the boundary cases) and the annulus from the
        previous one, as the compensation pass asks for them."""
        gen = np.random.default_rng(seed)
        if kind == "positive":
            points = np.abs(gen.standard_normal((n, m))) + 0.1
        elif kind == "integer":
            points = gen.integers(-2, 3, size=(n, m)).astype(np.float64)
        else:
            points = gen.standard_normal((n, m)) * np.logspace(-3, 3, n)[:, None]
        ring = RingIDistance(points, kp=kp, n_key=n_key, ksp=ksp, rng=gen)
        for query in (points[int(gen.integers(n))].copy(),
                      points[int(gen.integers(n))] + 1e-3 * gen.standard_normal(m),
                      gen.standard_normal(m)):
            brute = column_distances(ring._columns, query)
            previous = -1.0
            for radius in np.unique(brute).tolist():
                ids, _ = ring.range_search(query, radius, min_radius=previous)
                expected = ring.layout_order[(brute <= radius) & (brute > previous)]
                assert sorted(ids.tolist()) == sorted(expected.tolist())
                previous = radius


class TestRangeSearchReference:
    """Range search against the member-by-member reference: equal ids,
    distance bytes, B+-tree pages and touched-page bitmap, for rings built
    by ProMIPS and restored from state, in three slot layouts (see
    :func:`_relaid`).  The reference charges
    ``VectorStore(points, page_size, layout_order=ring.layout_order)``
    through ``get_many``; the ring charges its own bitmap run by run."""

    @pytest.fixture(
        scope="class", params=["promips()", "promips(m=10)", "from_state", "point_spheres"]
    )
    def case(self, request):
        data = np.random.default_rng(41).standard_normal((2500, 24))
        m = 10 if request.param == "promips(m=10)" else None
        index = ProMIPS.build(data, ProMIPSParams(m=m), rng=42)
        points = index.projection.project(data)
        ring = index.ring
        if request.param == "from_state":
            ring = RingIDistance.from_state(points, ring.state())
        elif request.param == "point_spheres":
            # Zero radii make the sphere test drop sub-partitions that hold
            # in-range points, so only the chosen-run mask keeps them out.
            state = {**ring.state(), "sp_radii": np.zeros(ring.n_subpartitions)}
            ring = RingIDistance.from_state(points, state)
        return ring, points, _unbounded(ring, points)

    # promips() picks m=4 here (16-byte slots); the 40-byte slots of m=10
    # span three 16-byte pages, so their interior pages are charged too.
    @pytest.mark.parametrize("layout", ["ring", "identity", "shuffled"])
    @pytest.mark.parametrize("page_size", [4096, 256, 64, 16])
    def test_matches_reference(self, case, layout, page_size):
        built, points, unbounded = case
        ring, points = _relaid(built, points, layout, page_size)
        if ring is not built:
            unbounded = _unbounded(ring, points)
        n = len(points)
        store = VectorStore(points, page_size=page_size, layout_order=ring.layout_order)
        gen = np.random.default_rng(page_size)
        queries = [points[int(gen.integers(0, n))].copy(),
                   gen.standard_normal(ring.dim) * points.std()]
        for query in queries:
            spread = np.linalg.norm(points - query[None, :], axis=1)
            radii = np.quantile(spread, [0.01, 0.2, 0.6, 1.0])
            for radius, min_radius in ((radii[0], -1.0), (radii[1], -1.0),
                                       (radii[2], radii[1]), (radii[3], radii[2]),
                                       (0.0, -1.0)):
                counter, pages = AccessCounter(), ring.file.bitmap()
                ids, dists = ring.range_search(query, radius, counter, pages,
                                               min_radius=min_radius)
                ref_reader = store.reader()
                ref_ids, ref_dists, ref_pages = _reference_range_search(
                    ring, points, query, radius, min_radius, ref_reader, unbounded
                )
                assert np.array_equal(ids, ref_ids)
                assert dists.tobytes() == ref_dists.tobytes()
                assert counter.pages == ref_pages
                assert np.array_equal(pages, ref_reader._touched)

    def test_no_reader_matches_reference(self, case):
        ring, points, unbounded = case
        gen = np.random.default_rng(44)
        for _ in range(5):
            query = points[int(gen.integers(0, len(points)))]
            radius = float(gen.uniform(0.1, 3.0))
            ids, dists = ring.range_search(query, radius, min_radius=-1.0)
            ref_ids, ref_dists, _ = _reference_range_search(
                ring, points, query, radius, -1.0, unbounded=unbounded
            )
            assert np.array_equal(ids, ref_ids)
            assert dists.tobytes() == ref_dists.tobytes()


class TestDuplicateRows:
    """Exact duplicate rows give equal distances: the order must stay the
    stable-sort order, and search/search_many must stay bit-identical."""

    @pytest.fixture(scope="class")
    def dup_points(self):
        gen = np.random.default_rng(31)
        base = gen.standard_normal((300, 5))
        return base[gen.permutation(np.repeat(np.arange(300), 4))]

    def test_range_search_keeps_stable_order(self, dup_points):
        # The range search reports slot order; its prefix order is the
        # stable sort of that, so tied points keep their slot order.
        ring = RingIDistance(dup_points, kp=3, n_key=8, ksp=4,
                             rng=np.random.default_rng(32))
        gen = np.random.default_rng(33)
        saw_ties = False
        for radius, min_radius in ((1.0, -1.0), (2.0, 0.5), (4.0, -1.0)):
            query = dup_points[int(gen.integers(0, len(dup_points)))]
            ids, dists = ring.range_search(query, radius, min_radius=min_radius)
            ref_ids, ref_dists, _ = _reference_range_search(
                ring, dup_points, query, radius, min_radius
            )
            assert np.array_equal(ids, ref_ids)
            assert np.array_equal(dists, ref_dists)
            stable = np.argsort(ref_dists, kind="stable")
            assert np.array_equal(_SmallOrder(dists).head(dists.size), stable)
            ranked = dists[stable]
            saw_ties |= bool((ranked[1:] == ranked[:-1]).any())
        assert saw_ties

    @pytest.mark.parametrize("blocks", ["default", "small"])
    def test_verify_on_slot_order_equals_verify_on_sorted_input(
        self, dup_points, blocks, monkeypatch
    ):
        """``verify`` orders its slot-order input itself: same outcome, top-k
        and charged pages as on the eagerly stable-sorted candidates.  Small
        blocks (64 candidates) and a first prefix of 3 make it extend its
        prefix many times per call."""
        if blocks == "small":
            monkeypatch.setattr(engine, "BLOCK_CHUNKS", 2)
            monkeypatch.setattr(DistanceOrder, "FIRST", 3)
        index = ProMIPS.build(dup_points, ProMIPSParams(page_size=256), rng=35)
        gen = np.random.default_rng(36)
        outcomes = set()
        for row in gen.integers(0, len(dup_points), size=8).tolist():
            query = dup_points[row]
            q_proj = index.projection.project(query[None, :])[0]
            q_norm_sq = float(query @ query)
            for radius, p in ((1.0, 0.5), (3.0, 0.9), (50.0, 0.99)):
                rule = StoppingRule(index._chi2, index.max_norm_sq, q_norm_sq, 0.9, p)
                ids, dists = index.ring.range_search(q_proj, radius)
                stable = np.argsort(dists, kind="stable")
                runs = []
                for cand_ids, cand_dists in ((ids, dists), (ids[stable], dists[stable])):
                    topk, reader = TopK(7), index.orig_store.reader()
                    got = index._verifier.verify(topk, cand_ids, cand_dists, query,
                                                 reader, rule)
                    runs.append((got, *topk.result(), reader._touched))
                (got, *rest), (want, *ref) = runs
                assert got == want
                for a, b in zip(rest, ref):
                    assert np.array_equal(a, b)
                outcomes.add(got[0])
        assert {"condition_b", None} <= outcomes

    def test_search_many_bit_identical_to_search(self, dup_points):
        gen = np.random.default_rng(34)
        index = ProMIPS.build(dup_points, ProMIPSParams(), rng=35)
        queries = dup_points[gen.integers(0, len(dup_points), size=12)]
        batch = index.search_many(queries, k=7)
        for i, query in enumerate(queries):
            single = index.search(query, k=7)
            assert np.array_equal(batch[i].ids, single.ids)
            assert np.array_equal(batch[i].scores, single.scores)
            assert batch[i].stats.pages == single.stats.pages
            assert batch[i].stats.candidates == single.stats.candidates


class TestKnnIterate:
    def test_yields_in_nondecreasing_distance_order(self, ring):
        query = np.random.default_rng(8).standard_normal(5)
        dists = [d for _, d in zip_take(ring.knn_iterate(query), 200)]
        assert all(a <= b for a, b in zip(dists, dists[1:]))

    def test_yields_the_stable_distance_order_of_the_slots(self):
        # Over duplicate rows every distance is tied four times; the whole
        # walk is the slots sorted by (distance, slot).
        gen = np.random.default_rng(12)
        base = gen.standard_normal((150, 3))
        points = base[gen.permutation(np.repeat(np.arange(150), 4))]
        small = RingIDistance(points, kp=3, n_key=6, ksp=3, rng=np.random.default_rng(13))
        query = points[17] + 0.01
        walk = list(small.knn_iterate(query))
        brute = column_distances(small._columns, query)
        slots = np.argsort(brute, kind="stable")
        assert [pid for pid, _ in walk] == small.layout_order[slots].tolist()
        assert [dist for _, dist in walk] == brute[slots].tolist()

    def test_first_yield_is_nearest(self, ring, points):
        query = np.random.default_rng(9).standard_normal(5)
        pid, dist = next(iter(ring.knn_iterate(query)))
        brute = np.linalg.norm(points - query, axis=1)
        assert dist == pytest.approx(brute.min(), abs=1e-9)

    def test_exhausts_whole_dataset(self, points):
        small = RingIDistance(
            points[:120], kp=3, n_key=6, ksp=3, rng=np.random.default_rng(3)
        )
        query = np.random.default_rng(10).standard_normal(5)
        seen = [pid for pid, _ in small.knn_iterate(query)]
        assert sorted(seen) == list(range(120))


def zip_take(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) >= n:
            break
    return out
