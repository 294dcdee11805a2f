"""Tests for repro.core.dynamic — insert/delete support (the §I maintenance
motivation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic import DynamicProMIPS
from repro.core.promips import ProMIPSParams
from repro.spec import IndexSpec

from conftest import exact_topk_reference

PARAMS = ProMIPSParams(m=5, kp=3, n_key=12, ksp=4)


@pytest.fixture()
def dyn(latent_small):
    data, _ = latent_small
    return data, DynamicProMIPS(data[:800], PARAMS, rng=1)


class TestInsert:
    def test_inserted_point_is_findable(self, dyn):
        data, index = dyn
        spike = data[900] * 5.0  # dominant norm → must become the MIP point
        new_id = index.insert(spike)
        result = index.search(spike, k=1)
        assert result.ids[0] == new_id

    def test_ids_are_stable_and_sequential(self, dyn):
        _, index = dyn
        a = index.insert(np.ones(24))
        b = index.insert(np.ones(24) * 2)
        assert b == a + 1

    def test_delta_scanned_exactly(self, dyn):
        data, index = dyn
        for row in data[800:805]:
            index.insert(row)
        result = index.search(data[0], k=5)
        assert result.stats.extras["delta_scanned"] == index.delta_size

    def test_rebuild_triggers_and_absorbs_delta(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:400], PARAMS, rng=1, rebuild_threshold=0.05)
        for row in data[400:440]:  # 10% > 5% threshold
            index.insert(row)
        assert index.rebuilds >= 1
        assert index.delta_size < 40
        assert index.n_live == 440

    def test_search_quality_with_delta(self, dyn):
        data, index = dyn
        for row in data[800:880]:
            index.insert(row)
        live = data[:880]
        ratios = []
        for q in live[::97]:
            _, exact_ips = exact_topk_reference(live, q, 5)
            res = index.search(q, k=5)
            ratios.append(float(np.mean(res.scores / exact_ips)))
        assert float(np.mean(ratios)) >= 0.9

    def test_insert_validates_dimension(self, dyn):
        # A (2, 12) matrix or a (24, 1) column holds 24 numbers but is not
        # a vector; only (24,) and one (1, 24) row are.
        data, index = dyn
        n_live = index.n_live
        for bad in (np.ones(10), data[900].reshape(2, -1), data[900].reshape(-1, 1)):
            with pytest.raises(ValueError):
                index.insert(bad)
        assert index.n_live == n_live
        index.insert(data[900][None, :])
        assert index.n_live == n_live + 1

    def test_insert_rejects_overflowing_norm(self, dyn):
        data, index = dyn
        n_live = index.n_live
        with pytest.raises(ValueError, match="squared norm overflows"):
            index.insert(np.full(data.shape[1], 1e308))
        assert index.n_live == n_live


class TestDelete:
    def test_deleted_point_never_returned(self, dyn):
        data, index = dyn
        # Delete the current exact top-1 for a query.
        q = data[3]
        top = index.search(q, k=1).ids[0]
        index.delete(int(top))
        result = index.search(q, k=5)
        assert top not in result.ids.tolist()

    def test_delete_of_delta_point(self, dyn):
        data, index = dyn
        new_id = index.insert(data[900] * 4.0)
        index.delete(new_id)
        result = index.search(data[900], k=3)
        assert new_id not in result.ids.tolist()
        assert index.delta_size == 0

    def test_double_delete_rejected(self, dyn):
        _, index = dyn
        index.delete(5)
        with pytest.raises(KeyError):
            index.delete(5)

    def test_unknown_id_rejected(self, dyn):
        _, index = dyn
        with pytest.raises(KeyError):
            index.delete(10_000)

    def test_n_live_tracks_mutations(self, dyn):
        data, index = dyn
        base = index.n_live
        index.insert(data[900])
        index.delete(0)
        assert index.n_live == base

    def test_k_capped_at_live_points(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:30], PARAMS, rng=1)
        for i in range(10):
            index.delete(i)
        result = index.search(data[0], k=30)
        assert len(result) == 20


class TestLifecycle:
    def test_rebuild_preserves_external_ids(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:300], PARAMS, rng=1, rebuild_threshold=0.02)
        spike_id = index.insert(data[500] * 6.0)
        for row in data[600:620]:
            index.insert(row)  # forces rebuilds
        assert index.rebuilds >= 1
        # After the rebuild the spike lives in the probabilistic index (not
        # the exact delta buffer), so query with a high guarantee p: an
        # outlier that is far in projection but huge in inner product may
        # legitimately be missed at p = 0.5.
        result = index.search(data[500], k=1, p=0.97)
        assert result.ids[0] == spike_id

    def test_rejects_bad_threshold(self, latent_small):
        data, _ = latent_small
        with pytest.raises(ValueError):
            DynamicProMIPS(data[:100], PARAMS, rebuild_threshold=0.0)

    @pytest.mark.parametrize("name, value", [
        ("rebuild_threshold", 0.0),
        ("compact_threshold", 1.5),
    ])
    def test_load_rejects_what_the_spec_rejects(self, dyn, name, value):
        _, index = dyn
        spec = IndexSpec("dynamic", {**index.spec().params, name: value})
        with pytest.raises(ValueError, match=name):
            DynamicProMIPS.from_spec(np.ones((4, 3)), spec)
        with pytest.raises(ValueError, match=name):
            DynamicProMIPS.from_state(spec, index.state())

    def test_load_rejects_unscorable_delta_rows(self, dyn):
        data, index = dyn
        index.insert(data[900])
        state = index.state()
        state["vectors"] = state["vectors"].copy()
        state["vectors"][-1, 0] = np.nan  # the inserted row
        with pytest.raises(ValueError, match="non-finite"):
            DynamicProMIPS.from_state(index.spec(), state)

    def test_search_rejects_bad_k(self, dyn):
        data, index = dyn
        with pytest.raises(ValueError):
            index.search(data[0], k=0)

    def test_repr(self, dyn):
        assert "DynamicProMIPS" in repr(dyn[1])

    def test_index_size_includes_delta(self, dyn):
        data, index = dyn
        before = index.index_size_bytes()
        index.insert(data[900])
        assert index.index_size_bytes() > before


class TestCompaction:
    """Compaction clears tombstones, reclaims storage, and restores the
    candidate budget — the three regressions of the old ``_rebuild``."""

    def test_compaction_clears_tombstones_and_overfetch(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:300], PARAMS, rng=1)
        q = data[2]
        baseline = index.search(q, k=10).stats

        # Tombstones inflate the index over-fetch (k + #tombstones)...
        for i in range(70):  # just under the 0.25 * 300 trigger
            index.delete(i)
        assert index.rebuilds == 0 and index.tombstone_count == 70
        inflated = index.search(q, k=10).stats
        assert inflated.candidates > baseline.candidates

        # ...until the ratio trips the compaction, which must clear them.
        for i in range(70, 76):  # 76 > 0.25 * 300
            index.delete(i)
        assert index.rebuilds == 1
        assert index.tombstone_count == 0
        assert index.delta_size == 0
        assert index.n_live == 224
        compacted = index.search(q, k=10).stats
        # The permanent over-fetch regression: candidates must come back
        # down once the tombstones are compacted out.
        assert compacted.candidates < inflated.candidates

    def test_delete_only_workload_triggers_compaction(self, latent_small):
        # Before the fix only `insert` checked a threshold, so a delete-only
        # workload degraded unboundedly.
        data, _ = latent_small
        index = DynamicProMIPS(data[:200], PARAMS, rng=1)
        for i in range(60):
            index.delete(i)
        assert index.rebuilds >= 1
        assert index.tombstone_count <= 0.25 * index.indexed_points
        assert index.reclaimed_bytes > 0

    def test_compact_threshold_configurable_and_spec_round_trips(
        self, latent_small
    ):
        data, _ = latent_small
        index = DynamicProMIPS(data[:100], PARAMS, rng=1, compact_threshold=0.05)
        for i in range(6):  # 6 > 0.05 * 100
            index.delete(i)
        assert index.rebuilds >= 1
        spec = index.spec()
        assert spec.params["compact_threshold"] == 0.05
        assert spec.params["rebuild_threshold"] == 0.2
        with pytest.raises(ValueError):
            DynamicProMIPS(data[:100], PARAMS, compact_threshold=0.0)

    def test_redelete_of_compacted_id_raises(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:100], PARAMS, rng=1)
        index.delete(5)
        index.compact()
        assert index.tombstone_count == 0
        with pytest.raises(KeyError):
            index.delete(5)

    def test_deleted_delta_row_is_orphaned_then_reclaimed(self, dyn):
        data, index = dyn
        new_id = index.insert(data[900])
        rows_with = index.buffer_rows
        index.delete(new_id)
        # The row lingers (orphaned) until a compaction reclaims it.
        assert index.buffer_rows == rows_with
        report = index.compact()
        assert index.buffer_rows == index.n_live
        assert report["reclaimed_bytes"] > 0

    def test_size_accounting_counts_dead_rows(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:200], PARAMS, rng=1)
        size_fresh = index.index_size_bytes()
        for i in range(20):
            index.delete(i)
        # Tombstoned rows are still held: the structure got *bigger* in
        # auxiliary terms, which the old accounting missed entirely.
        inflated = index.index_size_bytes()
        assert inflated > size_fresh
        index.compact()
        # Compaction reclaims the dead rows.
        assert index.index_size_bytes() < inflated
        assert index.reclaimed_bytes > 0

    def test_size_accounting_counts_buffer_capacity(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:200], PARAMS, rng=1)
        row_bytes = index.dim * 8
        before = index.index_size_bytes()
        index.insert(data[500])  # allocates the delta buffer: 8 rows held
        grown = index.index_size_bytes()
        # The allocated-but-unused capacity is resident memory and counts...
        assert grown - before >= 8 * row_bytes
        index.insert(data[501])  # lands in that spare capacity
        assert index.index_size_bytes() == grown
        # ...but an insert grows only the delta buffer: it never copies the
        # 200 indexed rows.
        assert grown - before < 200 * row_bytes

    def test_state_round_trips_after_compaction_and_orphans(
        self, latent_small, tmp_path
    ):
        from repro.core.persist import load_index, save_index

        data, queries = latent_small
        index = DynamicProMIPS(data[:300], PARAMS, rng=1)
        inserted = [index.insert(v) for v in data[600:608]]
        index.delete(inserted[2])  # orphaned delta row
        for i in range(80):  # trips compaction
            index.delete(i)
        assert index.rebuilds >= 1
        index.delete(100)  # a fresh post-compaction tombstone
        restored = load_index(save_index(index, tmp_path / "dyn"))
        assert restored.n_live == index.n_live
        assert restored.tombstone_count == index.tombstone_count
        assert restored.delta_size == index.delta_size
        assert restored.reclaimed_bytes == index.reclaimed_bytes
        for q in queries[:6]:
            a, b = index.search(q, k=8), restored.search(q, k=8)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
        batch_a = index.search_many(queries[:6], k=8)
        batch_b = restored.search_many(queries[:6], k=8)
        assert np.array_equal(batch_a.ids, batch_b.ids)
        assert np.array_equal(batch_a.scores, batch_b.scores)


class TestReloadedRebuilds:
    """A reloaded index resumes the saved rebuild generator, so replicas
    loading one envelope stay identical through later rebuilds."""

    @staticmethod
    def _mutate_and_rebuild(index, data):
        for row in data[700:720]:
            index.insert(row)
        index.delete(7)
        index.delete(301)
        index.compact()

    def test_replicas_rebuild_identically(self, latent_small, tmp_path):
        from repro.core.persist import load_index, save_index

        data, queries = latent_small
        index = DynamicProMIPS(data[:300], PARAMS, rng=1)
        for row in data[600:610]:
            index.insert(row)
        index.delete(5)
        path = save_index(index, tmp_path / "dyn")
        replicas = [index, load_index(path), load_index(path)]
        for replica in replicas:
            self._mutate_and_rebuild(replica, data)
        expected = index.search_many(queries[:12], k=8)
        for replica in replicas[1:]:
            assert replica.rebuilds == index.rebuilds
            got = replica.search_many(queries[:12], k=8)
            assert np.array_equal(got.ids, expected.ids)
            assert np.array_equal(got.scores, expected.scores)
            for mine, theirs in zip(got, expected):
                assert mine.stats.pages == theirs.stats.pages
                assert mine.stats.candidates == theirs.stats.candidates

    def test_envelope_without_generator_state_still_loads(self, latent_small):
        data, queries = latent_small
        index = DynamicProMIPS(data[:300], PARAMS, rng=1)
        state = index.state()
        del state["rng_state"]
        restored = DynamicProMIPS.from_state(index.spec(), state)
        self._mutate_and_rebuild(restored, data)
        assert restored.rebuilds == 1
        assert restored.search(queries[0], k=3).ids.size == 3


class TestGenerationalRebuild:
    """The begin/build/commit protocol the maintenance engine drives."""

    def _twin(self, data):
        index = DynamicProMIPS(data[:300], PARAMS, rng=1)
        index.defer_maintenance = True
        return index

    def test_swap_is_bit_identical_to_foreground_compaction(self, latent_small):
        # A committed background generation must equal a fresh bulk build
        # over the same live set: the twin runs the same mutations and a
        # synchronous compact() — identical rng consumption, identical data.
        data, queries = latent_small
        a, b = self._twin(data), self._twin(data)
        for index in (a, b):
            for row in data[500:540]:
                index.insert(row)
            index.delete(3)
            index.delete(310)  # a delta point

        ticket = a.begin_rebuild()
        built = a.build_generation(ticket)
        a.commit_rebuild(ticket, built)
        b.compact()

        for q in queries:
            ra, rb = a.search(q, k=10), b.search(q, k=10)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.scores, rb.scores)
        batch_a = a.search_many(queries, k=10)
        batch_b = b.search_many(queries, k=10)
        assert np.array_equal(batch_a.ids, batch_b.ids)
        assert np.array_equal(batch_a.scores, batch_b.scores)

    def test_mutations_during_build_are_replayed(self, latent_small):
        data, _ = latent_small
        index = self._twin(data)
        pre_insert = index.insert(data[500] * 3.0)

        ticket = index.begin_rebuild()
        built = index.build_generation(ticket)
        # Drift lands between build and commit:
        mid_insert = index.insert(data[501] * 5.0)
        index.delete(7)           # snapshotted -> replays as a tombstone
        index.delete(pre_insert)  # snapshotted delta point -> also dead
        report = index.commit_rebuild(ticket, built)

        assert report["replayed_inserts"] == 1
        assert report["replayed_deletes"] == 2
        assert index.delta_size == 1
        assert index.tombstone_count == 2  # both dead ids are in the new index
        assert index.n_live == 300  # 300 + 2 inserts - 2 deletes
        result = index.search(data[501], k=5)
        assert result.ids[0] == mid_insert
        ids = index.search(data[7], k=20).ids.tolist()
        assert 7 not in ids and pre_insert not in ids

    def test_drift_beyond_staged_headroom_falls_back(self, latent_small):
        # Drift of any size replays into the new generation's delta
        # buffer: thirty inserts land between the build and the commit.
        data, _ = latent_small
        index = self._twin(data)
        ticket = index.begin_rebuild()
        built = index.build_generation(ticket)
        for row in data[500:529]:
            index.insert(row)
        spike = index.insert(data[529] * 5.0)
        report = index.commit_rebuild(ticket, built)
        assert report["replayed_inserts"] == 30
        assert index.n_live == 330 and index.buffer_rows == 330
        assert index.search(data[529], k=1).ids[0] == spike

    def test_insert_then_delete_during_build_vanishes(self, latent_small):
        data, _ = latent_small
        index = self._twin(data)
        ticket = index.begin_rebuild()
        built = index.build_generation(ticket)
        ephemeral = index.insert(data[500])
        index.delete(ephemeral)
        report = index.commit_rebuild(ticket, built)
        assert report["replayed_inserts"] == 0
        assert report["replayed_deletes"] == 0
        assert index.delta_size == 0 and index.tombstone_count == 0
        with pytest.raises(KeyError):
            index.delete(ephemeral)

    def test_begin_rebuild_is_exclusive(self, latent_small):
        data, _ = latent_small
        index = self._twin(data)
        ticket = index.begin_rebuild()
        with pytest.raises(RuntimeError):
            index.begin_rebuild()
        index.abort_rebuild(ticket)
        index.compact()  # usable again after an abort
        assert index.rebuilds == 1

    def test_defer_maintenance_suppresses_synchronous_compaction(
        self, latent_small
    ):
        data, _ = latent_small
        index = DynamicProMIPS(
            data[:100], PARAMS, rng=1, rebuild_threshold=0.05
        )
        index.defer_maintenance = True
        for row in data[100:120]:
            index.insert(row)
        assert index.rebuilds == 0
        assert index.maintenance_due() == "delta"
        index.compact()
        assert index.rebuilds == 1 and index.maintenance_due() is None


def _held_vector_bytes(index: DynamicProMIPS) -> int:
    """Bytes of distinct vector storage the index holds, the generation's
    data included; views into one buffer count once."""
    arrays = [index._index.state()["data"]] + [
        value
        for value in vars(index).values()
        if isinstance(value, np.ndarray) and value.ndim == 2
    ]
    owners: list[np.ndarray] = []
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        if not any(array is owner for owner in owners):
            owners.append(array)
    return sum(owner.nbytes for owner in owners)


def _spy_tickets(index: DynamicProMIPS) -> list:
    """Record every ticket ``index.begin_rebuild`` hands out."""
    tickets = []
    begin = index.begin_rebuild

    def spy():
        tickets.append(begin())
        return tickets[-1]

    index.begin_rebuild = spy
    return tickets


class TestOneCopyOfVectors:
    """Each generation owns its snapshot and inserts have a buffer of their
    own, so no second array ever holds the indexed vectors."""

    @staticmethod
    def _mutated(data):
        index = DynamicProMIPS(data[:300], PARAMS, rng=1)
        for row in data[500:505]:
            index.insert(row)
        index.delete(3)
        index.delete(301)
        return index

    @staticmethod
    def _assert_one_copy(index, ticket=None):
        if ticket is not None:
            assert index._index.state()["data"] is ticket.vectors
        # One copy of the indexed rows plus a delta buffer far smaller.
        held = _held_vector_bytes(index)
        assert held < (index.indexed_points + 64) * index.dim * 8

    def test_compaction_generation_owns_the_snapshot(self, latent_small):
        data, _ = latent_small
        index = self._mutated(data)
        tickets = _spy_tickets(index)
        index.compact()
        assert len(tickets) == 1
        self._assert_one_copy(index, tickets[0])
        index.insert(data[600])
        self._assert_one_copy(index)
        assert index.search(data[600], k=1).ids.size == 1

    def test_engine_generation_owns_the_snapshot(self, latent_small):
        from repro.core.maintenance import MaintenanceEngine

        data, _ = latent_small
        index = DynamicProMIPS(data[:300], PARAMS, rng=1, rebuild_threshold=0.01)
        tickets = _spy_tickets(index)
        engine = MaintenanceEngine(index)
        try:
            for row in data[500:505]:
                index.insert(row)
            report = engine.run_once()
        finally:
            engine.close()
        assert report is not None and report["reason"] == "delta"
        assert len(tickets) == 1
        self._assert_one_copy(index, tickets[0])

    def test_reload_holds_one_copy(self, latent_small, tmp_path):
        from repro.core.persist import load_index, save_index

        data, queries = latent_small
        index = self._mutated(data)
        restored = load_index(save_index(index, tmp_path / "dyn"))
        self._assert_one_copy(restored)
        expected = index.search_many(queries, k=8)
        got = restored.search_many(queries, k=8)
        assert np.array_equal(got.ids, expected.ids)
        assert np.array_equal(got.scores, expected.scores)

    def test_insert_after_reload_copies_no_indexed_row(
        self, latent_small, tmp_path
    ):
        from repro.core.persist import load_index, save_index

        data, _ = latent_small
        restored = load_index(
            save_index(self._mutated(data), tmp_path / "dyn")
        )
        before = restored.index_size_bytes()
        for row in data[600:602]:
            restored.insert(row)
        grown = restored.index_size_bytes() - before
        # Doubling one buffer of every row would cost indexed_points rows.
        assert grown < restored.indexed_points * restored.dim * 8
        self._assert_one_copy(restored)


class TestDeleteLastPoint:
    def test_delete_validates_before_mutating(self, latent_small):
        """Deleting the last live point must raise *without* tombstoning it,
        leaving the structure fully usable."""
        data, _ = latent_small
        index = DynamicProMIPS(data[:3], PARAMS, rng=1)
        index.delete(0)
        index.delete(1)
        with pytest.raises(ValueError):
            index.delete(2)
        # The refused delete left no tombstone behind: the survivor is still
        # live, searchable, and deletable-checkable again.
        assert index.n_live == 1
        result = index.search(data[2], k=1)
        assert result.ids.tolist() == [2]
        with pytest.raises(ValueError):
            index.delete(2)


def _bookkeeping(index: DynamicProMIPS) -> dict[str, list[int]]:
    """``state()``'s float-free id arrays, as plain lists."""
    state = index.state()
    keys = (
        "row_external", "tombstones", "delta_ids", "indexed_external",
        "next_id", "rebuilds",
    )
    return {key: state[key].tolist() for key in keys}


class TestIdValidation:
    """Ids are integers: a bool or a float must not silently name a point,
    and an out-of-range integer must not wrap around the id arrays."""

    @pytest.mark.parametrize(
        "bad", [True, False, np.bool_(True), 2.5, 2.0, "x"], ids=repr
    )
    def test_non_integer_ids_raise_and_mutate_nothing(self, dyn, bad):
        data, index = dyn
        index.insert(data[900])
        index.delete(3)
        before = _bookkeeping(index)
        with pytest.raises(ValueError, match="integer"):
            index.delete(bad)
        assert _bookkeeping(index) == before
        assert index.n_live == 800

    def test_numpy_integer_ids_accepted(self, dyn):
        _, index = dyn
        index.delete(np.int64(1))
        index.delete(np.int32(2))
        assert index.tombstone_count == 2

    def test_out_of_range_ids_raise_keyerror(self, dyn):
        data, index = dyn
        index.insert(data[900])
        before = _bookkeeping(index)
        for bad in (-1, -801, index._next_id, index._next_id + 10**6):
            with pytest.raises(KeyError):
                index.delete(bad)
        assert _bookkeeping(index) == before


class TestStateBookkeepingPinned:
    """The id arrays ``state()`` writes after a fixed script of inserts,
    deletes (of indexed, delta and drift points) and one generational
    rebuild with mutations landing mid-build.  The expected values are
    literals, so the envelope contents cannot drift with the internal
    layout."""

    def test_bookkeeping_after_fixed_script(self):
        gen = np.random.default_rng(11)
        data = gen.standard_normal((40, 8))
        index = DynamicProMIPS(
            data, ProMIPSParams(m=4, kp=2, n_key=6, ksp=3), rng=3,
            rebuild_threshold=0.5, compact_threshold=0.5,
        )
        vectors = gen.standard_normal((6, 8))
        assert [index.insert(v) for v in vectors[:3]] == [40, 41, 42]
        for victim in (5, 41, 17):
            index.delete(victim)
        before_rebuild = _bookkeeping(index)

        ticket = index.begin_rebuild()
        assert index.insert(vectors[3]) == 43
        index.delete(8)   # snapshotted and indexed
        index.delete(42)  # snapshotted, in the old delta
        index.commit_rebuild(ticket, index.build_generation(ticket))
        assert index.insert(vectors[4]) == 44
        index.delete(43)  # replayed into the new delta, then deleted
        index.delete(0)

        assert before_rebuild == {
            "row_external": list(range(40)) + [40, 42],
            "tombstones": [5, 17],
            "delta_ids": [40, 42],
            "indexed_external": list(range(40)),
            "next_id": [43],
            "rebuilds": [0],
        }
        indexed = [i for i in range(40) if i not in (5, 17)] + [40, 42]
        assert _bookkeeping(index) == {
            "row_external": indexed + [44],
            "tombstones": [0, 8, 42],
            "delta_ids": [44],
            "indexed_external": indexed,
            "next_id": [45],
            "rebuilds": [1],
        }
