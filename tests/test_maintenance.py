"""Tests for repro.core.maintenance — background generational rebuilds.

The contract under test: the engine rebuilds generations *off* the shared
lock (only snapshot and swap hold it), replays mutations that land during a
build, staggers composite targets so at most one rebuilds at a time, and a
swap is invisible to correctness — deleted ids never resurface, inserted
ids stay findable, and results equal a synchronous compaction over the same
live set.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.baselines.exact import ExactMIPS
from repro.core.dynamic import DynamicProMIPS
from repro.core.maintenance import MaintenanceEngine, maintenance_targets
from repro.core.promips import ProMIPSParams
from repro.core.sharded import ShardedIndex

PARAMS = ProMIPSParams(m=5, kp=3, n_key=12, ksp=4)
SMALL = ProMIPSParams(m=4, kp=2, n_key=6, ksp=3)


@pytest.fixture()
def dyn(latent_small):
    data, queries = latent_small
    return data, queries, DynamicProMIPS(data[:400], PARAMS, rng=1)


class TestTargetDiscovery:
    def test_dynamic_is_its_own_target(self, dyn):
        _, _, index = dyn
        targets = maintenance_targets(index)
        assert [label for label, _ in targets] == ["index"]
        assert targets[0][1] is index

    def test_sharded_dynamic_exposes_one_target_per_shard(self, latent_small):
        data, _ = latent_small
        sharded = ShardedIndex.build(
            data[:300], inner="dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3)",
            shards=3, rng=1,
        )
        targets = maintenance_targets(sharded)
        assert [label for label, _ in targets] == ["shard0", "shard1", "shard2"]
        assert all(t is s for (_, t), s in zip(targets, sharded.shards))

    def test_immutable_methods_have_no_targets(self, latent_small):
        data, _ = latent_small
        assert maintenance_targets(ExactMIPS(data[:50])) == []
        sharded = ShardedIndex.build(data[:60], inner="exact()", shards=2)
        assert maintenance_targets(sharded) == []

    def test_engine_rejects_unmaintainable_index(self, latent_small):
        data, _ = latent_small
        with pytest.raises(ValueError, match="no maintainable components"):
            MaintenanceEngine(ExactMIPS(data[:50]))


class TestEngineLifecycle:
    def test_attach_defers_and_close_restores(self, dyn):
        _, _, index = dyn
        assert index.defer_maintenance is False
        engine = MaintenanceEngine(index)
        assert index.defer_maintenance is True
        engine.close()
        assert index.defer_maintenance is False

    def test_close_is_idempotent(self, dyn):
        _, _, index = dyn
        engine = MaintenanceEngine(index).start()
        engine.close()
        engine.close()
        assert engine.stats()["running"] is False

    def test_restart_after_close_retakes_deferral(self, dyn):
        _, _, index = dyn
        engine = MaintenanceEngine(index).start()
        engine.close()
        assert index.defer_maintenance is False
        engine.start()
        # Restarting must hand scheduling back to the engine, or the
        # synchronous path would race the background thread.
        assert index.defer_maintenance is True
        engine.close()

    def test_context_manager(self, dyn):
        _, _, index = dyn
        with MaintenanceEngine(index) as engine:
            assert index.defer_maintenance is True
            assert engine.run_once() is None
        assert index.defer_maintenance is False


class TestRunOnce:
    def test_noop_when_nothing_due(self, dyn):
        _, _, index = dyn
        engine = MaintenanceEngine(index)
        assert engine.run_once() is None
        assert engine.stats()["rebuilds"] == 0

    def test_rebuild_reports_and_counts(self, dyn):
        data, _, index = dyn
        engine = MaintenanceEngine(index)
        for row in data[400:490]:  # > 0.2 * 400
            index.insert(row)
        for i in range(5):
            index.delete(i)
        report = engine.run_once()
        assert report is not None
        assert report["target"] == "index" and report["reason"] == "delta"
        assert report["live_points"] == 485
        assert index.delta_size == 0 and index.tombstone_count == 0
        stats = engine.stats()
        assert stats["rebuilds"] == 1
        assert stats["reclaimed_bytes"] >= 5 * index.dim * 8
        assert stats["last_reason"] == "index:delta"
        assert stats["in_flight"] is None
        assert engine.run_once() is None  # pressure relieved

    def test_tombstone_pressure_reported_as_reason(self, latent_small):
        data, _ = latent_small
        index = DynamicProMIPS(data[:100], PARAMS, rng=1)
        engine = MaintenanceEngine(index)
        for i in range(30):
            index.delete(i)
        report = engine.run_once()
        assert report["reason"] == "tombstones"
        assert index.tombstone_count == 0

    def test_staggered_one_shard_per_run(self, latent_small):
        data, _ = latent_small
        sharded = ShardedIndex.build(
            data[:300],
            inner="dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3, "
                  "rebuild_threshold=0.1)",
            shards=3, rng=1,
        )
        engine = MaintenanceEngine(sharded)
        gen = np.random.default_rng(0)
        for vec in gen.standard_normal((60, data.shape[1])):
            sharded.insert(vec)  # least-loaded routing spreads the pressure
        due_before = [s.maintenance_due() for s in sharded.shards]
        assert all(due_before)
        labels = []
        for _ in range(3):
            report = engine.run_once()
            assert report is not None
            labels.append(report["target"])
        # One shard per run, every shard exactly once: staggered rebuilds.
        assert sorted(labels) == ["shard0", "shard1", "shard2"]
        assert all(s.maintenance_due() is None for s in sharded.shards)
        assert engine.run_once() is None
        assert engine.stats()["rebuilds"] == 3

    def test_failing_target_does_not_starve_the_others(
        self, latent_small, monkeypatch
    ):
        data, _ = latent_small
        sharded = ShardedIndex.build(
            data[:300],
            inner="dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3, "
                  "rebuild_threshold=0.1)",
            shards=3, rng=1,
        )
        engine = MaintenanceEngine(sharded)
        gen = np.random.default_rng(0)
        for vec in gen.standard_normal((60, data.shape[1])):
            sharded.insert(vec)

        def boom():
            raise MemoryError("synthetic snapshot failure")

        monkeypatch.setattr(sharded.shards[0], "_live_rows", boom)
        with pytest.raises(MemoryError):
            engine.run_once()
        # The cursor moved past the failing shard: the healthy ones rebuild.
        assert engine.run_once()["target"] == "shard1"
        assert engine.run_once()["target"] == "shard2"
        assert sharded.shards[1].maintenance_due() is None

    def test_on_swap_callback_fires_per_commit(self, dyn):
        data, _, index = dyn
        swaps = []
        engine = MaintenanceEngine(index, on_swap=lambda: swaps.append(1))
        for row in data[400:490]:
            index.insert(row)
        engine.run_once()
        assert swaps == [1]

    def test_failed_snapshot_counts_error_and_does_not_wedge(
        self, dyn, monkeypatch
    ):
        data, _, index = dyn
        engine = MaintenanceEngine(index)
        for row in data[400:490]:
            index.insert(row)

        def boom():
            raise MemoryError("synthetic snapshot failure")

        monkeypatch.setattr(index, "_live_rows", boom)
        with pytest.raises(MemoryError):
            engine.run_once()
        stats = engine.stats()
        assert stats["errors"] == 1 and "snapshot failure" in stats["last_error"]
        # The in-progress guard must have been released: maintenance
        # proceeds once the failure clears.
        monkeypatch.undo()
        assert engine.run_once() is not None
        assert index.delta_size == 0

    def test_failed_build_aborts_cleanly(self, dyn, monkeypatch):
        data, _, index = dyn
        engine = MaintenanceEngine(index)
        for row in data[400:490]:
            index.insert(row)

        def boom(ticket):
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr(index, "build_generation", boom)
        with pytest.raises(RuntimeError, match="synthetic"):
            engine.run_once()
        stats = engine.stats()
        assert stats["errors"] == 1 and stats["rebuilds"] == 0
        assert stats["in_flight"] is None
        assert "synthetic" in stats["last_error"]
        # The failed generation left the current one serving and unlocked.
        monkeypatch.undo()
        assert engine.run_once() is not None
        assert index.delta_size == 0


class TestBackgroundThread:
    def test_background_rebuild_with_concurrent_traffic(self, latent_small):
        """Queries and mutations race a live engine; after quiescing, the
        swapped-in generation is compacted and deleted ids stay gone."""
        data, queries = latent_small
        index = DynamicProMIPS(
            data[:300], SMALL, rng=1,
            rebuild_threshold=0.1, compact_threshold=0.1,
        )
        lock = threading.Lock()
        doomed = list(range(40))  # deleted before any search below runs
        with lock:
            for i in doomed:
                index.delete(i)
        engine = MaintenanceEngine(index, lock).start()
        try:
            stop = threading.Event()
            errors: list[BaseException] = []

            def client():
                qi = 0
                while not stop.is_set():
                    try:
                        with lock:
                            result = index.search(queries[qi % len(queries)], k=10)
                        assert not set(result.ids.tolist()) & set(doomed)
                        qi += 1
                    except BaseException as exc:  # surfaced after join
                        errors.append(exc)
                        return

            def mutator():
                gen = np.random.default_rng(7)
                try:
                    for vec in gen.standard_normal((120, data.shape[1])):
                        with lock:
                            index.insert(vec)
                        time.sleep(0.0005)
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(3)]
            threads.append(threading.Thread(target=mutator))
            for t in threads:
                t.start()
            threads[-1].join()
            stop.set()
            for t in threads[:-1]:
                t.join()
            assert not errors
            assert engine.quiesce(timeout=30.0)
            stats = engine.stats()
            assert stats["rebuilds"] >= 1
            assert index.maintenance_due() is None
            result = index.search(queries[0], k=20)
            assert not set(result.ids.tolist()) & set(doomed)
        finally:
            engine.close()

    def test_quiesce_without_thread_runs_inline(self, dyn):
        data, _, index = dyn
        engine = MaintenanceEngine(index)
        for row in data[400:490]:
            index.insert(row)
        assert engine.quiesce()
        assert engine.stats()["rebuilds"] == 1
