"""Tests for repro.core.sharded — the sharded serving layer.

The headline property is *shard-count invariance*: with an exact inner
method, a :class:`ShardedIndex` must return bit-identical ids and scores to
the unsharded exact index for every shard count and assignment scheme,
including counts that do not divide ``n``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.persist import inspect_index, load_index, save_index
from repro.core.sharded import ShardedIndex, _assign_members
from repro.spec import IndexSpec, build_index, registered_methods

SHARD_COUNTS = [1, 2, 4, 7]
ASSIGNMENTS = ["contiguous", "hash"]

PROMIPS_INNER = "promips(c=0.85, p=0.6, m=5, kp=3, n_key=10, ksp=4)"
DYNAMIC_INNER = "dynamic(c=0.85, m=5, kp=3, n_key=10, ksp=4)"


@pytest.fixture(scope="module")
def workload(latent_small):
    data, queries = latent_small
    # 1013 is prime, so no shard count in SHARD_COUNTS divides it — every
    # invariance run also exercises uneven partition sizes.
    return np.ascontiguousarray(data[:1013]), queries


@pytest.fixture(scope="module")
def exact_reference(workload):
    data, queries = workload
    index = build_index("exact()", data)
    return index, index.search_many(queries, k=10)


class TestShardCountInvariance:
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_bit_identical_to_unsharded_exact(
        self, workload, exact_reference, shards, assignment
    ):
        data, queries = workload
        _, reference = exact_reference
        sharded = ShardedIndex.build(
            data, inner="exact()", shards=shards, assignment=assignment, rng=3
        )
        batch = sharded.search_many(queries, k=10)
        assert np.array_equal(batch.ids, reference.ids)
        assert np.array_equal(batch.scores, reference.scores)

    def test_single_search_matches_batch_row(self, workload, exact_reference):
        data, queries = workload
        _, reference = exact_reference
        sharded = ShardedIndex.build(data, inner="exact()", shards=4, rng=3)
        for qi, query in enumerate(queries[:4]):
            result = sharded.search(query, k=10)
            assert np.array_equal(result.ids, reference.ids[qi])
            assert np.array_equal(result.scores, reference.scores[qi])

    def test_tie_break_by_global_id_across_shards(self):
        """Duplicate rows landing in different shards tie-break globally."""
        gen = np.random.default_rng(0)
        data = gen.standard_normal((200, 8))
        data[3] *= 50.0  # dominant norm, so the pair is the top-2 for itself
        data[150] = data[3]  # same vector, different contiguous shards
        query = data[3] / np.linalg.norm(data[3])
        sharded = ShardedIndex.build(data, inner="exact()", shards=4, rng=1)
        result = sharded.search(query, k=2)
        assert result.ids.tolist() == [3, 150]
        assert result.scores[0] == result.scores[1]

    def test_approximate_inner_batch_matches_looped_search(self, workload):
        """The bit-identity of batch vs loop survives sharding for ProMIPS."""
        data, queries = workload
        sharded = ShardedIndex.build(data, inner=PROMIPS_INNER, shards=3, rng=5)
        batch = sharded.search_many(queries, k=10)
        for qi, query in enumerate(queries):
            single = sharded.search(query, k=10)
            assert np.array_equal(batch[qi].ids, single.ids)
            assert np.array_equal(batch[qi].scores, single.scores)


class TestIdRemapping:
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    def test_members_partition_the_id_space(self, assignment):
        members = _assign_members(1013, 7, assignment)
        joined = np.concatenate(members)
        assert np.array_equal(np.sort(joined), np.arange(1013))
        for m in members:
            assert np.array_equal(m, np.sort(m))  # ascending → tie-break safe

    def test_non_divisible_contiguous_sizes_balanced(self):
        members = _assign_members(1013, 7, "contiguous")
        sizes = [m.size for m in members]
        assert sum(sizes) == 1013
        assert max(sizes) - min(sizes) <= 1

    def test_returned_ids_are_global(self, workload):
        data, queries = workload
        sharded = ShardedIndex.build(data, inner="exact()", shards=7, rng=3)
        batch = sharded.search_many(queries, k=25)
        # Shard-local ids top out near n/7; global remapping must reach ids
        # from the tail shard too.
        assert batch.ids.max() > 1013 * 6 // 7

    def test_more_shards_than_points(self):
        data = np.random.default_rng(1).standard_normal((3, 8))
        sharded = ShardedIndex.build(data, inner="exact()", shards=8, rng=2)
        assert sharded.n_shards <= 3
        reference = build_index("exact()", data)
        result = sharded.search(data[0], k=3)
        expected = reference.search(data[0], k=3)
        assert np.array_equal(result.ids, expected.ids)
        # Single-row shards can hit a different BLAS kernel than a 3-row
        # scan, so scores here are allclose rather than bit-identical (the
        # realistic workloads in TestShardCountInvariance stay exact).
        assert np.allclose(result.scores, expected.scores)

    def test_invalid_configs_rejected(self, workload):
        data, _ = workload
        with pytest.raises(ValueError):
            ShardedIndex.build(data, shards=0)
        with pytest.raises(ValueError):
            ShardedIndex.build(data, assignment="roundrobin")
        with pytest.raises(ValueError):
            ShardedIndex.build(data, inner="sharded(inner='exact()')")


class TestEdges:
    def test_k_exceeding_n_clamps(self):
        data = np.random.default_rng(2).standard_normal((5, 8))
        sharded = ShardedIndex.build(data, inner="exact()", shards=3, rng=1)
        batch = sharded.search_many(data[:2], k=20)
        assert batch.ids.shape == (2, 5)
        assert not np.any(batch.ids == batch.PAD_ID)

    def test_empty_batch(self, workload):
        data, _ = workload
        sharded = ShardedIndex.build(data[:50], inner="exact()", shards=2, rng=1)
        batch = sharded.search_many(np.empty((0, data.shape[1])), k=5)
        assert batch.ids.shape == (0, 0)

    def test_k_must_be_positive(self, workload):
        data, queries = workload
        sharded = ShardedIndex.build(data[:50], inner="exact()", shards=2, rng=1)
        with pytest.raises(ValueError):
            sharded.search(queries[0], k=0)
        with pytest.raises(ValueError):
            sharded.search_many(queries, k=-1)

    def test_per_shard_timings_recorded(self, workload):
        data, queries = workload
        sharded = ShardedIndex.build(data, inner="exact()", shards=4, rng=1)
        assert sharded.last_shard_seconds is None
        sharded.search_many(queries, k=5)
        assert len(sharded.last_shard_seconds) == sharded.n_shards
        assert all(t >= 0.0 for t in sharded.last_shard_seconds)

    def test_thread_pool_fanout_matches_sequential(self, workload, monkeypatch):
        import os
        import threading

        data, queries = workload
        sharded = ShardedIndex.build(data, inner="exact()", shards=4, rng=1)
        threads = set()
        for shard in sharded.shards:
            inner = shard.search_many

            def spy(*args, _inner=inner, **kwargs):
                threads.add(threading.get_ident())
                return _inner(*args, **kwargs)

            shard.search_many = spy

        def run(cpus):
            threads.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            return sharded.search_many(queries, k=10), set(threads)

        # The fan-out width is min(n_shards, cpu_count): one CPU runs every
        # shard on the calling thread, four run them on the pool.
        sequential, seq_threads = run(1)
        pooled, pool_threads = run(4)
        assert seq_threads == {threading.get_ident()}
        assert threading.get_ident() not in pool_threads
        assert np.array_equal(pooled.ids, sequential.ids)
        assert np.array_equal(pooled.scores, sequential.scores)

    def test_n_threads_is_rejected(self, workload):
        data, _ = workload
        with pytest.raises(ValueError):
            build_index("sharded(inner='exact()', shards=2, n_threads=2)", data)

    def test_envelope_with_n_threads_still_loads(self, workload):
        data, queries = workload
        sharded = ShardedIndex.build(data, inner="exact()", shards=3, rng=1)
        # Envelopes written before n_threads was removed persist it as None.
        spec = IndexSpec("sharded", {**sharded.spec().params, "n_threads": None})
        restored = ShardedIndex.from_state(spec, sharded.state())
        assert "n_threads" not in restored.spec().params
        expected = sharded.search_many(queries, k=5)
        got = restored.search_many(queries, k=5)
        assert np.array_equal(got.ids, expected.ids)
        assert np.array_equal(got.scores, expected.scores)

    def test_registered_and_spec_round_trip(self, workload):
        data, _ = workload
        assert "sharded" in registered_methods()
        sharded = build_index(
            "sharded(inner='exact()', shards=4, assignment='hash')", data[:100], rng=1
        )
        assert isinstance(sharded, ShardedIndex)
        spec = sharded.spec()
        assert IndexSpec.parse(str(spec)) == spec
        assert spec.params["assignment"] == "hash"


class TestPersistence:
    def test_round_trip_exact_inner(self, workload, tmp_path):
        data, queries = workload
        sharded = ShardedIndex.build(data, inner="exact()", shards=4, rng=3)
        path = save_index(sharded, tmp_path / "sharded_exact")
        restored = load_index(path)
        assert isinstance(restored, ShardedIndex)
        assert restored.spec() == sharded.spec()
        a = sharded.search_many(queries, k=10)
        b = restored.search_many(queries, k=10)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.scores, b.scores)

    def test_round_trip_promips_inner(self, workload, tmp_path):
        data, queries = workload
        sharded = ShardedIndex.build(data, inner=PROMIPS_INNER, shards=3, rng=5)
        path = save_index(sharded, tmp_path / "sharded_promips")
        restored = load_index(path)
        assert restored.n_shards == 3
        for query in queries[:5]:
            a = sharded.search(query, k=10)
            b = restored.search(query, k=10)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
            assert a.stats.pages == b.stats.pages

    def test_envelope_names_the_composite(self, workload, tmp_path):
        data, _ = workload
        sharded = ShardedIndex.build(data[:100], inner="exact()", shards=2, rng=1)
        path = save_index(sharded, tmp_path / "idx")
        meta = inspect_index(path)
        assert meta["method"] == "sharded"
        assert meta["spec"]["params"]["shards"] == 2

    def test_round_trip_preserves_mutations(self, workload, tmp_path):
        data, queries = workload
        sharded = ShardedIndex.build(data[:300], inner=DYNAMIC_INNER, shards=3, rng=5)
        gen = np.random.default_rng(0)
        inserted = [sharded.insert(v) for v in gen.standard_normal((6, data.shape[1]))]
        sharded.delete(7)
        sharded.delete(inserted[1])
        restored = load_index(save_index(sharded, tmp_path / "dyn"))
        assert restored.n_live == sharded.n_live
        for query in queries[:4]:
            a = sharded.search(query, k=8)
            b = restored.search(query, k=8)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
        # Reloaded index continues the global id sequence.
        assert restored.insert(queries[0]) == sharded._next_id
        with pytest.raises(KeyError):
            restored.delete(7)


class TestDynamicRouting:
    @pytest.fixture()
    def dynamic_sharded(self, workload):
        data, _ = workload
        return np.ascontiguousarray(data[:300]), ShardedIndex.build(
            data[:300], inner=DYNAMIC_INNER, shards=3, rng=5
        )

    def test_insert_returns_sequential_global_ids(self, dynamic_sharded):
        data, sharded = dynamic_sharded
        gen = np.random.default_rng(1)
        ids = [sharded.insert(v) for v in gen.standard_normal((5, data.shape[1]))]
        assert ids == [300, 301, 302, 303, 304]
        assert sharded.n_live == 305

    def test_insert_routes_to_least_loaded_shard(self, dynamic_sharded):
        data, sharded = dynamic_sharded
        gen = np.random.default_rng(2)
        before = [sharded._live_count(s) for s in sharded.shards]
        # Inserting (max-min)*n_shards points must level the loads.
        for v in gen.standard_normal((3 * (max(before) - min(before) + 2), data.shape[1])):
            sharded.insert(v)
        after = [sharded._live_count(s) for s in sharded.shards]
        assert max(after) - min(after) <= 1

    def test_inserted_point_is_found(self, dynamic_sharded):
        data, sharded = dynamic_sharded
        spike = np.full(data.shape[1], 10.0)
        gid = sharded.insert(spike)
        result = sharded.search(spike, k=1)
        assert result.ids.tolist() == [gid]

    def test_delete_routes_to_owning_shard(self, dynamic_sharded):
        data, sharded = dynamic_sharded
        query = data[42]
        before = sharded.search(query, k=10)
        target = int(before.ids[0])
        sharded.delete(target)
        after = sharded.search(query, k=10)
        assert target not in after.ids
        # Deleting only removes: the surviving 9 stay in order.
        survivors = [gid for gid in before.ids.tolist() if gid != target]
        assert after.ids[:9].tolist() == survivors
        assert sharded.n_live == 299

    def test_delete_results_consistent_with_live_set(self, dynamic_sharded):
        data, sharded = dynamic_sharded
        deleted = {5, 123, 250}
        for gid in deleted:
            sharded.delete(gid)
        live = np.array([i for i in range(300) if i not in deleted])
        query = data[7] * 0.5
        result = sharded.search(query, k=5)
        returned = set(result.ids.tolist())
        assert not returned & deleted
        assert returned <= set(live.tolist())
        # Returned scores are the true inner products of the returned ids.
        assert np.allclose(result.scores, data[result.ids] @ query)
        # The inner method is approximate, so compare against brute force
        # by recall rather than exact equality.
        expected_scores = data[live] @ query
        order = np.lexsort((live, -expected_scores))[:5]
        exact_top = set(live[order].tolist())
        assert len(returned & exact_top) >= 3

    def test_draining_a_shard_raises_with_shard_context(self):
        data = np.random.default_rng(8).standard_normal((6, 16))
        sharded = ShardedIndex.build(
            data, inner="dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3)",
            shards=3, rng=1,
        )
        sharded.delete(0)  # shard 0 holds global ids {0, 1}
        with pytest.raises(ValueError, match="shard 0"):
            sharded.delete(1)
        # The failed delete left the point live and searchable.
        assert sharded.n_live == 5
        assert 1 in sharded.search(data[1], k=5).ids

    def test_delete_unknown_or_deleted_raises(self, dynamic_sharded):
        _, sharded = dynamic_sharded
        with pytest.raises(KeyError):
            sharded.delete(9999)
        sharded.delete(10)
        with pytest.raises(KeyError):
            sharded.delete(10)

    @pytest.mark.parametrize("bad", [True, 2.5, 2.0, "x"], ids=repr)
    def test_non_integer_ids_raise_and_mutate_nothing(self, dynamic_sharded, bad):
        _, sharded = dynamic_sharded
        with pytest.raises(ValueError, match="integer"):
            sharded.delete(bad)
        assert sharded.n_live == 300
        assert [shard.tombstone_count for shard in sharded.shards] == [0, 0, 0]

    def test_out_of_range_ids_raise_keyerror(self, dynamic_sharded):
        _, sharded = dynamic_sharded
        for bad in (-1, sharded._next_id):
            with pytest.raises(KeyError):
                sharded.delete(bad)
        assert sharded.n_live == 300

    def test_double_delete_error_names_the_global_id(self, dynamic_sharded):
        data, sharded = dynamic_sharded
        gid = sharded.insert(np.random.default_rng(3).standard_normal(data.shape[1]))
        sharded.delete(gid)
        # The inner shard knows this point by a small local id; the error
        # must name the caller's global id instead.
        with pytest.raises(KeyError, match=str(gid)):
            sharded.delete(gid)

    def test_immutable_inner_rejects_updates(self, workload):
        data, _ = workload
        sharded = ShardedIndex.build(data[:100], inner="exact()", shards=2, rng=1)
        with pytest.raises(TypeError):
            sharded.insert(data[0])
        with pytest.raises(TypeError):
            sharded.delete(0)
