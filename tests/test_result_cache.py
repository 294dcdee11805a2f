"""Tests for repro.serve.cache — hit/miss accounting, LRU order, generations.

The generation tests exercise the full serving contract: after an
``insert``/``delete`` on a dynamic or sharded-dynamic index, a previously
cached answer must never be served again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.cache import ResultCache
from repro.serve.server import ServingRuntime
from repro.spec import build_index

DYNAMIC_SPEC = "dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3)"
SHARDED_DYNAMIC_SPEC = (
    "sharded(inner='dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3)', shards=3)"
)


def _entry(i: int):
    return (
        ResultCache.make_key(np.full(4, float(i)), 3),
        np.arange(3) + i,
        np.linspace(1.0, 0.5, 3),
    )


class TestKeying:
    def test_key_is_exact_bytes(self):
        a = ResultCache.make_key(np.array([1.0, 2.0]), 5)
        b = ResultCache.make_key(np.array([1.0, 2.0]), 5)
        assert a == b

    def test_distinct_k_distinct_key(self):
        q = np.array([1.0, 2.0])
        assert ResultCache.make_key(q, 5) != ResultCache.make_key(q, 6)

    def test_kwargs_partition_keys(self):
        q = np.array([1.0, 2.0])
        assert ResultCache.make_key(q, 5, {"c": 0.8}) != ResultCache.make_key(q, 5)
        assert ResultCache.make_key(q, 5, {"c": 0.8}) == ResultCache.make_key(
            q, 5, {"c": 0.8}
        )

    def test_nearby_floats_do_not_collide(self):
        q1 = np.array([1.0])
        q2 = np.array([1.0 + 1e-16])  # distinct float64 bit patterns
        if q1.tobytes() != q2.tobytes():
            assert ResultCache.make_key(q1, 1) != ResultCache.make_key(q2, 1)


class TestHitMissAccounting:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key, ids, scores = _entry(0)
        assert cache.get(key) is None
        cache.put(key, ids, scores)
        got = cache.get(key)
        assert got is not None
        np.testing.assert_array_equal(got[0], ids)
        np.testing.assert_array_equal(got[1], scores)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_cached_arrays_are_copies(self):
        cache = ResultCache(capacity=4)
        key, ids, scores = _entry(0)
        cache.put(key, ids, scores)
        ids[:] = -99  # caller mutates its arrays after the put
        got = cache.get(key)
        assert got is not None and got[0][0] == 0

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        key, ids, scores = _entry(0)
        cache.put(key, ids, scores)
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)


class TestLRUOrder:
    def test_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        k0, i0, s0 = _entry(0)
        k1, i1, s1 = _entry(1)
        k2, i2, s2 = _entry(2)
        cache.put(k0, i0, s0)
        cache.put(k1, i1, s1)
        cache.get(k0)  # refresh 0 → 1 is now least recent
        cache.put(k2, i2, s2)
        assert cache.get(k0) is not None
        assert cache.get(k1) is None  # evicted
        assert cache.get(k2) is not None
        assert cache.stats()["evictions"] == 1

    def test_eviction_order_without_touches_is_insertion_order(self):
        cache = ResultCache(capacity=3)
        keys = []
        for i in range(5):
            key, ids, scores = _entry(i)
            keys.append(key)
            cache.put(key, ids, scores)
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        for key in keys[2:]:
            assert cache.get(key) is not None

    def test_re_put_refreshes_position(self):
        cache = ResultCache(capacity=2)
        k0, i0, s0 = _entry(0)
        k1, i1, s1 = _entry(1)
        k2, i2, s2 = _entry(2)
        cache.put(k0, i0, s0)
        cache.put(k1, i1, s1)
        cache.put(k0, i0, s0)  # re-put: 0 becomes most recent
        cache.put(k2, i2, s2)
        assert cache.get(k1) is None
        assert cache.get(k0) is not None


class TestGenerationInvalidation:
    def test_bump_invalidates_without_scanning(self):
        cache = ResultCache(capacity=8)
        key, ids, scores = _entry(0)
        cache.put(key, ids, scores)
        assert cache.generation == 0
        assert cache.bump_generation() == 1
        assert cache.get(key) is None  # stale entry never served
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["entries"] == 0  # dropped lazily on touch

    def test_entries_written_after_bump_are_live(self):
        cache = ResultCache(capacity=8)
        cache.bump_generation()
        key, ids, scores = _entry(0)
        cache.put(key, ids, scores)
        assert cache.get(key) is not None

    def test_put_with_observed_generation_drops_if_advanced(self):
        # The compute-then-store race: the answer was computed under an
        # older generation, so storing it would serve a stale result as
        # fresh forever.  put() must refuse the write.
        cache = ResultCache(capacity=8)
        key, ids, scores = _entry(0)
        observed = cache.generation
        cache.bump_generation()  # mutation lands mid-compute
        cache.put(key, ids, scores, generation=observed)
        assert cache.get(key) is None
        assert cache.stats()["stale_puts"] == 1

    def test_put_with_current_generation_stores(self):
        cache = ResultCache(capacity=8)
        key, ids, scores = _entry(0)
        cache.put(key, ids, scores, generation=cache.generation)
        assert cache.get(key) is not None
        assert cache.stats()["stale_puts"] == 0


@pytest.mark.parametrize("spec", [DYNAMIC_SPEC, SHARDED_DYNAMIC_SPEC])
class TestServedInvalidation:
    """End-to-end: a mutation must invalidate cached served answers."""

    def _runtime(self, spec):
        gen = np.random.default_rng(11)
        data = gen.standard_normal((60, 8))
        index = build_index(spec, data, rng=5)
        return ServingRuntime(index, cache_size=32), data

    def test_insert_invalidates_stale_top1(self, spec):
        runtime, data = self._runtime(spec)
        with runtime:
            query = data[0]
            first = runtime.search(query, k=3)
            assert not first["cached"]
            assert runtime.search(query, k=3) == {**first, "cached": True}
            # A dominating vector must appear at rank 1 immediately — if the
            # stale entry were served, it could not contain the new id.
            inserted = runtime.insert(query * 50.0)
            after = runtime.search(query, k=3)
            assert not after["cached"]
            assert after["ids"][0] == inserted["id"]

    def test_delete_invalidates_stale_winner(self, spec):
        runtime, data = self._runtime(spec)
        with runtime:
            query = data[0]
            first = runtime.search(query, k=3)
            winner = first["ids"][0]
            runtime.delete(winner)
            after = runtime.search(query, k=3)
            assert not after["cached"]
            assert winner not in after["ids"]

    def test_mutation_only_invalidates_not_disables(self, spec):
        runtime, data = self._runtime(spec)
        with runtime:
            runtime.insert(data[1] * 2.0)
            fresh = runtime.search(data[2], k=2)
            assert not fresh["cached"]
            assert runtime.search(data[2], k=2) == {**fresh, "cached": True}

    def test_mutation_racing_the_put_is_never_cached_as_fresh(self, spec):
        # Deterministic replay of the compute/mutate/store interleaving: the
        # generation bump lands after the search computed its answer but
        # before the runtime stores it.  The store must be dropped — the
        # next search recomputes instead of serving the pre-mutation answer.
        runtime, data = self._runtime(spec)
        with runtime:
            original_put = runtime.cache.put
            raced = []

            def racing_put(key, ids, scores, generation=None):
                if not raced:
                    raced.append(True)
                    runtime.cache.bump_generation()  # the mutation wins
                original_put(key, ids, scores, generation=generation)

            runtime.cache.put = racing_put
            first = runtime.search(data[0], k=3)
            assert not first["cached"]
            second = runtime.search(data[0], k=3)
            assert not second["cached"]  # stale write was refused
            assert runtime.cache.stats()["stale_puts"] == 1
            # The post-race write (same generation throughout) sticks.
            assert runtime.search(data[0], k=3)["cached"]
