"""Tests for repro.serve.microbatch — coalescing correctness and hygiene."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve.microbatch import BatcherClosedError, MicroBatcher
from repro.serve.telemetry import Telemetry
from repro.spec import build_index


@pytest.fixture(scope="module")
def exact_setup():
    gen = np.random.default_rng(21)
    data = gen.standard_normal((400, 12))
    index = build_index("exact()", data, rng=5)
    queries = gen.standard_normal((64, 12))
    return index, queries


class _GatedLock:
    """The batcher's index lock, plus an event set once the dispatcher has
    taken a batch and is waiting for the index.

    A test holds :attr:`lock`, submits one request, and waits on
    :attr:`dispatcher_waiting`: from then on every submit queues behind
    that dispatch, so the next take holds exactly what the test submitted.
    The batching a test asserts then follows from the dispatch rule alone,
    not from wall-clock timing.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.dispatcher_waiting = threading.Event()

    def __enter__(self):
        self.dispatcher_waiting.set()
        self.lock.acquire()

    def __exit__(self, *exc_info):
        self.lock.release()


def _queue_behind_busy_index(batcher, gate, plug, submissions):
    """Hold the index, occupy the dispatcher with ``plug``, then submit
    ``(query, k, kwargs)`` triples; returns their futures once the index is
    released."""
    with gate.lock:
        first = batcher.submit(plug, k=1)
        assert gate.dispatcher_waiting.wait(timeout=10)
        futures = [batcher.submit(q, k=k, **kw) for q, k, kw in submissions]
    assert len(first.result(timeout=10)) == 1
    return futures


class TestCoalescedCorrectness:
    def test_concurrent_submits_match_direct_search(self, exact_setup):
        index, queries = exact_setup
        with MicroBatcher(index, max_batch=16) as batcher:
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = list(
                    pool.map(lambda q: batcher.submit(q, k=5), queries[:16])
                )
            for q, future in zip(queries[:16], futures):
                served = future.result(timeout=10)
                direct = index.search(q, k=5)
                np.testing.assert_array_equal(served.ids, direct.ids)
                np.testing.assert_array_equal(served.scores, direct.scores)

    def test_requests_actually_coalesce(self, exact_setup):
        index, queries = exact_setup
        telemetry = Telemetry()
        gate = _GatedLock()
        with MicroBatcher(
            index, max_batch=32, index_lock=gate, telemetry=telemetry
        ) as batcher:
            futures = _queue_behind_busy_index(
                batcher, gate, queries[0], [(q, 3, {}) for q in queries[1:13]]
            )
            for q, future in zip(queries[1:13], futures):
                served = future.result(timeout=10)
                assert served.stats.extras["coalesced"] == 12
                direct = index.search(q, k=3)
                np.testing.assert_array_equal(served.ids, direct.ids)
                np.testing.assert_array_equal(served.scores, direct.scores)
        # The plug dispatched alone; all 12 that queued behind it, as one.
        assert telemetry.snapshot()["batch"]["histogram"] == {"1": 1, "12": 1}

    def test_max_batch_bounds_occupancy(self, exact_setup):
        index, queries = exact_setup
        telemetry = Telemetry()
        gate = _GatedLock()
        with MicroBatcher(
            index, max_batch=4, index_lock=gate, telemetry=telemetry
        ) as batcher:
            futures = _queue_behind_busy_index(
                batcher, gate, queries[0], [(q, 2, {}) for q in queries[1:11]]
            )
            occupancies = [f.result(timeout=10).stats.extras["coalesced"]
                           for f in futures]
        # Ten queued requests drain in arrival order as takes of 4, 4, 2.
        assert occupancies == [4] * 8 + [2] * 2
        assert telemetry.snapshot()["batch"]["histogram"] == {
            "1": 1, "4": 2, "2": 1,
        }

    def test_per_request_k_trimmed_from_max(self, exact_setup):
        index, queries = exact_setup
        gate = _GatedLock()
        with MicroBatcher(index, max_batch=8, index_lock=gate) as batcher:
            small, large = _queue_behind_busy_index(
                batcher, gate, queries[2],
                [(queries[0], 2, {}), (queries[1], 9, {})],
            )
            small_result = small.result(timeout=10)
            large_result = large.result(timeout=10)
        assert len(small_result) == 2
        assert len(large_result) == 9
        # One take, but each k is answered by its own batch, exactly as
        # search answers it.
        assert small_result.stats.extras["coalesced"] == 1
        assert large_result.stats.extras["coalesced"] == 1
        direct = index.search(queries[0], k=2)
        np.testing.assert_array_equal(small_result.ids, direct.ids)
        np.testing.assert_array_equal(small_result.scores, direct.scores)

    def test_mixed_k_answers_match_direct_search(self):
        # ProMIPS' stopping conditions test the k-th best score, so its
        # top-1 is not the head of its top-10.  A k=1 request taken with a
        # k=10 request must still get what search(q, k=1) returns.
        from repro.data.datasets import load_dataset

        dataset = load_dataset("yahoo", n=1000, dim=32, n_queries=1, seed=3)
        index = build_index("promips()", dataset.data, rng=1)
        q = dataset.queries[0]
        direct_1, direct_10 = index.search(q, k=1), index.search(q, k=10)
        assert direct_10.ids[0] != direct_1.ids[0]  # the case under test
        gate = _GatedLock()
        with MicroBatcher(index, max_batch=8, index_lock=gate) as batcher:
            large, small = _queue_behind_busy_index(
                batcher, gate, q, [(q, 10, {}), (q, 1, {})]
            )
            small_result = small.result(timeout=10)
            large_result = large.result(timeout=10)
        np.testing.assert_array_equal(small_result.ids, direct_1.ids)
        np.testing.assert_array_equal(small_result.scores, direct_1.scores)
        np.testing.assert_array_equal(large_result.ids, direct_10.ids)
        np.testing.assert_array_equal(large_result.scores, direct_10.scores)

    def test_distinct_kwargs_do_not_share_a_batch(self):
        gen = np.random.default_rng(3)
        data = gen.standard_normal((200, 10))
        index = build_index(
            "promips(c=0.85, p=0.6, m=4, kp=2, n_key=6, ksp=3)", data, rng=5
        )
        q = gen.standard_normal(10)
        gate = _GatedLock()
        with MicroBatcher(index, max_batch=8, index_lock=gate) as batcher:
            plain, override = _queue_behind_busy_index(
                batcher, gate, q, [(q, 3, {}), (q, 3, {"c": 0.5})]
            )
            plain_result = plain.result(timeout=10)
            override_result = override.result(timeout=10)
        assert plain_result.stats.extras["coalesced"] == 1
        assert override_result.stats.extras["coalesced"] == 1
        np.testing.assert_array_equal(
            plain_result.ids, index.search(q, k=3).ids
        )
        np.testing.assert_array_equal(
            override_result.ids, index.search(q, k=3, c=0.5).ids
        )

    def test_lone_requests_dispatch_alone(self, exact_setup):
        index, queries = exact_setup
        telemetry = Telemetry()
        # Sequential requests never wait for company: each one reaches an
        # idle index and dispatches at once as a batch of one.
        with MicroBatcher(index, max_batch=8, telemetry=telemetry) as batcher:
            for q in queries[:5]:
                served = batcher.search(q, k=4)
                assert served.stats.extras["coalesced"] == 1
                np.testing.assert_array_equal(served.ids, index.search(q, k=4).ids)
        assert telemetry.snapshot()["batch"]["histogram"] == {"1": 5}


class TestValidation:
    def test_bad_query_fails_fast_in_caller(self, exact_setup):
        index, _ = exact_setup
        with MicroBatcher(index) as batcher:
            with pytest.raises(ValueError, match="dimension"):
                batcher.submit(np.ones(99), k=1)
            with pytest.raises(ValueError, match="k must be a positive integer"):
                batcher.submit(np.ones(12), k=0)
            with pytest.raises(ValueError, match="non-finite"):
                batcher.submit(np.full(12, np.nan), k=1)

    def test_bad_request_never_poisons_neighbours(self, exact_setup):
        index, queries = exact_setup
        with MicroBatcher(index, max_batch=8) as batcher:
            good = batcher.submit(queries[0], k=3)
            with pytest.raises(ValueError):
                batcher.submit(np.ones(5), k=3)  # wrong dim, rejected at submit
            result = good.result(timeout=10)
        np.testing.assert_array_equal(result.ids, index.search(queries[0], k=3).ids)

    def test_rejects_bad_config(self, exact_setup):
        index, _ = exact_setup
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(index, max_batch=0)

    def test_unhashable_kwargs_rejected_at_submit(self, exact_setup):
        # The dispatcher groups requests by a hashed kwargs key; an
        # unhashable value must fail in the caller's thread, not kill the
        # dispatcher (which would hang every later request forever).
        index, queries = exact_setup
        with MicroBatcher(index) as batcher:
            with pytest.raises(ValueError, match="hashable"):
                batcher.submit(queries[0], k=2, c=[0.8, 0.9])
            # The batcher is still alive and serving.
            assert len(batcher.search(queries[0], k=2)) == 2


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_submits(self, exact_setup):
        index, queries = exact_setup
        batcher = MicroBatcher(index)
        batcher.search(queries[0], k=1)
        batcher.close()
        batcher.close()
        with pytest.raises(BatcherClosedError, match="closed"):
            batcher.submit(queries[0], k=1)

    def test_pending_requests_answered_on_close(self, exact_setup):
        index, queries = exact_setup
        gate = _GatedLock()
        batcher = MicroBatcher(index, max_batch=64, index_lock=gate)
        with gate.lock:
            first = batcher.submit(queries[0], k=2)
            assert gate.dispatcher_waiting.wait(timeout=10)
            queued = [batcher.submit(q, k=2) for q in queries[1:5]]
            # close() while the index is busy and four requests are queued
            # behind it: it must flush the queue, not abandon it.
            closer = threading.Thread(target=batcher.close)
            closer.start()
            closer.join(timeout=0.1)
            assert closer.is_alive()  # waiting on the busy dispatcher
        closer.join(timeout=10)
        assert not closer.is_alive()
        for future in [first, *queued]:
            assert len(future.result(timeout=1)) == 2

    def test_dispatch_errors_propagate_to_waiters(self, exact_setup):
        _, queries = exact_setup

        class Exploding:
            dim = 12

            def search_many(self, queries, k=1, **kwargs):
                raise RuntimeError("storage offline")

        with MicroBatcher(Exploding(), max_batch=4) as batcher:
            futures = [batcher.submit(q, k=1) for q in queries[:3]]
            for future in futures:
                with pytest.raises(RuntimeError, match="storage offline"):
                    future.result(timeout=10)

    def test_dispatcher_survives_failures_outside_search_many(self, exact_setup):
        # A malformed batch blows up in *result assembly*, not in
        # search_many itself; the dispatcher's catch-all must fail the
        # affected futures and keep serving later requests.
        index, queries = exact_setup

        class Flaky:
            dim = 12

            def __init__(self):
                self.bad = True

            def search_many(self, batch_queries, k=1, **kwargs):
                if self.bad:
                    return None  # indexing None raises after the call
                return index.search_many(batch_queries, k=k, **kwargs)

        flaky = Flaky()
        with MicroBatcher(flaky, max_batch=4) as batcher:
            with pytest.raises(TypeError):
                batcher.search(queries[0], k=2)
            flaky.bad = False
            recovered = batcher.search(queries[0], k=2)
        np.testing.assert_array_equal(
            recovered.ids, index.search(queries[0], k=2).ids
        )

    def test_shared_index_lock_is_honoured(self, exact_setup):
        index, queries = exact_setup
        lock = threading.Lock()
        with MicroBatcher(index, index_lock=lock) as batcher:
            with lock:
                future = batcher.submit(queries[0], k=1)
                time.sleep(0.05)
                assert not future.done()  # dispatcher blocked on our lock
            assert len(future.result(timeout=10)) == 1
