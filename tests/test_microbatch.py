"""Tests for repro.serve.microbatch — coalescing correctness and hygiene."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve.microbatch import MicroBatcher
from repro.serve.telemetry import Telemetry
from repro.spec import build_index


@pytest.fixture(scope="module")
def exact_setup():
    gen = np.random.default_rng(21)
    data = gen.standard_normal((400, 12))
    index = build_index("exact()", data, rng=5)
    queries = gen.standard_normal((64, 12))
    return index, queries


class TestCoalescedCorrectness:
    def test_concurrent_submits_match_direct_search(self, exact_setup):
        index, queries = exact_setup
        with MicroBatcher(index, max_batch=16, max_wait_ms=5.0) as batcher:
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
        # A long tick plus a burst larger than one GEMV guarantees occupancy.
        with MicroBatcher(
            index, max_batch=32, max_wait_ms=200.0, telemetry=telemetry
        ) as batcher:
            futures = [batcher.submit(q, k=3) for q in queries[:12]]
            for future in futures:
                future.result(timeout=10)
        batch = telemetry.snapshot()["batch"]
        assert batch["dispatches"] < 12  # strictly fewer dispatches than requests
        assert batch["mean_occupancy"] > 1.0
        occupancies = [r.result().stats.extras["coalesced"] for r in futures]
        assert max(occupancies) > 1

    def test_max_batch_bounds_occupancy(self, exact_setup):
        index, queries = exact_setup
        telemetry = Telemetry()
        with MicroBatcher(
            index, max_batch=4, max_wait_ms=200.0, telemetry=telemetry
        ) as batcher:
            futures = [batcher.submit(q, k=2) for q in queries[:10]]
            for future in futures:
                future.result(timeout=10)
        histogram = telemetry.snapshot()["batch"]["histogram"]
        assert all(int(size) <= 4 for size in histogram)

    def test_per_request_k_trimmed_from_max(self, exact_setup):
        index, queries = exact_setup
        with MicroBatcher(index, max_batch=8, max_wait_ms=200.0) as batcher:
            small = batcher.submit(queries[0], k=2)
            large = batcher.submit(queries[1], k=9)
            small_result = small.result(timeout=10)
            large_result = large.result(timeout=10)
        assert len(small_result) == 2
        assert len(large_result) == 9
        # Each k is answered by its own batch, exactly as search answers it.
        direct = index.search(queries[0], k=2)
        np.testing.assert_array_equal(small_result.ids, direct.ids)
        np.testing.assert_array_equal(small_result.scores, direct.scores)

    def test_mixed_k_answers_match_direct_search(self):
        # ProMIPS' stopping conditions test the k-th best score, so its
        # top-1 is not the head of its top-10.  A k=1 request sharing a tick
        # with a k=10 request must still get what search(q, k=1) returns.
        from repro.data.datasets import load_dataset

        dataset = load_dataset("yahoo", n=1000, dim=32, n_queries=1, seed=3)
        index = build_index("promips()", dataset.data, rng=1)
        q = dataset.queries[0]
        direct_1, direct_10 = index.search(q, k=1), index.search(q, k=10)
        assert direct_10.ids[0] != direct_1.ids[0]  # the case under test
        with MicroBatcher(index, max_batch=8, max_wait_ms=200.0) as batcher:
            large = batcher.submit(q, k=10)
            small = batcher.submit(q, k=1)
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
        with MicroBatcher(index, max_batch=8, max_wait_ms=200.0) as batcher:
            plain = batcher.submit(q, k=3)
            override = batcher.submit(q, k=3, c=0.5)
            plain_result = plain.result(timeout=10)
            override_result = override.result(timeout=10)
        np.testing.assert_array_equal(
            plain_result.ids, index.search(q, k=3).ids
        )
        np.testing.assert_array_equal(
            override_result.ids, index.search(q, k=3, c=0.5).ids
        )

    def test_works_for_every_tick_size(self, exact_setup):
        index, queries = exact_setup
        # max_wait_ms=0: each request dispatches as soon as the dispatcher
        # sees it — results must still be exact.
        with MicroBatcher(index, max_batch=8, max_wait_ms=0.0) as batcher:
            for q in queries[:5]:
                served = batcher.search(q, k=4)
                np.testing.assert_array_equal(served.ids, index.search(q, k=4).ids)


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
        with MicroBatcher(index, max_batch=8, max_wait_ms=100.0) as batcher:
            good = batcher.submit(queries[0], k=3)
            with pytest.raises(ValueError):
                batcher.submit(np.ones(5), k=3)  # wrong dim, rejected at submit
            result = good.result(timeout=10)
        np.testing.assert_array_equal(result.ids, index.search(queries[0], k=3).ids)

    def test_rejects_bad_config(self, exact_setup):
        index, _ = exact_setup
        with pytest.raises(ValueError):
            MicroBatcher(index, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(index, max_wait_ms=-1.0)

    def test_unhashable_kwargs_rejected_at_submit(self, exact_setup):
        # The dispatcher groups requests by a hashed kwargs key; an
        # unhashable value must fail in the caller's thread, not kill the
        # dispatcher (which would hang every later request forever).
        index, queries = exact_setup
        with MicroBatcher(index, max_wait_ms=1.0) as batcher:
            with pytest.raises(ValueError, match="hashable"):
                batcher.submit(queries[0], k=2, c=[0.8, 0.9])
            # The batcher is still alive and serving.
            assert len(batcher.search(queries[0], k=2)) == 2


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_submits(self, exact_setup):
        index, queries = exact_setup
        batcher = MicroBatcher(index, max_wait_ms=1.0)
        batcher.search(queries[0], k=1)
        batcher.close()
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(queries[0], k=1)

    def test_pending_requests_answered_on_close(self, exact_setup):
        index, queries = exact_setup
        batcher = MicroBatcher(index, max_batch=64, max_wait_ms=10_000.0)
        futures = [batcher.submit(q, k=2) for q in queries[:4]]
        # The tick would hold for 10s waiting for company; close() must
        # flush the queue instead of abandoning it.
        start = time.monotonic()
        batcher.close()
        for future in futures:
            assert len(future.result(timeout=1)) == 2
        assert time.monotonic() - start < 5.0

    def test_dispatch_errors_propagate_to_waiters(self, exact_setup):
        _, queries = exact_setup

        class Exploding:
            dim = 12

            def search_many(self, queries, k=1, **kwargs):
                raise RuntimeError("storage offline")

        with MicroBatcher(Exploding(), max_batch=4, max_wait_ms=50.0) as batcher:
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
        with MicroBatcher(flaky, max_batch=4, max_wait_ms=10.0) as batcher:
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
        with MicroBatcher(index, max_wait_ms=0.0, index_lock=lock) as batcher:
            with lock:
                future = batcher.submit(queries[0], k=1)
                time.sleep(0.05)
                assert not future.done()  # dispatcher blocked on our lock
            assert len(future.result(timeout=10)) == 1
