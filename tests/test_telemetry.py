"""Tests for repro.serve.telemetry."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve.telemetry import Telemetry


class TestCounters:
    def test_starts_empty(self):
        snap = Telemetry().snapshot()
        assert snap["requests_total"] == 0
        assert snap["qps"] == 0.0
        assert snap["latency"] == {}
        assert snap["batch"] == {
            "dispatches": 0, "histogram": {}, "mean_occupancy": 0.0,
        }

    def test_requests_grouped_by_endpoint(self):
        telemetry = Telemetry()
        for _ in range(3):
            telemetry.record_request("search")
        telemetry.record_request("insert")
        snap = telemetry.snapshot()
        assert snap["requests_total"] == 4
        assert snap["requests_by_endpoint"] == {"search": 3, "insert": 1}
        assert snap["qps"] > 0
        assert telemetry.total_requests == 4

    def test_errors_tracked_separately(self):
        telemetry = Telemetry()
        telemetry.record_error("search")
        snap = telemetry.snapshot()
        assert snap["errors_by_endpoint"] == {"search": 1}
        assert snap["requests_total"] == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            Telemetry(window=0)


class TestLatency:
    def test_percentiles_match_numpy(self):
        telemetry = Telemetry()
        rng = np.random.default_rng(0)
        samples = rng.exponential(scale=0.002, size=200)
        for s in samples:
            telemetry.record_request("search", seconds=float(s))
        latency = telemetry.snapshot()["latency"]["search"]
        assert latency["count"] == 200
        assert latency["p50_ms"] == pytest.approx(
            float(np.percentile(samples, 50)) * 1e3
        )
        assert latency["p95_ms"] == pytest.approx(
            float(np.percentile(samples, 95)) * 1e3
        )
        assert latency["p99_ms"] == pytest.approx(
            float(np.percentile(samples, 99)) * 1e3
        )

    def test_window_keeps_most_recent(self):
        telemetry = Telemetry(window=4)
        for s in [1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0]:
            telemetry.record_request("search", seconds=s)
        latency = telemetry.snapshot()["latency"]["search"]
        assert latency["count"] == 4
        assert latency["p50_ms"] == pytest.approx(5000.0)

    def test_each_endpoint_keeps_its_own_ring(self):
        # A write's latency never enters the search percentiles.
        telemetry = Telemetry(window=4)
        for _ in range(6):
            telemetry.record_request("search", seconds=0.001)
        telemetry.record_request("insert", seconds=1.0)
        telemetry.record_request("delete")  # counted, no latency sample
        latency = telemetry.snapshot()["latency"]
        assert set(latency) == {"search", "insert"}
        assert latency["search"]["count"] == 4
        assert latency["search"]["p99_ms"] == pytest.approx(1.0)
        assert latency["insert"]["count"] == 1
        assert latency["insert"]["p50_ms"] == pytest.approx(1000.0)


class TestBatchHistogram:
    def test_occupancy_histogram(self):
        telemetry = Telemetry()
        for size in [1, 4, 4, 8]:
            telemetry.record_batch(size)
        batch = telemetry.snapshot()["batch"]
        assert batch["dispatches"] == 4
        assert batch["histogram"] == {"1": 1, "4": 2, "8": 1}
        assert batch["mean_occupancy"] == pytest.approx((1 + 4 + 4 + 8) / 4)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            Telemetry().record_batch(0)


class TestCacheMerge:
    def test_hit_rate_derived(self):
        snap = Telemetry().snapshot(cache_stats={"hits": 3, "misses": 1})
        assert snap["cache"]["hit_rate"] == pytest.approx(0.75)

    def test_zero_lookups_is_zero_rate(self):
        snap = Telemetry().snapshot(cache_stats={"hits": 0, "misses": 0})
        assert snap["cache"]["hit_rate"] == 0.0


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        telemetry = Telemetry()
        n_threads, per_thread = 8, 500

        def work():
            for _ in range(per_thread):
                telemetry.record_request("search", seconds=0.001)
                telemetry.record_batch(2)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = telemetry.snapshot()
        assert snap["requests_total"] == n_threads * per_thread
        assert snap["batch"]["dispatches"] == n_threads * per_thread
