"""Serving telemetry: lock-cheap counters behind ``GET /stats``.

The runtime records four things about itself: how many requests it has
answered per endpoint (and how fast, as QPS since start), how the result
cache is doing (hit rate), how full the coalesced batches run (an occupancy
histogram — the direct read-out of what micro-batching is buying), and the
end-to-end latency distribution of each endpoint (p50/p95/p99 through the
shared :func:`repro.eval.metrics.percentile` rule, so server numbers line up
with harness numbers).

Everything is guarded by one ``threading.Lock`` held only for appends and
integer bumps — no percentile math happens under the lock; :meth:`snapshot`
copies the raw samples out first and aggregates outside.  Each endpoint's
latencies live in a bounded ring (its :data:`DEFAULT_WINDOW` most recent
samples) so a long-lived server reports *recent* tail latency instead of
averaging over its lifetime, and a search percentile never mixes in writes.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict, deque

from repro.eval.metrics import latency_summary

__all__ = ["Telemetry", "DEFAULT_WINDOW"]

# Latency samples kept for the percentile window.  4096 single-request
# latencies bound both memory and the snapshot's sort cost while being wide
# enough that p99 rests on ~40 samples.
DEFAULT_WINDOW = 4096


class Telemetry:
    """Counters, batch-occupancy histogram, and one latency ring per endpoint.

    Args:
        window: number of most-recent latency samples retained per endpoint.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._lock = threading.Lock()
        self._window = int(window)
        self._started = time.monotonic()
        self._requests: Counter[str] = Counter()
        self._errors: Counter[str] = Counter()
        self._batch_occupancy: Counter[int] = Counter()
        self._latencies: defaultdict[str, deque[float]] = defaultdict(
            lambda: deque(maxlen=self._window)
        )

    # ------------------------------------------------------------- recording

    def record_request(self, endpoint: str, seconds: float | None = None) -> None:
        """Count one answered request; optionally record its latency."""
        with self._lock:
            self._requests[endpoint] += 1
            if seconds is not None:
                self._latencies[endpoint].append(float(seconds))

    def record_error(self, endpoint: str) -> None:
        """Count one request that was answered with an error status."""
        with self._lock:
            self._errors[endpoint] += 1

    def record_batch(self, occupancy: int) -> None:
        """Count one coalesced dispatch of ``occupancy`` requests."""
        if occupancy <= 0:
            raise ValueError(f"occupancy must be positive, got {occupancy}")
        with self._lock:
            self._batch_occupancy[int(occupancy)] += 1

    # ------------------------------------------------------------- reporting

    def snapshot(
        self,
        cache_stats: dict | None = None,
        maintenance_stats: dict | None = None,
    ) -> dict:
        """One JSON-ready view of everything recorded so far.

        Args:
            cache_stats: the result cache's own counters (hits/misses/...),
                merged in so ``/stats`` is a single document; hit rate is
                derived here.
            maintenance_stats: the background maintenance engine's counters
                (rebuilds, reclaimed bytes, in-flight target), merged in
                under ``"maintenance"``.
        """
        with self._lock:
            requests = dict(self._requests)
            errors = dict(self._errors)
            occupancy = dict(self._batch_occupancy)
            latencies = {
                endpoint: list(ring) for endpoint, ring in self._latencies.items()
            }
        elapsed = max(time.monotonic() - self._started, 1e-9)
        total = sum(requests.values())
        dispatches = sum(occupancy.values())
        coalesced = sum(size * count for size, count in occupancy.items())
        stats = {
            "uptime_seconds": elapsed,
            "requests_total": total,
            "requests_by_endpoint": requests,
            "errors_by_endpoint": errors,
            "qps": total / elapsed,
            "latency": {
                endpoint: latency_summary(samples)
                for endpoint, samples in latencies.items()
            },
            "batch": {
                "dispatches": dispatches,
                "histogram": {str(size): occupancy[size] for size in sorted(occupancy)},
                "mean_occupancy": (coalesced / dispatches) if dispatches else 0.0,
            },
        }
        if cache_stats is not None:
            lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
            stats["cache"] = {
                **cache_stats,
                "hit_rate": (cache_stats.get("hits", 0) / lookups) if lookups else 0.0,
            }
        if maintenance_stats is not None:
            stats["maintenance"] = dict(maintenance_stats)
        return stats
