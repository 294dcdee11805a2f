"""Serving latency: coalesced micro-batching vs per-request dispatch.

Not a paper figure: this bench records what the serving runtime's
micro-batcher buys under concurrent load.  A closed-loop client fleet (each
client waits for its answer before sending its next query) searches the
same exact-scan index in two modes:

* **per-request** — every client thread validates its query, calls
  ``index.search`` under one shared lock and shapes the reply itself, which
  is what a naive HTTP handler per thread would do;
* **coalesced** — the in-process :class:`repro.serve.ServingRuntime`, whose
  coalescer answers whatever queued while the index was busy with one
  batched GEMM (``search_many``).

The cache is disabled and every client sends distinct queries, so the
comparison isolates the coalescer.  At one client the two modes are within
noise of each other (a lone request reaches an idle index and dispatches
at once as a batch of one); from a handful of concurrent clients on, the
batched GEMM amortises the scan and the coalesced p50 must win — the bench
asserts it at ``ASSERT_CLIENTS`` concurrent clients.

Latency percentiles go through the shared :func:`repro.eval.metrics`
helpers, so these numbers are directly comparable to the server's
``GET /stats`` output.

Run with ``pytest benchmarks/bench_serving_latency.py -s`` or directly with
``python benchmarks/bench_serving_latency.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from common import emit
from repro.api import validate_k, validate_query
from repro.data.datasets import load_dataset
from repro.eval.metrics import p50, p95
from repro.eval.reporting import format_table
from repro.serve import ServingRuntime
from repro.spec import build_index

N_POINTS = 40_000
DIM = 64
K = 10
CLIENT_COUNTS = (1, 2, 4, 8, 16)
REQUESTS_PER_CLIENT = 25
REPEATS = 3
# The acceptance bar: coalescing must beat per-request dispatch here.
ASSERT_CLIENTS = 8


def _closed_loop(search, queries: np.ndarray, n_clients: int):
    """Run the closed-loop fleet once through ``search(query)``; returns
    every request's latency (s)."""
    per_client = np.array_split(queries[: n_clients * REQUESTS_PER_CLIENT], n_clients)
    barrier = threading.Barrier(n_clients)
    latencies: list[list[float]] = [[] for _ in range(n_clients)]

    def client(c: int) -> None:
        barrier.wait()
        for query in per_client[c]:
            start = time.perf_counter()
            search(query)
            latencies[c].append(time.perf_counter() - start)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [lat for per in latencies for lat in per]


def _best_percentiles(search, queries, n_clients):
    """min-of-REPEATS p50/p95 (min damps shared-host scheduling noise)."""
    _closed_loop(search, queries, n_clients)  # warm-up
    best_p50, best_p95 = np.inf, np.inf
    for _ in range(REPEATS):
        latencies = _closed_loop(search, queries, n_clients)
        best_p50 = min(best_p50, p50(latencies))
        best_p95 = min(best_p95, p95(latencies))
    return best_p50, best_p95


def _coalesced_runtime(index) -> ServingRuntime:
    return ServingRuntime(index, max_batch=max(CLIENT_COUNTS), cache_size=0)


def run_latency_table() -> dict[str, object]:
    dataset = load_dataset(
        "netflix", n=N_POINTS, dim=DIM,
        n_queries=max(CLIENT_COUNTS) * REQUESTS_PER_CLIENT, seed=7,
    )
    index = build_index("exact()", dataset.data, rng=1)
    lock = threading.Lock()

    def per_request(query):
        # The work outside the lock matters: a bare `with lock: search` loop
        # lets the releasing thread re-take the lock before a waiter wakes,
        # which hides the queueing from p50 (it shows up only in p95).
        k = validate_k(K)
        query = validate_query(np.asarray(query, dtype=np.float64), index.dim)
        with lock:
            result = index.search(query, k=k)
        return {"ids": result.ids.tolist(), "scores": result.scores.tolist()}

    rows = []
    results: dict[int, dict[str, float]] = {}
    for n_clients in CLIENT_COUNTS:
        up50, up95 = _best_percentiles(per_request, dataset.queries, n_clients)
        with _coalesced_runtime(index) as runtime:
            cp50, cp95 = _best_percentiles(
                lambda query: runtime.search(query, k=K),
                dataset.queries, n_clients,
            )
        results[n_clients] = {
            "uncoalesced_p50": up50, "coalesced_p50": cp50,
            "p50_speedup": up50 / cp50 if cp50 > 0 else float("inf"),
        }
        rows.append([
            n_clients, up50 * 1e3, up95 * 1e3, cp50 * 1e3, cp95 * 1e3,
            results[n_clients]["p50_speedup"],
        ])
    table = format_table(
        ["clients", "direct_p50_ms", "direct_p95_ms", "coalesced_p50_ms",
         "coalesced_p95_ms", "p50_speedup"],
        rows,
        title=(
            f"closed-loop serving latency — {N_POINTS}x{DIM} synthetic, "
            f"exact inner, k={K}, {REQUESTS_PER_CLIENT} requests/client"
        ),
    )
    return {"results": results, "table": table, "index": index,
            "queries": dataset.queries}


def _assert_coalescing_wins(results: dict[int, dict[str, float]]) -> None:
    cell = results[ASSERT_CLIENTS]
    assert cell["coalesced_p50"] < cell["uncoalesced_p50"], (
        f"coalesced p50 must beat per-request dispatch at {ASSERT_CLIENTS} "
        f"concurrent clients: coalesced "
        f"{cell['coalesced_p50'] * 1e3:.2f}ms vs per-request "
        f"{cell['uncoalesced_p50'] * 1e3:.2f}ms"
    )


def bench_serving_latency(benchmark):
    out = run_latency_table()
    emit("serving_latency", out["table"])
    _assert_coalescing_wins(out["results"])

    with _coalesced_runtime(out["index"]) as runtime:
        benchmark(lambda: _closed_loop(
            lambda query: runtime.search(query, k=K),
            out["queries"], ASSERT_CLIENTS,
        ))


if __name__ == "__main__":
    out = run_latency_table()
    emit("serving_latency", out["table"])
    _assert_coalescing_wins(out["results"])
