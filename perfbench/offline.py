"""``offline-batch``: the ProMIPS query pipeline in-process, single thread.

Builds ``promips()`` over the yahoo-like corpus, answers seeded item-vector
queries (the paper's protocol) with ``search_many`` at k=10, then times a
looped ``search`` over queries already answered in batch and requires the
two to agree bit for bit.  Serving and sharding do nothing here.
"""

from __future__ import annotations

import time

import numpy as np

from util import BUILD_SEED, CORPUS_SEED, K, at_reference, exact_topk, machine_probe, \
    median, recall_and_ratio, tail_percentile, valid_topk, vm_hwm_mb

SPEC = "promips()"
CHUNK = 16          # queries per timed search_many call (one GEMM panel)
BATCH_SHARE = 0.5   # share of the window spent on search_many; rest is looped
SETUP_REPEATS = 5


def _timed(fn):
    """``(seconds at reference speed, result)`` of one call, probed before
    and after."""
    before = machine_probe()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return at_reference(elapsed, (before + machine_probe()) / 2), result


def run(seed: int, seconds: float, trace: bool, sizes: dict, cfg: dict) -> dict:
    from repro.data.datasets import load_dataset
    from repro.spec import build_index

    data = load_dataset("yahoo", n=sizes["n"], dim=64, n_queries=1,
                        seed=CORPUS_SEED).data
    rng = np.random.default_rng(seed)
    pool = data[rng.choice(data.shape[0], size=sizes["queries"], replace=False)]

    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, index = _timed(lambda: build_index(SPEC, data, rng=BUILD_SEED))
        setups.append(elapsed)

    # Warm BLAS and first-call paths before any timed window.
    index.search_many(pool[:CHUNK], k=K)
    index.search(pool[0], k=K)

    attempted = failed = 0
    answers: dict[int, tuple] = {}

    def batch_window(budget: float, cursor: int) -> tuple[float, int, int]:
        """``search_many`` throughput over the window: queries answered over
        the summed call times; also the call count and the new cursor."""
        times = []
        deadline = time.perf_counter() + budget
        while time.perf_counter() < deadline or not times:
            qids = [(cursor + j) % len(pool) for j in range(CHUNK)]
            elapsed, batch = _timed(lambda: index.search_many(pool[qids], k=K))
            times.append(elapsed)
            for j, qid in enumerate(qids):
                row = batch[j]
                answers.setdefault(qid, (row.ids.copy(), row.scores.copy(),
                                         row.stats.pages, row.stats.candidates))
            cursor += CHUNK
        return CHUNK * len(times) / sum(times), len(times), cursor

    if not trace:
        qps, chunks, cursor = batch_window(seconds * BATCH_SHARE, 0)
    else:
        # Half the batch window untraced, half traced: the ratio of the two
        # throughputs is the tracing overhead.
        from tracing import Tracer, install

        qps, chunks, cursor = batch_window(seconds * BATCH_SHARE / 2, 0)
        tracer = install(Tracer())
        build_index(SPEC, data, rng=BUILD_SEED)  # traced bulk load for build.*
        traced_qps, traced_chunks, cursor = batch_window(seconds * BATCH_SHARE / 2, cursor)
        chunks += traced_chunks
        tracer.uninstall()

    # Looped single-query search over answered queries: latency + bit-identity.
    latencies = []
    deadline = time.perf_counter() + seconds * (1 - BATCH_SHARE)
    answered = sorted(answers)
    i = 0
    while i < len(answered) and (time.perf_counter() < deadline or i == 0):
        qid = answered[i]
        elapsed, single = _timed(lambda: index.search(pool[qid], k=K))
        latencies.append(elapsed)
        ids, scores, pages, cands = answers[qid]
        attempted += 1
        if not (np.array_equal(single.ids, ids) and np.array_equal(single.scores, scores)
                and single.stats.pages == pages and single.stats.candidates == cands):
            failed += 1
        i += 1

    qids = np.array(answered)
    exact_ids, exact_scores = exact_topk(data, pool[qids])
    recalls, ratios = [], []
    for row, qid in enumerate(answered):
        ids, scores, _, _ = answers[qid]
        attempted += 1
        if not valid_topk(data[ids], pool[qid], ids.tolist(), scores):
            failed += 1
        r, o = recall_and_ratio(ids, scores, exact_ids[row], exact_scores[row])
        recalls.append(r)
        ratios.append(o)

    tail_pct = cfg["tail"]["search"]
    result = {
        "attempted": attempted,
        "failed": failed,
        "samples": {"batch_chunks": chunks, "looped_searches": len(latencies),
                    "answered_queries": len(answered)},
    }
    if trace:
        from layers import layer_metrics

        overhead = qps / traced_qps - 1.0
        result["layers"] = layer_metrics(tracer.spans, overhead=overhead,
                                         failed_share=failed / attempted)
        return result
    result["metrics"] = {
        "setup_s": median(setups),
        "qps": qps,
        "search_p50_ms": 1e3 * median(latencies),
        "search_tail_ms": 1e3 * tail_percentile(latencies, tail_pct),
        "recall_at_10": float(np.mean(recalls)),
        "overall_ratio": float(np.mean(ratios)),
        "index_bytes": float(index.index_size_bytes()),
        "rss_mb": vm_hwm_mb(),
    }
    return result
