"""Ablations of the design choices DESIGN.md §6 calls out.

1. Ring + sub-partition pattern vs standard iDistance (§VI motivation).
2. Quick-Probe range search (Algorithm 3) vs incremental NN search
   (Algorithm 1) — the paper's reason for inventing Quick-Probe.
3. Optimized projected dimension m (§V-B) vs neighbours m±2.
4. Compensation-pass trigger rate vs p.
"""

from __future__ import annotations

import time

import numpy as np

from common import emit, get_dataset, single_query_callable
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.core.optimal_dim import optimized_projection_dim
from repro.index.idistance import IDistanceIndex
from repro.index.ring_idistance import RingIDistance
from repro.eval.reporting import format_table
from repro.storage.pagefile import AccessCounter, VectorStore


def bench_ablation_partition_pattern(benchmark):
    """Pages/CPU of a projected-space range search under both patterns."""
    ds = get_dataset("netflix")
    index = ProMIPS.build(ds.data, ProMIPSParams(page_size=ds.page_size), rng=1)
    projected = index.projection.project(ds.data)

    # The ring owns its projected page file and charges its own bitmap; the
    # standard iDistance reads a store in its key order.
    ring = RingIDistance(projected, kp=5, n_key=40, ksp=10,
                         rng=np.random.default_rng(2), page_size=ds.page_size)
    standard = IDistanceIndex(projected, n_partitions=5,
                              rng=np.random.default_rng(2))
    store = VectorStore(projected, ds.page_size, layout_order=standard.layout_order)

    radius = float(np.median(np.linalg.norm(projected[:200], axis=1)))
    rows = []
    stats = {}
    for name in ("ring", "standard"):
        pages, cpu = [], []
        for q in index.projection.project(ds.queries[:20]):
            counter = AccessCounter()
            t0 = time.perf_counter()
            if name == "ring":
                data_pages = ring.page_bitmap()
                ring.range_search(q, radius, counter, data_pages)
                read = int(np.count_nonzero(data_pages))
            else:
                reader = store.reader()
                standard.range_search(q, radius, counter, reader)
                read = reader.pages_touched
            cpu.append(time.perf_counter() - t0)
            pages.append(counter.pages + read)
        stats[name] = (float(np.mean(pages)), float(np.mean(cpu)) * 1e3)
        rows.append([name, stats[name][0], stats[name][1]])

    table = format_table(
        ["pattern", "pages", "cpu_ms"], rows,
        title=(f"Ablation 1 — range search (r={radius:.2f}) under the ring "
               "pattern (Fig. 3) vs standard iDistance (Fig. 1)"),
    )
    emit("ablation1_partition_pattern", table)
    # The new pattern's sub-partition filter must not read more pages.
    assert stats["ring"][0] <= stats["standard"][0] * 1.1
    benchmark(single_query_callable("netflix", "ProMIPS"))


def bench_ablation_quickprobe_vs_incremental(benchmark):
    """Algorithm 3 (Quick-Probe + range search) vs Algorithm 1."""
    ds = get_dataset("netflix")
    index = ProMIPS.build(ds.data, ProMIPSParams(page_size=ds.page_size), rng=1)
    rows = []
    stats = {}
    for name, search in (("MIP-Search-II (Quick-Probe)", index.search),
                         ("MIP-Search-I (incremental)", index.search_incremental)):
        pages, cpu, cands = [], [], []
        for q in ds.queries[:20]:
            t0 = time.perf_counter()
            res = search(q, k=10)
            cpu.append(time.perf_counter() - t0)
            pages.append(res.stats.pages)
            cands.append(res.stats.candidates)
        stats[name] = (float(np.mean(pages)), float(np.mean(cpu)) * 1e3,
                       float(np.mean(cands)))
        rows.append([name, *stats[name]])

    table = format_table(
        ["algorithm", "pages", "cpu_ms", "candidates"], rows,
        title="Ablation 2 — Quick-Probe range search vs incremental NN search",
    )
    emit("ablation2_quickprobe", table)
    # Quick-Probe's raison d'être: no repeated range re-scans, fewer pages.
    quick = stats["MIP-Search-II (Quick-Probe)"]
    incremental = stats["MIP-Search-I (incremental)"]
    assert quick[0] <= incremental[0] * 1.1, "Quick-Probe should not read more pages"
    benchmark(single_query_callable("netflix", "ProMIPS"))


def bench_ablation_projected_dimension(benchmark):
    """The §V-B optimizer's m vs fixed neighbours."""
    ds = get_dataset("netflix")
    m_opt = optimized_projection_dim(ds.n)
    rows = []
    for m in (max(2, m_opt - 2), m_opt, m_opt + 2):
        index = ProMIPS.build(
            ds.data, ProMIPSParams(m=m, page_size=ds.page_size), rng=1
        )
        pages, cpu = [], []
        for q in ds.queries[:20]:
            t0 = time.perf_counter()
            res = index.search(q, k=10)
            cpu.append(time.perf_counter() - t0)
            pages.append(res.stats.pages)
        rows.append([
            f"m={m}" + (" (optimized)" if m == m_opt else ""),
            float(np.mean(pages)), float(np.mean(cpu)) * 1e3, index.groups.n_groups,
        ])
    table = format_table(
        ["projected dim", "pages", "cpu_ms", "groups"], rows,
        title="Ablation 3 — optimized projected dimension (f(m) = 2^m(m+1) + n/2^m)",
    )
    emit("ablation3_projected_dim", table)
    benchmark(single_query_callable("netflix", "ProMIPS"))


def bench_ablation_compensation_rate(benchmark):
    """How often the Quick-Probe radius under-shoots and the r' pass runs."""
    ds = get_dataset("netflix")
    index = ProMIPS.build(ds.data, ProMIPSParams(page_size=ds.page_size), rng=1)
    rows = []
    for p in (0.3, 0.5, 0.7, 0.9):
        expanded = 0
        probe_passed = 0
        for q in ds.queries:
            res = index.search(q, k=10, p=p)
            expanded += int(res.stats.extras["expansions"] > 0)
            probe_passed += int(res.stats.extras["probe_passed"])
        n_q = len(ds.queries)
        rows.append([p, probe_passed / n_q, expanded / n_q])
    table = format_table(
        ["p", "TestA pass rate", "compensation rate"], rows,
        title="Ablation 4 — Quick-Probe Test A pass rate and r'-expansion rate vs p",
    )
    emit("ablation4_compensation", table)
    benchmark(single_query_callable("netflix", "ProMIPS"))
