"""Shared infrastructure for the benchmark suite.

Every figure of the paper's evaluation draws on the same underlying runs
(build each method once per dataset, query the workload at several k).  This
module memoises those runs within one pytest session so the per-figure
benches stay cheap and mutually consistent; nothing is reused across
sessions, so every run measures the current code.

Profiles (env ``REPRO_BENCH_PROFILE``):

* ``quick`` (default) — reduced dataset sizes / k-grid; minutes end-to-end.
* ``full``  — the DESIGN.md sim sizes with the paper's 100-query workload
  and k ∈ {10, …, 100}.

The dataset *shapes* (generators, norm structure, page sizes) are identical
between profiles; only n/d and the workload density change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.data.datasets import Dataset, load_dataset
from repro.eval.ground_truth import GroundTruth
from repro.eval.harness import (
    BuildReport,
    QueryReport,
    build_method,
    default_registry,
    run_method,
)

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "quick")

_QUICK_SIZES = {
    "netflix": dict(n=12000, dim=64),
    "yahoo": dict(n=24000, dim=64),
    "p53": dict(n=5000, dim=768),
    "sift": dict(n=30000, dim=64),
}

if PROFILE == "quick":
    K_VALUES = [10, 40, 70, 100]
    N_QUERIES = 40
else:
    K_VALUES = list(range(10, 101, 10))
    N_QUERIES = 100

DATASET_NAMES = ["netflix", "yahoo", "p53", "sift"]
METHODS = ["ProMIPS", "H2-ALSH", "Range-LSH", "PQ-Based"]
SEED = 1

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)

_registry = default_registry()
_datasets: dict[str, Dataset] = {}
_ground_truths: dict[str, GroundTruth] = {}
_indexes: dict[tuple[str, str], tuple[object, BuildReport]] = {}
_reports: dict[tuple, QueryReport] = {}


def get_dataset(name: str) -> Dataset:
    if name not in _datasets:
        overrides = _QUICK_SIZES[name] if PROFILE == "quick" else {}
        _datasets[name] = load_dataset(name, n_queries=N_QUERIES, **overrides)
    return _datasets[name]


def get_ground_truth(name: str) -> GroundTruth:
    if name not in _ground_truths:
        ds = get_dataset(name)
        _ground_truths[name] = GroundTruth(ds.data, ds.queries, k_max=max(K_VALUES))
    return _ground_truths[name]


def get_index(dataset: str, method: str):
    key = (dataset, method)
    if key not in _indexes:
        _indexes[key] = build_method(_registry, method, get_dataset(dataset), seed=SEED)
    return _indexes[key]


def get_build_report(dataset: str, method: str) -> BuildReport:
    return get_index(dataset, method)[1]


def get_report(
    dataset: str, method: str, k: int, search_kwargs: dict | None = None
) -> QueryReport:
    """One (dataset, method, k[, c/p overrides]) cell, memoised per session."""
    extra = json.dumps(search_kwargs, sort_keys=True) if search_kwargs else ""
    mem_key = (dataset, method, k, extra)
    if mem_key in _reports:
        return _reports[mem_key]

    index, _ = get_index(dataset, method)
    report = run_method(
        index,
        get_dataset(dataset),
        get_ground_truth(dataset),
        k=k,
        method=method,
        search_kwargs=search_kwargs,
    )
    _reports[mem_key] = report
    return report


def single_query_callable(dataset: str, method: str, k: int = 10):
    """A zero-argument closure running one representative query — the thing
    pytest-benchmark times in each figure's bench."""
    index, _ = get_index(dataset, method)
    query = get_dataset(dataset).queries[0]

    def run():
        return index.search(query, k=k)

    return run


def emit(name: str, text: str) -> None:
    """Print a figure's table and persist it under benchmarks/results/."""
    print(f"\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
