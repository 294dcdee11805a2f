"""ProMIPS reproduction: probability-guaranteed c-approximate MIP search.

Public API:

* :class:`repro.IndexSpec` / :func:`repro.build_index` — the declarative
  factory API: every method builds from a ``"name(key=value, ...)"`` spec.
* :func:`repro.save_index` / :func:`repro.load_index` — universal
  persistence: any built index round-trips through one ``.npz`` envelope.
* :class:`repro.ProMIPS` / :class:`repro.ProMIPSParams` — the paper's method.
* :class:`repro.ShardedIndex` — the sharded serving layer: horizontal
  partitioning over any registered method with exact parallel top-k merge.
* :class:`repro.ServingRuntime` / :func:`repro.make_server` — the online
  serving runtime: micro-batching coalescer + generation-aware result cache
  + latency telemetry behind a stdlib JSON HTTP API (``repro serve``).
* :class:`repro.MaintenanceEngine` — background generational maintenance
  for dynamic indexes: compactions build off the request lock and swap in
  atomically, so rebuilds never stall serving.
* :class:`repro.SearchResult` / :class:`repro.SearchStats` /
  :class:`repro.BatchResult` — common result types.
* ``repro.baselines`` — exact scan, H2-ALSH, Norm Ranging-LSH, PQ-based and
  SimHash search.
* ``repro.data`` — synthetic analogues of the four evaluation datasets.
* ``repro.eval`` — metrics and the experiment harness regenerating the paper's
  tables and figures.

Every index answers query batches (``search_many``), its one query
implementation, and single queries (``search``) as one-row batches; a
batch's row ``i`` is exactly ``search(queries[i])``.

Quickstart:

>>> import numpy as np
>>> import repro
>>> data = np.random.default_rng(0).standard_normal((1000, 32))
>>> index = repro.build_index("promips(c=0.9, p=0.5)", data, rng=1)
>>> result = index.search(data[0], k=5)
>>> len(result.ids)
5
>>> batch = index.search_many(data[:8], k=5)
>>> batch.ids.shape
(8, 5)
>>> path = repro.save_index(index, "/tmp/idx.npz")  # doctest: +SKIP
>>> repro.load_index(path).search(data[0], k=5).ids  # doctest: +SKIP
"""

from repro.api import BatchResult, MIPSIndex, SearchResult, SearchStats
from repro.core.dynamic import DynamicProMIPS
from repro.core.maintenance import MaintenanceEngine
from repro.core.persist import inspect_index, load_index, save_index
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.core.rng import resolve_rng
from repro.core.sharded import ShardedIndex
from repro.serve import MicroBatcher, ResultCache, ServingRuntime, build_runtime, make_server
from repro.baselines.exact import ExactMIPS
from repro.baselines.h2alsh import H2ALSH
from repro.baselines.pq import PQBasedMIPS
from repro.baselines.rangelsh import RangeLSH
from repro.baselines.simhash import SimHashMIPS
from repro.data.datasets import load_dataset
from repro.eval.harness import default_registry, measure_throughput
from repro.spec import (
    IndexSpec,
    build_index,
    get_method,
    register_method,
    registered_methods,
)

__version__ = "1.19.0"

__all__ = [
    "MIPSIndex",
    "SearchResult",
    "SearchStats",
    "BatchResult",
    "IndexSpec",
    "build_index",
    "get_method",
    "register_method",
    "registered_methods",
    "resolve_rng",
    "ProMIPS",
    "ProMIPSParams",
    "DynamicProMIPS",
    "MaintenanceEngine",
    "ShardedIndex",
    "ServingRuntime",
    "MicroBatcher",
    "ResultCache",
    "build_runtime",
    "make_server",
    "load_index",
    "save_index",
    "inspect_index",
    "ExactMIPS",
    "H2ALSH",
    "PQBasedMIPS",
    "RangeLSH",
    "SimHashMIPS",
    "load_dataset",
    "default_registry",
    "measure_throughput",
    "__version__",
]
