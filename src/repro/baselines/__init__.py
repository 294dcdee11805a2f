"""Benchmark methods from the paper's evaluation (§VIII-A-1).

* :class:`ExactMIPS` — brute-force ground truth.
* :class:`H2ALSH` — QNF transform + homocentric hypersphere shells + QALSH.
* :class:`RangeLSH` — norm-ranging subsets + Simple-LSH/SimHash codes.
* :class:`PQBasedMIPS` — QNF transform + LOPQ-style IVF product quantization.
* :class:`SimHashMIPS` — Simple-LSH + SimHash codes with exact re-ranking
  (off-paper; the lightest-index comparison point).

Each method's one query implementation is ``search_many``; ``search`` is
its one-row batch.  Exact, PQ and SimHash share batch-wide work (one scan
GEMM, per-cell ADC tables, one encode GEMM); H2-ALSH and Range-LSH loop
over the batch, since their shell and bucket walks stop per query.
"""

from repro.baselines.exact import ExactMIPS, exact_topk
from repro.baselines.h2alsh import H2ALSH
from repro.baselines.pq import PQBasedMIPS, ProductQuantizer, train_opq_rotation
from repro.baselines.qalsh import (
    QALSH,
    QALSHParams,
    derive_qalsh_params,
    qalsh_collision_probability,
)
from repro.baselines.rangelsh import RangeLSH
from repro.baselines.simhash import (
    SimHash,
    SimHashMIPS,
    hamming_distance,
    hamming_to_cosine,
)
from repro.baselines.transforms import (
    qnf_distance_to_ip,
    qnf_transform_data,
    qnf_transform_query,
    simple_lsh_transform_data,
    simple_lsh_transform_query,
)

__all__ = [
    "ExactMIPS",
    "exact_topk",
    "H2ALSH",
    "PQBasedMIPS",
    "ProductQuantizer",
    "train_opq_rotation",
    "QALSH",
    "QALSHParams",
    "derive_qalsh_params",
    "qalsh_collision_probability",
    "RangeLSH",
    "SimHash",
    "SimHashMIPS",
    "hamming_distance",
    "hamming_to_cosine",
    "qnf_distance_to_ip",
    "qnf_transform_data",
    "qnf_transform_query",
    "simple_lsh_transform_data",
    "simple_lsh_transform_query",
]
