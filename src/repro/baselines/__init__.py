"""Benchmark methods from the paper's evaluation (§VIII-A-1).

* :class:`ExactMIPS` — brute-force ground truth.
* :class:`H2ALSH` — QNF transform + homocentric hypersphere shells + QALSH.
* :class:`RangeLSH` — norm-ranging subsets + Simple-LSH/SimHash codes.
* :class:`PQBasedMIPS` — QNF transform + LOPQ-style IVF product quantization.
* :class:`SimHashMIPS` — Simple-LSH + SimHash codes with exact re-ranking
  (off-paper; the lightest-index comparison point).

Exact, PQ and SimHash implement natively vectorized ``search_many`` batch
paths; the rest inherit the generic fallback from the API layer.
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
