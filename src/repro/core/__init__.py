"""The paper's contribution: projections, conditions, Quick-Probe, ProMIPS —
plus the shared batch query engine every index builds on."""

from repro.core.engine import (
    CandidateVerifier,
    TopK,
    batch_inner_products,
    batch_topk,
    merge_topk_panels,
    project_batch,
)
from repro.core.binary_codes import (
    BinaryCodeGroups,
    group_lower_bounds,
    pack_code,
    sign_bits,
)
from repro.core.conditions import StoppingRule
from repro.core.dynamic import DynamicProMIPS
from repro.core.maintenance import (
    MaintenanceEngine,
    RebuildTicket,
    maintenance_targets,
)
from repro.core.optimal_dim import optimized_projection_dim, quickprobe_cost
from repro.core.persist import inspect_index, load_index, save_index
from repro.core.projection import StableProjection
from repro.core.rng import resolve_rng
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.core.quickprobe import ProbeOutcome, QuickProbe

__all__ = [
    "CandidateVerifier",
    "TopK",
    "batch_inner_products",
    "batch_topk",
    "merge_topk_panels",
    "project_batch",
    "DynamicProMIPS",
    "MaintenanceEngine",
    "RebuildTicket",
    "maintenance_targets",
    "load_index",
    "save_index",
    "inspect_index",
    "resolve_rng",
    "BinaryCodeGroups",
    "group_lower_bounds",
    "pack_code",
    "sign_bits",
    "StoppingRule",
    "optimized_projection_dim",
    "quickprobe_cost",
    "StableProjection",
    "ProMIPS",
    "ProMIPSParams",
    "ProbeOutcome",
    "QuickProbe",
]
