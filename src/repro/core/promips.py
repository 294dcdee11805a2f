"""ProMIPS — the paper's contribution, assembled from the substrates.

The public entry point is :class:`ProMIPS`:

>>> index = ProMIPS.build(data, ProMIPSParams(c=0.9, p=0.5))
>>> result = index.search(query, k=10)
>>> batch = index.search_many(queries, k=10)

``search_many`` implements MIP-Search-II (Algorithm 3) for a query batch:
Quick-Probe determines each query's range-search radius, one range search
over the ring-pattern iDistance collects candidates in slot order, the
verifier checks them in ascending projected distance until Condition A or B
fires, ordering only the prefix it reads, and a compensation pass extends
the radius to ``r'`` when neither has.  The batch-wide work — one GEMM
projecting every query, one vectorized Quick-Probe group scan — is
row-independent, and the adaptive range-search/verification core runs per
query, so ``search`` is simply the one-row batch.

``search_incremental`` implements MIP-Search-I (Algorithm 1), the
incremental-NN variant that Quick-Probe was designed to replace; it is kept
both as a reference implementation and for the ablation benchmark.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.api import (
    BatchResult,
    SearchResult,
    SearchStats,
    validate_k,
    validate_query,
    validate_queries,
    validate_data,
)
from repro.core.binary_codes import BinaryCodeGroups
from repro.core.conditions import (
    compensation_radius,
    condition_a_holds,
    condition_b_holds,
    guarantee_denominator,
)
from repro.core.engine import CandidateVerifier, TopK, project_batch
from repro.core.optimal_dim import optimized_projection_dim
from repro.core.projection import StableProjection
from repro.core.quickprobe import ProbeOutcome, QuickProbe
from repro.core.rng import resolve_rng
from repro.index.ring_idistance import RingIDistance
from repro.spec import IndexSpec, register_method
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, AccessCounter, VectorStore

__all__ = ["ProMIPSParams", "ProMIPS"]


@dataclass(frozen=True)
class ProMIPSParams:
    """Build/search parameters (§VIII-A-4 defaults).

    Attributes:
        c: approximation ratio, ``0 < c < 1`` (paper default 0.9).
        p: guaranteed probability, ``0 < p < 1`` (paper default 0.5).
        m: projected dimensionality; ``None`` selects the §V-B optimum
            ``argmin 2^m(m+1) + n/2^m``.
        kp: number of first-stage iDistance partitions (paper default 5).
        n_key: rings per partition, ``Nkey`` (paper default 40).
        ksp: sub-partitions per ring (paper default 10).
        epsilon: ring width; ``None`` derives ``r_avg / Nkey`` from the data
            (the paper's per-dataset constants were obtained the same way).
        page_size: disk page size in bytes (4KB; the paper uses 64KB on P53).
        tree_order: B+-tree fanout.
    """

    c: float = 0.9
    p: float = 0.5
    m: int | None = None
    kp: int = 5
    n_key: int = 40
    ksp: int = 10
    epsilon: float | None = None
    page_size: int = DEFAULT_PAGE_SIZE
    tree_order: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"approximation ratio must satisfy 0 < c < 1, got {self.c}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"guaranteed probability must satisfy 0 < p < 1, got {self.p}")
        if self.m is not None and self.m <= 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if min(self.kp, self.n_key, self.ksp) <= 0:
            raise ValueError("kp, n_key and ksp must all be positive")


@register_method("promips", aliases=("ProMIPS",))
class ProMIPS:
    """Probability-guaranteed c-AMIP index with a lightweight iDistance.

    Use :meth:`build` (or ``repro.build_index`` with a ``"promips(...)"``
    spec) or :meth:`from_state`; both end in the constructor, which takes the
    two artefacts that cost k-means or random draws — the projection and the
    ring iDistance over ``projected`` — and derives the rest: the binary-code
    groups and Quick-Probe, the paged store of the original vectors in the
    ring's disk layout, and ``max_norm_sq``.  The projected points are kept
    once, as the ring's slot-ordered page file.
    """

    def __init__(
        self,
        data: np.ndarray,
        params: ProMIPSParams,
        projection: StableProjection,
        projected: np.ndarray,
        ring: RingIDistance,
    ) -> None:
        self._data = data
        self.params = params
        self.n, self.dim = data.shape
        self.projection = projection
        self.m = projection.proj_dim
        self.ring = ring
        self.groups = BinaryCodeGroups(projected, np.abs(data).sum(axis=1))
        self.quickprobe = QuickProbe(self.groups)
        self.orig_store = VectorStore(data, params.page_size, layout_order=ring.layout_order)
        self.max_norm_sq = float(np.einsum("ij,ij->i", data, data).max())
        self._chi2 = self.quickprobe.chi2
        self._verifier = CandidateVerifier(self._chi2, self.max_norm_sq)

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        params: ProMIPSParams | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> "ProMIPS":
        """Run the pre-process of Fig. 2 and return a ready index.

        Args:
            data: ``(n, d)`` dataset; must be finite, ``n >= 1``.
            params: build parameters; defaults to :class:`ProMIPSParams`.
            rng: generator or seed for projections and k-means.
        """
        params = params or ProMIPSParams()
        rng = resolve_rng(rng)
        data = validate_data(data)

        n, d = data.shape
        m = params.m if params.m is not None else optimized_projection_dim(n)
        params = replace(params, m=m)

        projection = StableProjection(d, m, rng)
        projected = projection.project(data)
        ring = RingIDistance(
            projected,
            kp=params.kp,
            n_key=params.n_key,
            ksp=params.ksp,
            rng=rng,
            epsilon=params.epsilon,
            order=params.tree_order,
            page_size=params.page_size,
        )
        return cls(data, params, projection, projected, ring)

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "ProMIPS":
        """Build from a declarative spec, e.g. ``promips(c=0.9, p=0.5)``.

        Spec parameters are exactly the :class:`ProMIPSParams` fields.
        """
        return cls.build(data, ProMIPSParams(**spec.params), rng=resolve_rng(rng))

    def spec(self) -> IndexSpec:
        """The round-trippable build configuration (``m`` fully resolved)."""
        return IndexSpec("promips", asdict(self.params))

    def state(self) -> dict[str, np.ndarray]:
        """Arrays sufficient to reconstruct the index bit-identically.

        The cheap derivations (projected points, binary-code groups) are
        recomputed on :meth:`from_state` from the stored projection matrix,
        while both k-means stages are restored from the stored ring geometry.
        """
        ring_state = {f"ring_{k}": v for k, v in self.ring.state().items()}
        return {
            "data": self._data,
            "projection_matrix": self.projection.matrix,
            **ring_state,
        }

    @classmethod
    def from_state(cls, spec: IndexSpec, state: dict[str, np.ndarray]) -> "ProMIPS":
        """Reconstruct a built index from :meth:`spec` + :meth:`state` output;
        ``data`` is validated once, as in :meth:`build`."""
        params = ProMIPSParams(**spec.params)
        data = validate_data(state["data"])
        ring_state = {
            key[len("ring_"):]: state[key] for key in state if key.startswith("ring_")
        }

        projection = StableProjection.from_matrix(state["projection_matrix"])
        projected = projection.project(data)
        ring = RingIDistance.from_state(
            projected, ring_state, order=params.tree_order, page_size=params.page_size
        )
        return cls(data, params, projection, projected, ring)

    # ------------------------------------------------------------------- size

    def index_size_bytes(self) -> int:
        """Everything a query needs besides the original data file:

        the Quick-Probe group summaries (Algorithm 2 only touches each
        group's min-ℓ1 representative), the projection matrix, and the ring
        iDistance: its projected page file (``n · m`` float32 components in
        sub-partition order) and its structures.  The per-point binary codes
        and 1-norms of §VII are pre-processing intermediates folded into the
        group summaries.
        """
        return (
            self.groups.summary_size_bytes()
            + self.projection.size_bytes()
            + self.ring.index_size_bytes()
        )

    # ----------------------------------------------------------------- search

    def _search_core(
        self,
        query: np.ndarray,
        q_proj: np.ndarray,
        outcome: ProbeOutcome,
        k: int,
        c: float,
        p: float,
    ) -> SearchResult:
        """MIP-Search-II for one query, given its projection and probe.

        The adaptive part of Algorithm 3: a first range search at the
        Quick-Probe radius, chunked verification through the shared
        :class:`repro.core.engine.CandidateVerifier`, and the compensation
        loop extending to ``r'`` until a condition fires.
        """
        q_norm_sq = float(query @ query)
        tree_counter = AccessCounter()
        orig_reader = self.orig_store.reader()
        proj_pages = self.ring.file.bitmap()

        # Both files share the ring's layout, so the probe's slot in the
        # original file is its slot in the projected one.
        probe_vec = self.ring.read_slot(self.orig_store.slot_of(outcome.point_id), proj_pages)
        radius = float(np.linalg.norm(probe_vec - q_proj))

        topk = TopK(k)
        expansions = 0
        total_verified = 0

        # --- first range search at the Quick-Probe radius.  min_radius is
        # strict, so the -1 sentinel keeps distance-0 (coincident) points in.
        ids, dists = self.ring.range_search(
            q_proj, radius, tree_counter, proj_pages, min_radius=-1.0
        )
        fired, verified = self._verifier.verify(
            topk, ids, dists, query, orig_reader, c, p, q_norm_sq
        )
        total_verified += verified

        # --- compensation loop: extend to r' until a condition fires.  The
        # paper performs one extension; the loop generalises it to k-AMIP
        # (fewer than k candidates in range) and guarantees termination by
        # doubling when r' fails to grow.
        current_radius = radius
        while fired is None and total_verified < self.n:
            denominator = guarantee_denominator(self.max_norm_sq, q_norm_sq, topk.kth_ip, c)
            # Stopping requires a full top-k (the c-k-AMIP conditions are
            # stated on ok_max); with fewer candidates the radius must grow.
            if topk.full and condition_b_holds(
                current_radius**2, denominator, self._chi2, p
            ):
                fired = "condition_b"
                break
            if math.isinf(denominator):
                next_radius = max(2.0 * current_radius, self.ring.epsilon)
            else:
                next_radius = compensation_radius(denominator, self._chi2, p)
                if next_radius <= current_radius:
                    next_radius = 2.0 * current_radius
            expansions += 1
            ids, dists = self.ring.range_search(
                q_proj, next_radius, tree_counter, proj_pages, min_radius=current_radius
            )
            fired, verified = self._verifier.verify(
                topk, ids, dists, query, orig_reader, c, p, q_norm_sq
            )
            total_verified += verified
            current_radius = next_radius

        ids_out, ips_out = topk.result()
        stats = SearchStats(
            pages=(
                tree_counter.pages
                + orig_reader.pages_touched
                + int(np.count_nonzero(proj_pages))
            ),
            candidates=total_verified,
            extras={
                "probe_radius": radius,
                "final_radius": current_radius,
                "expansions": expansions,
                "probe_passed": outcome.passed,
                "stopped_by": fired or "exhausted",
                "condition_a": fired == "condition_a",
                "groups_examined": outcome.groups_examined,
            },
        )
        return SearchResult(ids=ids_out, scores=ips_out, stats=stats)

    def search(
        self,
        query: np.ndarray,
        k: int = 1,
        c: float | None = None,
        p: float | None = None,
    ) -> SearchResult:
        """c-k-AMIP search for one ``(d,)`` query: a one-row :meth:`search_many`."""
        query = validate_query(query, self.dim)
        return self.search_many(query[None, :], k=k, c=c, p=p)[0]

    def search_many(
        self,
        queries: np.ndarray,
        k: int = 1,
        c: float | None = None,
        p: float | None = None,
    ) -> BatchResult:
        """c-k-AMIP search via MIP-Search-II (Quick-Probe + range search).

        The batch-wide work runs vectorized — one shape-stable GEMM projects
        every query, and Quick-Probe scans the group summaries for the whole
        batch in one pass — while the adaptive range-search/verification core
        (radii, stopping conditions, compensation) stays per query because
        each query terminates at its own radius.  No step mixes rows, so a
        query's answer never depends on its batch.

        Args:
            queries: ``(n_q, d)`` query batch (a single ``(d,)`` query is
                promoted to one row).
            k: results per query (c-k-AMIP).
            c: batch-wide approximation-ratio override.
            p: batch-wide guarantee-probability override.
        """
        c = self.params.c if c is None else c
        p = self.params.p if p is None else p
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return BatchResult.empty()
        k = min(k, self.n)

        q_projs = project_batch(self.projection.matrix, queries)
        q_l1s = np.array([float(np.abs(q).sum()) for q in queries])
        outcomes = self.quickprobe.probe_many(q_projs, q_l1s, c, p)
        results = [
            self._search_core(query, q_projs[i], outcomes[i], k, c, p)
            for i, query in enumerate(queries)
        ]
        return BatchResult.from_results(results)

    def search_incremental(
        self,
        query: np.ndarray,
        k: int = 1,
        c: float | None = None,
        p: float | None = None,
    ) -> SearchResult:
        """c-k-AMIP search via MIP-Search-I (Algorithm 1).

        Performs an incremental NN search in the projected space and tests
        Conditions A and B on every returned point.  Kept as the reference
        the paper improves on; the ablation benchmark compares it against
        :meth:`search`.
        """
        c = self.params.c if c is None else c
        p = self.params.p if p is None else p
        k = validate_k(k)
        query = validate_query(query, self.dim)
        k = min(k, self.n)

        q_proj = project_batch(self.projection.matrix, query[None, :])[0]
        q_norm_sq = float(query @ query)

        tree_counter = AccessCounter()
        orig_reader = self.orig_store.reader()
        proj_pages = self.ring.file.bitmap()

        topk = TopK(k)
        verified = 0
        stopped_by = "exhausted"
        for pid, dist in self.ring.knn_iterate(q_proj, tree_counter, proj_pages):
            vec = orig_reader.get(pid)
            ip = float(vec @ query)
            verified += 1
            topk.offer(ip, pid)
            if not topk.full:
                continue
            if condition_a_holds(self.max_norm_sq, q_norm_sq, topk.kth_ip, c):
                stopped_by = "condition_a"
                break
            denominator = guarantee_denominator(self.max_norm_sq, q_norm_sq, topk.kth_ip, c)
            if condition_b_holds(dist * dist, denominator, self._chi2, p):
                stopped_by = "condition_b"
                break

        ids_out, ips_out = topk.result()
        stats = SearchStats(
            pages=(
                tree_counter.pages
                + orig_reader.pages_touched
                + int(np.count_nonzero(proj_pages))
            ),
            candidates=verified,
            extras={"stopped_by": stopped_by},
        )
        return SearchResult(ids=ids_out, scores=ips_out, stats=stats)

    def __repr__(self) -> str:
        return (
            f"ProMIPS(n={self.n}, d={self.dim}, m={self.m}, kp={self.ring.kp}, "
            f"n_key={self.params.n_key}, ksp={self.params.ksp})"
        )
