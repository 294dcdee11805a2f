"""PQ-based MIPS baseline — benchmark method 3.

The reproduced paper builds this baseline as: "we adopt the asymmetric
transformation in H2-ALSH to convert MIP search into NN search, and select
the latest product quantization-based NN search technique [19] (locally
optimized product quantization, Kalantidis & Avrithis, CVPR 2014)".  Its
configuration there: 16 subspaces, 256 centroids per subspace, 16 probed
cells.

Pieces implemented here:

* :class:`ProductQuantizer` — classic PQ: split dimensions into subspaces,
  one k-means codebook per subspace (:meth:`ProductQuantizer.train`), ADC
  lookup tables at query time.
* :func:`train_opq_rotation` — parametric OPQ: alternate PQ fitting with an
  orthogonal Procrustes solve of ``min_R ‖XR − decode(encode(XR))‖_F``.
* :class:`PQBasedMIPS` — the full baseline: QNF transform → coarse k-means
  cells → per-cell rotation of residuals (locally optimized, as in LOPQ) →
  per-cell (or global-fallback) PQ codebooks → inverted lists on disk →
  ADC scan of probed cells → exact re-ranking of the short-list.  The
  build and :meth:`PQBasedMIPS.from_state` end in one assembly; only the
  build trains.

There is no accuracy guarantee — the paper includes it precisely as the
guarantee-free comparison point.
"""

from __future__ import annotations

from typing import NamedTuple

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
from repro.cluster.kmeans import assign_to_centers, kmeans
from repro.baselines.transforms import qnf_scale, qnf_transform_data, qnf_transform_query
from repro.core.engine import batch_inner_products, merge_topk_panels
from repro.core.rng import resolve_rng
from repro.spec import IndexSpec, register_method
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, VectorStore

__all__ = ["ProductQuantizer", "train_opq_rotation", "PQBasedMIPS"]


class ProductQuantizer:
    """Product quantizer over consecutive dimension chunks, constructed
    from trained codebooks (:meth:`train` fits them).

    Args:
        codebooks: one ``(n_centroids, width)`` codebook per subspace; the
            subspaces are consecutive chunks of ``sum(width)`` dimensions.
    """

    def __init__(self, codebooks: list[np.ndarray]) -> None:
        self.codebooks = [np.asarray(cb, dtype=np.float64) for cb in codebooks]
        if not self.codebooks or any(cb.ndim != 2 or 0 in cb.shape for cb in self.codebooks):
            raise ValueError("codebooks must be one or more non-empty 2-D arrays")
        bounds = np.cumsum([0] + [cb.shape[1] for cb in self.codebooks])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.dim = int(bounds[-1])
        self.n_subspaces = len(self.codebooks)

    @classmethod
    def train(
        cls, points: np.ndarray, n_subspaces: int, n_centroids: int, rng: np.random.Generator
    ) -> "ProductQuantizer":
        """Train one k-means codebook per subspace; ``n_subspaces`` is capped
        at the dimensionality and ``n_centroids`` at the number of points."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or 0 in points.shape:
            raise ValueError(f"points must be a non-empty (n, d) array, got {points.shape}")
        if n_subspaces <= 0 or n_centroids <= 0:
            raise ValueError("n_subspaces and n_centroids must be positive")
        n, dim = points.shape
        bounds = np.linspace(0, dim, min(int(n_subspaces), dim) + 1).astype(int)
        ks = min(int(n_centroids), n)
        return cls(
            [
                kmeans(points[:, a:b], ks, rng, max_iter=25).centers
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
        )

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Quantize points to ``(n, n_subspaces)`` centroid indices."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        codes = np.empty((points.shape[0], self.n_subspaces), dtype=np.uint16)
        for s, sl in enumerate(self._slices):
            codes[:, s] = assign_to_centers(points[:, sl], self.codebooks[s])
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct points from codes."""
        codes = np.atleast_2d(codes)
        out = np.empty((codes.shape[0], self.dim))
        for s, sl in enumerate(self._slices):
            out[:, sl] = self.codebooks[s][codes[:, s]]
        return out

    def adc_tables(self, query: np.ndarray) -> list[np.ndarray]:
        """Per-subspace squared-distance lookup tables for a query."""
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise ValueError(f"query has dimension {query.shape[0]}, expected {self.dim}")
        tables = []
        for s, sl in enumerate(self._slices):
            diff = self.codebooks[s] - query[sl][None, :]
            tables.append(np.einsum("ij,ij->i", diff, diff))
        return tables

    def adc_distances(self, codes: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
        """Asymmetric (query-to-code) squared distances via the tables."""
        codes = np.atleast_2d(codes)
        dists = np.zeros(codes.shape[0])
        for s in range(self.n_subspaces):
            dists += tables[s][codes[:, s]]
        return dists

    def size_bytes(self) -> int:
        """Codebook footprint (float32 accounting, as stored on disk)."""
        return sum(cb.size * 4 for cb in self.codebooks)


def train_opq_rotation(
    train: np.ndarray,
    n_subspaces: int,
    n_centroids: int,
    rng: np.random.Generator,
    n_iter: int = 3,
) -> np.ndarray:
    """Parametric OPQ: learn an orthogonal ``R`` minimizing quantization error.

    Alternates (1) fitting a PQ to ``train @ R`` and (2) solving the
    orthogonal Procrustes problem ``min_R ‖train·R − recon‖_F``, whose
    solution is ``R = U·Vᵀ`` for ``trainᵀ·recon = U·Σ·Vᵀ``.
    """
    train = np.asarray(train, dtype=np.float64)
    rotation = np.eye(train.shape[1])
    for _ in range(max(0, n_iter)):
        rotated = train @ rotation
        pq = ProductQuantizer.train(rotated, n_subspaces, n_centroids, rng)
        recon = pq.decode(pq.encode(rotated))
        u, _, vt = np.linalg.svd(train.T @ recon)
        rotation = u @ vt
    return rotation


class _Cell(NamedTuple):
    """One coarse cell's inverted list and its quantizer (the global one,
    with the identity rotation, unless the cell trained its own)."""

    member_ids: np.ndarray
    codes: np.ndarray
    rotation: np.ndarray
    pq: ProductQuantizer


def _stored_quantizer(state: dict[str, np.ndarray], prefix: str) -> ProductQuantizer:
    """The quantizer whose codebooks :meth:`PQBasedMIPS.state` stored as
    ``{prefix}cb0``, ``{prefix}cb1``, ..."""
    codebooks = []
    while f"{prefix}cb{len(codebooks)}" in state:
        codebooks.append(state[f"{prefix}cb{len(codebooks)}"])
    return ProductQuantizer(codebooks)


@register_method("pq", aliases=("PQ-Based", "PQBased", "PQBasedMIPS"))
class PQBasedMIPS:
    """The paper's PQ-based baseline: QNF reduction + LOPQ-style IVF search.

    Args:
        data: ``(n, d)`` dataset.
        rng: generator or seed.
        n_subspaces: PQ subspaces (paper: 16).
        n_centroids: codebook size per subspace (paper: 256).
        n_coarse: coarse-quantizer cells; ``None`` picks
            ``clip(n // 256, 8, 256)``.
        n_probe: probed cells per query (paper: 16).
        rerank: exact-verification short-list floor as a multiple of ``k``.
        rerank_fraction: additional short-list floor as a fraction of the
            ADC-scanned candidates.  The reproduced paper's PQ baseline
            verifies a large share of the probed points against the full
            vectors ("we have to check many PQ-encoded residuals, which
            incurs more page accesses"), which is what makes PQ the
            page-heaviest method in its Fig. 7 while staying the CPU-cheapest
            (Fig. 8).
        opq_iters: OPQ alternations per cell (0 disables local rotations).
        min_local_train: smallest cell that trains its own rotation+codebooks;
            smaller cells fall back to the global codebooks.
        page_size: page size for the accounting.
    """

    def __init__(
        self,
        data: np.ndarray,
        rng: np.random.Generator | int | None = None,
        n_subspaces: int = 16,
        n_centroids: int = 256,
        n_coarse: int | None = None,
        n_probe: int = 16,
        rerank: int = 10,
        rerank_fraction: float = 0.5,
        opq_iters: int = 2,
        min_local_train: int = 256,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        rng = resolve_rng(rng)
        data = validate_data(data)
        transformed, _ = qnf_transform_data(data)
        if n_coarse is None:
            n_coarse = int(np.clip(data.shape[0] // 256, 8, 256))
        coarse = kmeans(transformed, n_coarse, rng, max_iter=25)

        # Global fallback codebooks over all residuals.
        residuals = transformed - coarse.centers[coarse.labels]
        global_pq = ProductQuantizer.train(residuals, n_subspaces, n_centroids, rng)
        identity = np.eye(transformed.shape[1])

        cells = []
        for j in range(coarse.n_clusters):
            member_ids = coarse.cluster_members(j).astype(np.int64)
            cell_res = residuals[member_ids]
            rotation, pq = identity, global_pq
            if member_ids.size >= min_local_train and opq_iters > 0:
                rotation = train_opq_rotation(
                    cell_res, n_subspaces, n_centroids, rng, n_iter=opq_iters
                )
                pq = ProductQuantizer.train(
                    cell_res @ rotation, n_subspaces, n_centroids, rng
                )
            cells.append(_Cell(member_ids, pq.encode(cell_res @ rotation), rotation, pq))

        self._assemble(
            data, coarse.centers, global_pq, cells,
            n_centroids=n_centroids, n_probe=n_probe, rerank=rerank,
            rerank_fraction=rerank_fraction, opq_iters=opq_iters,
            min_local_train=min_local_train, page_size=page_size,
        )

    def _assemble(
        self, data: np.ndarray, coarse_centers: np.ndarray, global_pq: ProductQuantizer,
        cells: list[_Cell], *, n_centroids: int, n_probe: int, rerank: int,
        rerank_fraction: float, opq_iters: int, min_local_train: int, page_size: int,
    ) -> None:
        """The end of the build and of :meth:`from_state`: stores the trained
        parts and derives the rest — QNF scale, inverted-list pages, the store
        of the original vectors in inverted-list order, centre norms."""
        self._data = data
        self.n, self.dim = data.shape
        self.max_norm = qnf_scale(data)
        self.coarse_centers = coarse_centers
        self._global_pq = global_pq
        self.cells = cells
        self.n_coarse = len(cells)
        self.n_subspaces = global_pq.n_subspaces
        self.n_centroids = int(n_centroids)
        self.n_probe = int(n_probe)
        self.rerank = int(rerank)
        self.rerank_fraction = float(rerank_fraction)
        self.opq_iters = int(opq_iters)
        self.min_local_train = int(min_local_train)
        self.page_size = int(page_size)
        code_bytes_per_point = global_pq.n_subspaces * 2 + 4  # codes + id
        self._list_pages = [
            max(1, -(-int(cell.member_ids.size) * code_bytes_per_point // self.page_size))
            for cell in cells
        ]
        layout = np.concatenate([cell.member_ids for cell in cells])
        self._store = VectorStore(data, self.page_size, layout_order=layout, label="pq-orig")
        # ‖c_j‖² for the norm-expanded coarse scan of the batch path.
        self._center_norm_sq = np.einsum("ij,ij->i", coarse_centers, coarse_centers)

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "PQBasedMIPS":
        """Build from a spec, e.g. ``pq(n_subspaces=16, n_probe=16)``."""
        return cls(data, rng=resolve_rng(rng), **spec.params)

    def spec(self) -> IndexSpec:
        """Round-trippable config (``n_coarse`` resolved to the actual count)."""
        return IndexSpec(
            "pq",
            {
                "n_subspaces": self.n_subspaces,
                "n_centroids": self.n_centroids,
                "n_coarse": self.n_coarse,
                "n_probe": self.n_probe,
                "rerank": self.rerank,
                "rerank_fraction": self.rerank_fraction,
                "opq_iters": self.opq_iters,
                "min_local_train": self.min_local_train,
                "page_size": self.page_size,
            },
        )

    def state(self) -> dict[str, np.ndarray]:
        """Every trained artifact: coarse centroids, codebooks (global and
        per-cell), local rotations, codes, and inverted lists.

        PQ training is the one rng-heavy build in the repository, so unlike
        the hash-based methods its state stores the trained outputs rather
        than the seeds that produced them.
        """
        state: dict[str, np.ndarray] = {
            "data": self._data,
            "coarse_centers": self.coarse_centers,
            "cell_uses_global": np.array(
                [cell.pq is self._global_pq for cell in self.cells], dtype=np.uint8
            ),
        }
        for s, codebook in enumerate(self._global_pq.codebooks):
            state[f"global_cb{s}"] = codebook
        for j, cell in enumerate(self.cells):
            state[f"cell{j}_members"] = cell.member_ids
            state[f"cell{j}_codes"] = cell.codes
            if cell.pq is not self._global_pq:
                state[f"cell{j}_rotation"] = cell.rotation
                for s, codebook in enumerate(cell.pq.codebooks):
                    state[f"cell{j}_cb{s}"] = codebook
        return state

    @classmethod
    def from_state(cls, spec: IndexSpec, state: dict[str, np.ndarray]) -> "PQBasedMIPS":
        """Reconstruct without re-training (bit-identical ADC scans)."""
        data = validate_data(state["data"])
        coarse_centers = np.asarray(state["coarse_centers"], dtype=np.float64)
        global_pq = _stored_quantizer(state, "global_")
        identity = np.eye(coarse_centers.shape[1])
        cells = []
        for j, uses_global in enumerate(np.asarray(state["cell_uses_global"], dtype=bool)):
            rotation, pq = identity, global_pq
            if not uses_global:
                rotation = np.asarray(state[f"cell{j}_rotation"], dtype=np.float64)
                pq = _stored_quantizer(state, f"cell{j}_")
            member_ids = np.asarray(state[f"cell{j}_members"], dtype=np.int64)
            codes = np.asarray(state[f"cell{j}_codes"], dtype=np.uint16)
            cells.append(_Cell(member_ids, codes, rotation, pq))
        # n_subspaces and n_coarse are the counts of stored codebooks and cells.
        params = {k: v for k, v in spec.params.items() if k not in ("n_subspaces", "n_coarse")}
        self = cls.__new__(cls)
        self._assemble(data, coarse_centers, global_pq, cells, **params)
        return self

    def index_size_bytes(self) -> int:
        """Rotations + codebooks + codes + coarse centroids — the "many local
        rotation matrices and cells" the paper blames for PQ's index size."""
        total = self.coarse_centers.size * 4
        counted_global = False
        for cell in self.cells:
            if cell.pq is self._global_pq:
                if not counted_global:
                    total += self._global_pq.size_bytes()
                    counted_global = True
            else:
                total += cell.pq.size_bytes()
                total += cell.rotation.size * 4
            total += cell.codes.size * 2 + cell.member_ids.size * 4
        return total

    def search(self, query: np.ndarray, k: int = 1) -> SearchResult:
        """ADC search for one ``(d,)`` query: a one-row :meth:`search_many`."""
        query = validate_query(query, self.dim)
        return self.search_many(query[None, :], k=k)[0]

    def search_many(self, queries: np.ndarray, k: int = 1) -> BatchResult:
        """ADC search over the probed cells, then exact re-ranking.

        Batch-wide work runs vectorized: the coarse scan is one norm-expanded
        GEMM over all queries, and every probed cell computes its ADC
        distances for *all* queries that probe it at once — one lookup-table
        gather per subspace per cell instead of one per query.  The exact
        re-ranking of each query's short-list stays per query (short-lists
        rarely overlap).
        """
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        k = min(k, self.n)
        # Bound peak memory: the per-cell ADC accumulators scale with
        # (queries in flight) × (cell population), so the batch is processed
        # in blocks — bit-identity is unaffected (all scoring is per query
        # or per (cell, query)).
        block = 256
        results: list[SearchResult] = []
        for start in range(0, queries.shape[0], block):
            results.extend(self._search_block(queries[start : start + block], k))
        return BatchResult.from_results(results)

    def _search_block(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        n_q = queries.shape[0]
        q_ts = np.stack([qnf_transform_query(q, self.max_norm) for q in queries])

        # Coarse scan: ‖c‖² − 2⟨c, q⟩ + ‖q‖² through one shape-stable GEMM.
        coarse_ip = batch_inner_products(self.coarse_centers, q_ts)  # (n_c, n_q)
        qt_norm_sq = np.array([float(q_t @ q_t) for q_t in q_ts])
        coarse_d = self._center_norm_sq[:, None] - 2.0 * coarse_ip + qt_norm_sq[None, :]
        n_probe = min(self.n_probe, self.n_coarse)
        probe_order = np.argsort(coarse_d, axis=0, kind="stable")[:n_probe]
        probes = [probe_order[:, i] for i in range(n_q)]

        # Group queries by probed cell, then run each cell's ADC scan for all
        # of its queries in one accumulation pass over the inverted list.
        cell_queries: dict[int, list[int]] = {}
        for i, probe in enumerate(probes):
            for j in probe.tolist():
                if self.cells[j].member_ids.size:
                    cell_queries.setdefault(j, []).append(i)

        cell_dists: dict[tuple[int, int], np.ndarray] = {}
        for j, q_idx in cell_queries.items():
            cell = self.cells[j]
            codes = cell.codes
            tables = []
            for i in q_idx:
                q_res = (q_ts[i] - self.coarse_centers[j]) @ cell.rotation
                tables.append(cell.pq.adc_tables(q_res))
            acc = np.zeros((len(q_idx), codes.shape[0]))
            for s in range(cell.pq.n_subspaces):
                table_s = np.stack([t[s] for t in tables])  # (n_qj, k_s)
                acc += table_s[:, codes[:, s]]
            for row, i in enumerate(q_idx):
                cell_dists[(j, i)] = acc[row]

        results: list[SearchResult] = []
        for i in range(n_q):
            query = queries[i]
            approx_ids: list[np.ndarray] = []
            approx_dists: list[np.ndarray] = []
            code_pages = 0
            for j in probes[i].tolist():
                cell = self.cells[j]
                if cell.member_ids.size == 0:
                    continue
                code_pages += self._list_pages[j]
                approx_ids.append(cell.member_ids)
                approx_dists.append(cell_dists[(j, i)])

            if approx_ids:
                all_ids = np.concatenate(approx_ids)
                all_dists = np.concatenate(approx_dists)
            else:  # pragma: no cover - probe always finds non-empty cells
                all_ids = np.empty(0, dtype=np.int64)
                all_dists = np.empty(0)

            shortlist = max(
                self.rerank * k, int(self.rerank_fraction * all_ids.size), k
            )
            shortlist = min(shortlist, all_ids.size)
            part = (
                np.argpartition(all_dists, shortlist - 1)[:shortlist]
                if shortlist
                else []
            )
            reader = self._store.reader()
            short_ids = all_ids[part]
            vecs = reader.get_many(short_ids)
            top_ids, top_ips = merge_topk_panels(
                [short_ids[None, :]], [(vecs @ query)[None, :]], k
            )
            stats = SearchStats(
                pages=code_pages + reader.pages_touched,
                candidates=int(all_ids.size),
                extras={"cells_probed": int(len(probes[i])), "reranked": int(shortlist)},
            )
            results.append(SearchResult(ids=top_ids[0], scores=top_ips[0], stats=stats))
        return results

    def __repr__(self) -> str:
        return (
            f"PQBasedMIPS(n={self.n}, d={self.dim}, cells={self.n_coarse}, "
            f"subspaces={self._global_pq.n_subspaces}, probe={self.n_probe})"
        )
