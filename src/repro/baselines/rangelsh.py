"""Norm Ranging-LSH (Yan et al., NeurIPS 2018) — benchmark method 2.

Simple-LSH normalizes by the *global* maximum norm, so datasets with
long-tailed 2-norm distributions squash most points onto a tiny cap of the
unit sphere ("excessive normalization").  Range-LSH fixes this by splitting
the dataset into sub-datasets by *norm rank* (32 equal-size partitions under
a 16-bit code length in the paper's experiments), applying Simple-LSH with
the *local* maximum norm ``U_j`` inside each, and sharing one set of SimHash
hyperplanes across sub-datasets.

Probing uses the single-table multi-probe strategy the paper credits for
Range-LSH's low page accesses: every (sub-dataset ``j``, Hamming level ``h``)
bucket has the inner-product upper bound

    ``bound(j, h) = U_j · ‖q‖ · cos(π·h / b)``

and buckets are probed in descending bound order, stopping when the running
k-th best inner product reaches ``c``·bound of the next bucket (or a
candidate budget runs out).  Data are organized on disk sequentially per
sub-dataset in descending ``U_j`` order, exactly as the reproduced paper
describes its Range-LSH setup.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    BatchResult,
    SearchResult,
    SearchStats,
    validate_k,
    validate_queries,
    validate_query,
    validate_data,
)
from repro.baselines.simhash import SimHash, hamming_distance
from repro.baselines.transforms import (
    simple_lsh_transform_data,
    simple_lsh_transform_query,
)
from repro.core.engine import TopK
from repro.core.rng import resolve_rng
from repro.spec import IndexSpec, register_method
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, VectorStore

__all__ = ["RangeLSH"]

_CODE_BYTES = 2  # 16-bit codes in the paper's configuration


@register_method("rangelsh", aliases=("Range-LSH", "RangeLSH", "NormRangingLSH"))
class RangeLSH:
    """Norm-ranging LSH with shared SimHash codes and bound-ordered probing.

    Args:
        data: ``(n, d)`` dataset.
        c: MIPS approximation ratio used by the probe-termination bound.
        n_parts: number of norm-rank sub-datasets (paper: 32).
        n_bits: SimHash code length (paper: 16).
        rng: generator for the hyperplanes.
        page_size: page size for the accounting.
        candidate_fraction: hard verification budget as a fraction of ``n``
            (the bound-based stop usually fires first).
        hyperplanes: pre-drawn hyperplane matrix (persistence path); when
            given, ``rng`` is unused.
    """

    def __init__(
        self,
        data: np.ndarray,
        rng: np.random.Generator | int | None = None,
        c: float = 0.9,
        n_parts: int = 32,
        n_bits: int = 16,
        page_size: int = DEFAULT_PAGE_SIZE,
        candidate_fraction: float = 0.1,
        hyperplanes: np.ndarray | None = None,
    ) -> None:
        if not 0.0 < c < 1.0:
            raise ValueError(f"approximation ratio must satisfy 0 < c < 1, got {c}")
        if n_parts <= 0:
            raise ValueError(f"n_parts must be positive, got {n_parts}")
        if not 0.0 < candidate_fraction <= 1.0:
            raise ValueError(
                f"candidate_fraction must be in (0, 1], got {candidate_fraction}"
            )
        data = validate_data(data)
        self._data = data
        self.n, self.dim = data.shape
        self.c = float(c)
        self.n_bits = int(n_bits)
        self.page_size = int(page_size)
        self.candidate_fraction = float(candidate_fraction)

        norms = np.linalg.norm(data, axis=1)
        desc = np.argsort(-norms, kind="stable")
        self._subset_ids = [ids.astype(np.int64) for ids in np.array_split(desc, n_parts)
                            if ids.size]
        self.n_parts = len(self._subset_ids)
        self.simhash = SimHash(
            self.dim + 1, n_bits, resolve_rng(rng), hyperplanes=hyperplanes
        )

        self._subset_codes: list[np.ndarray] = []
        self._subset_max_norm = np.empty(self.n_parts)
        for j, ids in enumerate(self._subset_ids):
            local_max = float(norms[ids].max())
            transformed, used = simple_lsh_transform_data(data[ids], local_max or None)
            self._subset_max_norm[j] = used
            self._subset_codes.append(self.simhash.encode(transformed))

        # Disk layout: sub-datasets sequential, in descending max-norm order
        # (= descending norm order overall, since subsets are rank ranges).
        self._store = VectorStore(data, page_size, layout_order=desc)
        self._code_pages = [
            -(-ids.size * _CODE_BYTES // page_size) for ids in self._subset_ids
        ]

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "RangeLSH":
        """Build from a spec, e.g. ``rangelsh(c=0.9, n_parts=32, n_bits=16)``."""
        return cls(data, rng=resolve_rng(rng), **spec.params)

    def spec(self) -> IndexSpec:
        return IndexSpec(
            "rangelsh",
            {
                "c": self.c,
                "n_parts": self.n_parts,
                "n_bits": self.n_bits,
                "page_size": self.page_size,
                "candidate_fraction": self.candidate_fraction,
            },
        )

    def state(self) -> dict[str, np.ndarray]:
        """Data + shared hyperplanes; partition and codes re-derive exactly
        (the norm ranking and the sign projections are deterministic)."""
        return {"data": self._data, "hyperplanes": self.simhash.hyperplanes}

    @classmethod
    def from_state(cls, spec: IndexSpec, state: dict[str, np.ndarray]) -> "RangeLSH":
        return cls(
            np.asarray(state["data"], dtype=np.float64),
            hyperplanes=np.asarray(state["hyperplanes"], dtype=np.float64),
            **spec.params,
        )

    def index_size_bytes(self) -> int:
        """Bit vectors (b bits per point) + hyperplanes + subset metadata."""
        codes = self.n * _CODE_BYTES
        return codes + self.simhash.size_bytes() + self._subset_max_norm.nbytes

    def search(self, query: np.ndarray, k: int = 1) -> SearchResult:
        """Top-k for one ``(d,)`` query: a one-row :meth:`search_many`."""
        query = validate_query(query, self.dim)
        return self.search_many(query[None, :], k=k)[0]

    def search_many(self, queries: np.ndarray, k: int = 1) -> BatchResult:
        """c-k-AMIP search by probing (subset, Hamming-level) buckets.

        A per-query loop: each query's bucket walk stops at its own bound or
        budget, so there is no batch-wide work to share.
        """
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        k = min(k, self.n)
        return BatchResult.from_results([self._search_one(q, k) for q in queries])

    def _search_one(self, query: np.ndarray, k: int) -> SearchResult:
        q_norm = float(np.linalg.norm(query))
        q_code = int(self.simhash.encode(simple_lsh_transform_query(query)))

        # Rank every non-empty (subset, hamming level) bucket by its bound.
        buckets: list[tuple[float, int, int]] = []  # (-bound, subset, level)
        hammings: list[np.ndarray] = []
        probed_subsets: set[int] = set()
        for j, codes in enumerate(self._subset_codes):
            hammings.append(hamming_distance(codes, q_code))
        levels = np.cos(np.pi * np.arange(self.n_bits + 1) / self.n_bits)
        for j in range(self.n_parts):
            counts = np.bincount(hammings[j], minlength=self.n_bits + 1)
            for h in np.flatnonzero(counts):
                bound = self._subset_max_norm[j] * q_norm * float(levels[h])
                buckets.append((-bound, j, h))
        buckets.sort(key=lambda t: t[0])

        topk = TopK(k)
        reader = self._store.reader()
        candidates = 0
        code_pages = 0
        # The verification budget scales with both the dataset (fraction)
        # and the request size: k=100 needs proportionally more probes than
        # k=10 to keep the recall band of the paper's Fig. 6.
        budget = max(int(self.candidate_fraction * self.n), 12 * k)
        buckets_probed = 0

        for neg_bound, j, h in buckets:
            bound = -neg_bound
            # The SimHash cosine bound is an estimate, not a certificate: it
            # ranks the probing sequence (descending bound), while
            # termination is budget-driven as in the released Range-LSH
            # implementation.  A zero-or-negative bound can only be reached
            # once every positive-estimate bucket was probed.
            if topk.full and bound <= 0.0:
                break
            if candidates >= budget:
                break
            buckets_probed += 1
            if j not in probed_subsets:
                probed_subsets.add(j)
                code_pages += self._code_pages[j]
            member_mask = hammings[j] == h
            gids = self._subset_ids[j][member_mask]
            vecs = reader.get_many(gids)
            ips = vecs @ query
            candidates += len(gids)
            for gid, ip in zip(gids.tolist(), ips.tolist()):
                topk.offer(ip, gid)

        ids, ips = topk.result()
        stats = SearchStats(
            pages=reader.pages_touched + code_pages,
            candidates=candidates,
            extras={
                "buckets_probed": buckets_probed,
                "subsets_probed": len(probed_subsets),
            },
        )
        return SearchResult(ids=ids, scores=ips, stats=stats)

    def __repr__(self) -> str:
        return (
            f"RangeLSH(n={self.n}, d={self.dim}, parts={self.n_parts}, "
            f"bits={self.n_bits})"
        )
