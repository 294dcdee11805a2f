"""Shared batch query engine: shape-stable GEMMs, top-k, candidate verification.

Every index in this repository has one query implementation,
``search_many(Q, k)``; ``search(q, k)`` is its one-row batch.  So a batch
answers exactly what looping ``search`` would if and only if row ``i`` does
not depend on the rest of its batch — a property the parity tests assert
exactly, and the one these kernels exist to keep.

Achieving that with a BLAS back-end needs care: BLAS picks kernels (and with
them accumulation orders) from the full problem *shape*, so ``X @ q``
(GEMV), column ``i`` of ``X @ Q.T``, and the same column inside a wider
batch can each disagree in the last ulp — which widths agree turns out to be
an unprincipled function of every dimension involved.  What *is* reliable is
that a GEMM of one fixed shape is deterministic, and each output element
depends only on its own row and column operands — position within the panel
and the other columns' contents don't matter.

The engine therefore computes every shared inner-product pass through
:func:`batch_inner_products`, which always issues GEMMs of one fixed shape:
``(n, d) @ (d, GEMM_PANEL)``, zero-padding the last (or only) panel.  A lone
query and a 10k-row batch hit byte-identical kernel invocations, which is
what makes the batch path exact rather than merely close.

The engine is also the one owner of the answer order.  Every method ranks
its answer by ``(-score, id)`` — descending inner product, ties by ascending
id — and its top-k is the first ``k`` in that order, in one of three shapes:
:func:`batch_topk` for dense score rows (the exact scan, ground truth),
:func:`merge_topk_panels` for candidate panels with explicit ids (shard and
delta merges, re-ranked short-lists), and :class:`TopK` for candidates that
stream in (MIP-Search-I/II, the LSH baselines).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.api import BatchResult, validate_k
from repro.index.ring_idistance import DistanceOrder

__all__ = [
    "GEMM_PANEL",
    "MERGE_SENTINEL",
    "batch_inner_products",
    "project_batch",
    "batch_topk",
    "merge_topk_panels",
    "TopK",
    "VERIFY_CHUNK",
    "BLOCK_CHUNKS",
    "CandidateVerifier",
]

# Fixed GEMM panel width.  Every shared scoring/projection product runs as
# (n, d) @ (d, GEMM_PANEL) regardless of batch size, so results cannot
# depend on how many queries shared a batch.  16 trades a modest padded
# single-query overhead (~1.3× a GEMV — both stream the same (n, d) block)
# for 16-way data reuse on batches, where the exact scan's throughput
# comes from.
GEMM_PANEL = 16


def batch_inner_products(vectors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """All pairwise inner products ``⟨vectors_i, queries_j⟩`` as ``(n, n_q)``.

    Computed in column orientation as fixed-shape panels of
    :data:`GEMM_PANEL` queries (last panel zero-padded), so column ``i`` is
    bit-identical no matter the batch size or the query's position in it.

    Args:
        vectors: ``(n, d)`` data block.
        queries: ``(n_q, d)`` query block (``(d,)`` accepted for one query).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_q, dim = queries.shape
    out = np.empty((vectors.shape[0], n_q))
    for start in range(0, n_q, GEMM_PANEL):
        width = min(GEMM_PANEL, n_q - start)
        panel = np.zeros((GEMM_PANEL, dim))
        panel[:width] = queries[start : start + width]
        out[:, start : start + width] = (vectors @ panel.T)[:, :width]
    return out


def project_batch(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Project queries through an ``(m, d)`` matrix as one GEMM: ``(n_q, m)``.

    Row ``i`` equals the projection the engine computes for query ``i`` alone
    (column orientation + width padding, see module docstring).
    """
    return np.ascontiguousarray(batch_inner_products(matrix, queries).T)


def batch_topk(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k of an ``(n_q, n)`` score matrix → ``(n_q, k')`` arrays.

    Row ``i`` is the first ``k`` of ``scores[i]`` in the ``(-score, id)``
    order, i.e. ``lexsort((ids, -scores[i]))[:k]``: one axis-wise
    argpartition picks a short-list, one axis-wise lexsort orders it.
    """
    scores = np.atleast_2d(scores)
    n_q, n = scores.shape
    k = validate_k(k)
    k = min(k, n)
    # One fused pass materialises the (usually transposed-GEMM) input as a
    # C-contiguous *negated* copy — argpartition then needs no second
    # temporary, and negation is exact so the selection matches
    # ``argpartition(-scores)`` bit for bit.
    neg = np.negative(scores, order="C")
    part = np.argpartition(neg, k - 1, axis=1)[:, :k]
    neg_part = np.take_along_axis(neg, part, axis=1)
    # argpartition keeps an arbitrary subset of the values tied at the cut.
    # Where the k-th value also occurs outside the short-list, rebuild the
    # row's short-list from everything strictly better plus the lowest ids
    # among the tied.
    cut = neg_part.max(axis=1, keepdims=True)
    for row in np.flatnonzero(
        np.count_nonzero(neg == cut, axis=1) > np.count_nonzero(neg_part == cut, axis=1)
    ):
        better = np.flatnonzero(neg[row] < cut[row])
        tied = np.flatnonzero(neg[row] == cut[row])[: k - better.size]
        part[row] = np.concatenate((better, tied))
        neg_part[row] = neg[row, part[row]]
    order = np.lexsort((part, neg_part), axis=1)
    ids = np.take_along_axis(part, order, axis=1).astype(np.int64)
    out = -np.take_along_axis(neg_part, order, axis=1)
    return ids, out.astype(np.float64)


# Dead/padded candidate slots carry this id so they sort after every real
# candidate under the (-score, id) order; merge_topk_panels re-masks any
# that survive the cut back to BatchResult.PAD_ID.
MERGE_SENTINEL = np.iinfo(np.int64).max


def merge_topk_panels(
    id_blocks: list[np.ndarray],
    score_blocks: list[np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k across concatenated ``(n_q, k_i)`` candidate panels.

    The composite indexes (sharded cross-shard merge, dynamic
    indexed+delta merge) each gather several per-source candidate panels
    per query and need the best ``k`` of their union in the engine's
    ``(-score, id)`` total order — one axis-wise lexsort over the stacked
    panels instead of a per-query Python loop.  Dead slots (tombstoned
    candidates, under-filled approximate answers) must arrive pre-masked as
    ``(MERGE_SENTINEL, -inf)``; they sort last, and any that survive the
    cut come back as :data:`repro.api.BatchResult.PAD_ID` / ``-inf``.

    Args:
        id_blocks: per-source ``(n_q, k_i)`` id panels.
        score_blocks: matching score panels.
        k: results per query (``k <= sum(k_i)``).

    Returns:
        ``(ids, scores)`` arrays of shape ``(n_q, k)``.
    """
    id_panel = np.hstack(id_blocks)
    score_panel = np.hstack(score_blocks)
    order = np.lexsort((id_panel, -score_panel), axis=-1)[:, :k]
    top_ids = np.take_along_axis(id_panel, order, axis=-1)
    top_scores = np.take_along_axis(score_panel, order, axis=-1)
    top_ids[top_ids == MERGE_SENTINEL] = BatchResult.PAD_ID
    return top_ids, top_scores


class TopK:
    """Running top-k inner products of one query, in the ``(-score, id)`` order.

    A min-heap keyed ``(ip, -id)``: its root is the worst kept candidate —
    the lowest score and, among equal scores, the highest id.  A candidate
    enters when the heap has room or when its key beats the root's, so the
    kept set is the first ``k`` offers in the ``(-score, id)`` order whatever
    order they came in; :meth:`result` lists them in that order.  Callers
    offer each id at most once per query: the ring's range searches report
    every slot once and MIP-Search-II's annuli are disjoint, and the LSH
    baselines' buckets and shells partition the points.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: list[tuple[float, int]] = []

    def offer(self, ip: float, pid: int) -> None:
        entry = (ip, -pid)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def offer_block(self, ids: np.ndarray, ips: np.ndarray, first_stop) -> int:
        """Offer ``(ips[i], ids[i])`` in order until a stop; return its position.

        Equivalent to :meth:`offer` at every position in turn, asking after
        each offer made on a full heap whether to stop; the heap ends exactly
        as those offers leave it.  The question is ``first_stop(kth, lo,
        hi)``: the first position in ``[lo, hi)`` to stop at while the k-th
        best stays ``kth``, or ``hi`` for none.

        Only *records* — candidates that beat the worst kept one: a higher
        score, or the k-th best score with a lower id — change the heap;
        between two of them the k-th best is constant (and a tied record
        leaves it as it was).  So Python walks the records and hands each
        stretch between them to ``first_stop`` whole.  Returns ``len(ids)``
        when no position stops.
        """
        heap = self._heap
        n = ids.size
        # Until the heap is full every candidate is pushed and nothing is
        # asked: at most k offers one by one.
        pos = 0
        while pos < n and len(heap) < self.k:
            heapq.heappush(heap, (float(ips[pos]), -int(ids[pos])))
            pos += 1
            if len(heap) == self.k and first_stop(heap[0][0], pos - 1, pos) < pos:
                return pos - 1
        if len(heap) < self.k:
            return n
        kth, neg_id = heap[0]
        # Positions that may still be records.  Beating the worst kept
        # candidate only gets harder as it rises, so the pool only ever
        # shrinks.
        pool = np.arange(pos, n)
        while True:
            pool = pool[ips[pool] >= kth]
            nxt = int(pool[0]) if pool.size else n
            pool = pool[1:]
            # A tie at the k-th score is a record only with a lower id than
            # the worst kept one's; the rest join the stretch.
            if nxt < n and ips[nxt] == kth and ids[nxt] > -neg_id:
                continue
            if nxt > pos:
                hit = first_stop(kth, pos, nxt)
                if hit < nxt:
                    return hit
            if nxt == n:
                return n
            heapq.heapreplace(heap, (float(ips[nxt]), -int(ids[nxt])))
            kth, neg_id = heap[0]
            if first_stop(kth, nxt, nxt + 1) == nxt:
                return nxt
            pos = nxt + 1

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    @property
    def kth_ip(self) -> float:
        """Smallest collected inner product: the k-th best once :attr:`full`,
        −inf while empty."""
        if not self._heap:
            return -math.inf
        return self._heap[0][0]

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        ranked = sorted(self._heap, reverse=True)
        ids = np.array([-neg_id for _, neg_id in ranked], dtype=np.int64)
        ips = np.array([ip for ip, _ in ranked], dtype=np.float64)
        return ids, ips


# CandidateVerifier's unit of both the inner-product GEMV and page charging,
# and the chunks per block: a block bounds the vectors held at once (2048)
# while keeping per-block numpy overhead small.
VERIFY_CHUNK = 32
BLOCK_CHUNKS = 64


class CandidateVerifier:
    """Blocked exact verification with the ProMIPS stopping conditions.

    Owns the Theorem 1/2 incremental traversal shared by ``search`` and
    ``search_many``: offer candidates to the running top-k in ascending
    projected distance and stop at the first candidate after whose offer
    Condition A or B of the query's
    :class:`~repro.core.conditions.StoppingRule` holds against the *updated*
    k-th best.  Candidates arrive in the range search's slot order; the
    verifier orders them by distance itself, ties in arrival order, and only
    as far as it reads: a :class:`~repro.index.ring_idistance.DistanceOrder`
    prefix of four blocks, doubled whenever the blocks run past it.

    Candidates run in blocks of up to :data:`BLOCK_CHUNKS` chunks of
    :data:`VERIFY_CHUNK` candidates.  The chunk is the unit of both the
    inner-product GEMV and page charging: a block's vectors are multiplied
    as a stacked ``(chunks, 32, d) @ q``, which issues one ``(32, d)`` GEMV
    per chunk (bit-identical to multiplying each chunk alone, which one
    ``(rows, d)`` GEMV need not be — BLAS may pick kernels by row count),
    and the pages of exactly ``ceil(verified / 32)`` chunks are charged.

    Each block goes to :meth:`TopK.offer_block`, which walks only the
    *record* candidates — those that beat the worst kept one — in Python.
    Between two records the k-th best is constant, so Condition A cannot
    newly fire and Condition B's first firing is one ``searchsorted`` of its
    threshold over the non-decreasing ``dis²``.
    """

    __slots__ = ()

    def _block_ips(
        self, vectors: np.ndarray, ids: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        """Inner products of ``vectors[ids]`` with ``query``, chunk-aligned:
        every full chunk is one ``(VERIFY_CHUNK, d)`` GEMV of a stacked
        matmul and a trailing partial chunk its own GEMV."""
        chunk = VERIFY_CHUNK
        full = ids.size - ids.size % chunk
        out = np.empty(ids.size)
        rows = np.take(vectors, ids, axis=0)
        if full:
            stacked = rows[:full].reshape(full // chunk, chunk, -1)
            out[:full] = np.matmul(stacked, query).ravel()
        if full < ids.size:
            out[full:] = rows[full:] @ query
        return out

    def verify(
        self,
        topk: TopK,
        ids: np.ndarray,
        dists: np.ndarray,
        query: np.ndarray,
        orig_reader,
        rule,
    ) -> tuple[str | None, int]:
        """Verify candidates in ascending projected-distance order.

        Returns ``(fired_condition, points_verified)`` where
        ``fired_condition`` is ``"condition_a"``, ``"condition_b"`` or None,
        as decided by ``rule`` (the query's
        :class:`~repro.core.conditions.StoppingRule`).  ``ids`` and ``dists``
        may come in any order (:meth:`RingIDistance.range_search` returns
        slot order); they are verified in the stable ascending order of
        ``dists``, which is built only as far as verification reads.
        """
        chunk = VERIFY_CHUNK
        block = chunk * BLOCK_CHUNKS
        vectors = orig_reader.vectors
        order = DistanceOrder(dists)
        for start in range(0, ids.size, block):
            head = order.head(start + block)[start:]
            block_ids = ids[head]
            block_dists = dists[head]

            def first_stop(kth, lo, hi, dist_sq=block_dists * block_dists):
                # Condition A holds at lo or nowhere; Condition B first
                # holds where the non-decreasing dis² reaches its threshold.
                if rule.condition_a(kth):
                    return lo
                return lo + int(dist_sq[lo:hi].searchsorted(rule.b_threshold(kth)))

            ips = self._block_ips(vectors, block_ids, query)
            pos = topk.offer_block(block_ids, ips, first_stop)
            if pos < block_ids.size:
                consumed = -(-(pos + 1) // chunk) * chunk
                orig_reader.charge(block_ids[:consumed])
                fired = "condition_a" if rule.condition_a(topk.kth_ip) else "condition_b"
                return fired, start + pos + 1
            orig_reader.charge(block_ids)
        return None, ids.size
