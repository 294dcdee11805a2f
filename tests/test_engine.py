"""Tests for repro.core.engine — the shared batch kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    GEMM_PANEL,
    CandidateVerifier,
    TopK,
    batch_inner_products,
    batch_topk,
    project_batch,
    topk_ids_scores,
)
from repro.stats.chi2 import ChiSquare
from repro.storage.pagefile import VectorStore


@pytest.fixture(scope="module")
def blocks():
    gen = np.random.default_rng(42)
    data = gen.standard_normal((500, 19))
    queries = gen.standard_normal((64, 19))
    return data, queries


class TestBatchInnerProducts:
    def test_values_match_reference(self, blocks):
        data, queries = blocks
        out = batch_inner_products(data, queries)
        assert out.shape == (500, 64)
        assert np.allclose(out, data @ queries.T)

    def test_columns_invariant_to_batch_width(self, blocks):
        """The bit-identity keystone: a query's scores must not depend on how
        many other queries shared its GEMM, nor where in a panel it sat."""
        data, queries = blocks
        full = batch_inner_products(data, queries)
        for width in (1, 2, 3, GEMM_PANEL, GEMM_PANEL + 1, 17):
            sub = batch_inner_products(data, queries[:width])
            assert np.array_equal(sub, full[:, :width]), f"width {width} diverged"

    def test_columns_invariant_at_hostile_shapes(self):
        """Shapes where raw variable-width GEMMs demonstrably diverge on
        OpenBLAS (e.g. 512×64 data) must stay invariant under the fixed-panel
        scheme."""
        gen = np.random.default_rng(5)
        for n, d in [(512, 64), (32, 49), (5, 64)]:
            data = gen.standard_normal((n, d))
            queries = gen.standard_normal((300, d))
            full = batch_inner_products(data, queries)
            for i in (0, 1, GEMM_PANEL - 1, GEMM_PANEL, 137, 299):
                one = batch_inner_products(data, queries[i])
                assert np.array_equal(one[:, 0], full[:, i]), (n, d, i)

    def test_single_query_padding(self, blocks):
        data, queries = blocks
        one = batch_inner_products(data, queries[0])
        assert one.shape == (500, 1)
        assert np.array_equal(one[:, 0], batch_inner_products(data, queries)[:, 0])

    def test_panel_constant(self):
        assert GEMM_PANEL >= 2


class TestProjectBatch:
    def test_rows_invariant_to_batch_size(self, blocks):
        _, queries = blocks
        matrix = np.random.default_rng(7).standard_normal((5, 19))
        full = project_batch(matrix, queries)
        assert full.shape == (64, 5)
        one = project_batch(matrix, queries[:1])
        assert np.array_equal(one[0], full[0])
        assert np.allclose(full, queries @ matrix.T)


class TestTopk:
    def test_matches_sort_reference(self):
        gen = np.random.default_rng(0)
        ips = gen.standard_normal(200)
        ids, scores = topk_ids_scores(ips, 10)
        ref = np.argsort(-ips, kind="stable")[:10]
        assert np.array_equal(ids, ref)
        assert np.array_equal(scores, ips[ref])

    def test_ties_break_by_ascending_id(self):
        ips = np.array([1.0, 2.0, 2.0, 1.0, 2.0])
        ids, _ = topk_ids_scores(ips, 3)
        assert ids.tolist() == [1, 2, 4]

    def test_k_capped_at_n(self):
        ids, scores = topk_ids_scores(np.array([3.0, 1.0]), 10)
        assert ids.tolist() == [0, 1]

    def test_batch_rows_match_single(self):
        gen = np.random.default_rng(3)
        scores = gen.standard_normal((7, 150))
        ids, out = batch_topk(scores, 9)
        assert ids.shape == (7, 9)
        for i in range(7):
            ref_ids, ref_scores = topk_ids_scores(scores[i], 9)
            assert np.array_equal(ids[i], ref_ids)
            assert np.array_equal(out[i], ref_scores)


class TestTopKHeap:
    def test_tracks_kth_and_dedupes(self):
        topk = TopK(2)
        assert topk.kth_ip == -np.inf
        topk.offer(1.0, 0)
        topk.offer(3.0, 1)
        topk.offer(3.0, 1)  # duplicate id ignored
        assert topk.full
        assert topk.kth_ip == 1.0
        topk.offer(2.0, 2)
        ids, ips = topk.result()
        assert ids.tolist() == [1, 2]
        assert ips.tolist() == [3.0, 2.0]


def reference_verify(chi2, max_norm_sq, topk, ids, dists, query, orig_reader,
                     c, p, q_norm_sq, chunk=32):
    """The per-candidate loop :meth:`CandidateVerifier.verify` replaced:
    fetch and multiply one chunk at a time, then offer every candidate and
    test both conditions after each offer."""
    quantile = chi2.ppf(p)
    base = max_norm_sq + q_norm_sq
    cond_a_threshold = 0.5 * c * base
    verified = 0
    for start in range(0, ids.size, chunk):
        chunk_ids = ids[start : start + chunk]
        vecs = orig_reader.get_many(chunk_ids)
        ips = vecs @ query
        for pid, dist, ip in zip(
            chunk_ids.tolist(), dists[start : start + chunk].tolist(), ips.tolist()
        ):
            verified += 1
            topk.offer(ip, pid)
            if not topk.full:
                continue
            kth = topk.kth_ip
            if kth >= cond_a_threshold:
                return "condition_a", verified
            if dist * dist >= quantile * (base - 2.0 * kth / c):
                return "condition_b", verified
    return None, verified


def _verify_case(seed, n, k, dim, page_size, *, integer_data=False,
                 tied_dists=False, repeated_ids=False, split=0, c=0.9, p=0.5,
                 norm_factor=1.0, dist_scale=1.0):
    """Run ``verify`` and the reference on the same candidates (optionally
    as two calls sharing one TopK, like the compensation loop) and require
    identical outcomes, top-k state and page counts; returns the outcomes."""
    gen = np.random.default_rng(seed)
    n_points = n + 50
    if integer_data:
        data = gen.integers(-3, 4, size=(n_points, dim)).astype(np.float64)
        query = gen.integers(-3, 4, size=dim).astype(np.float64)
    else:
        data = gen.standard_normal((n_points, dim))
        query = gen.standard_normal(dim)
    store = VectorStore(data, page_size=page_size, layout_order=gen.permutation(n_points))
    if repeated_ids:
        ids = gen.integers(0, n_points, size=n)
    else:
        ids = gen.permutation(n_points)[:n]
    chi2 = ChiSquare(6)
    q_norm_sq = float(query @ query)
    max_norm_sq = norm_factor * float(np.einsum("ij,ij->i", data, data).max())
    reach = dist_scale * np.sqrt(chi2.ppf(p) * max(max_norm_sq + q_norm_sq, 1.0))
    if tied_dists:
        dists = np.sort(gen.integers(0, 12, size=n) * (reach / 10))
    else:
        dists = np.sort(gen.uniform(0.0, reach, size=n))

    verifier = CandidateVerifier(chi2, max_norm_sq)
    new_topk, ref_topk = TopK(k), TopK(k)
    new_reader, ref_reader = store.reader(), store.reader()
    outcomes = []
    for lo, hi in ((0, split), (split, n)):
        got = verifier.verify(new_topk, ids[lo:hi], dists[lo:hi], query,
                              new_reader, c, p, q_norm_sq)
        want = reference_verify(chi2, max_norm_sq, ref_topk, ids[lo:hi],
                                dists[lo:hi], query, ref_reader, c, p, q_norm_sq)
        assert got == want
        outcomes.append(got)
        new_ids, new_ips = new_topk.result()
        ref_ids, ref_ips = ref_topk.result()
        assert np.array_equal(new_ids, ref_ids)
        assert np.array_equal(new_ips, ref_ips)
        assert new_topk._seen == ref_topk._seen
        assert new_reader.pages_touched == ref_reader.pages_touched
        assert np.array_equal(new_reader._touched, ref_reader._touched)
    return outcomes


class TestCandidateVerifier:
    """The blocked, record-driven ``verify`` against the per-candidate loop
    it replaced.  Also the guard for the chunk-aligned GEMV: if a numpy or
    BLAS change made the stacked ``(chunks, 32, d) @ q`` disagree with a
    per-chunk ``(32, d) @ q``, the scores here stop matching."""

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 2048, 2049, 4200])
    def test_exhaustion_matches_reference(self, n):
        # Huge ‖oM‖² keeps both conditions out of reach: every candidate is
        # verified and every chunk charged.
        outcomes = _verify_case(n, n, 10, 64, 1000, norm_factor=1e6, dist_scale=1e-3)
        assert outcomes[-1] == (None, n)

    @pytest.mark.parametrize("n", [33, 700, 4200])
    def test_condition_a_matches_reference(self, n):
        outcomes = _verify_case(n, n, 5, 16, 4096, c=0.05, norm_factor=0.0,
                                dist_scale=1e-3)
        assert outcomes[-1][0] == "condition_a"

    @pytest.mark.parametrize("n", [100, 2100, 4200])
    def test_condition_b_matches_reference(self, n):
        outcomes = _verify_case(n, n, 10, 64, 4096, dist_scale=1.5)
        assert outcomes[-1][0] == "condition_b"

    def test_condition_b_in_a_later_block(self):
        fired, verified = _verify_case(3, 6000, 10, 6, 4096)[-1]
        assert fired == "condition_b" and verified > 2 * 2048

    def test_prefilled_topk_compensation_call(self):
        # A first call fills the TopK; the second continues from it.
        outcomes = _verify_case(11, 3000, 10, 64, 1000, split=40,
                                norm_factor=1e6, dist_scale=1e-3)
        assert outcomes == [(None, 40), (None, 2960)]

    @pytest.mark.parametrize("dim", [5, 16, 64])
    def test_every_score_is_the_per_chunk_gemv(self, dim):
        # k > n keeps every candidate in the top-k, so every inner product
        # of every chunk of every block is compared bit for bit.
        gen = np.random.default_rng(dim)
        data = gen.standard_normal((5000, dim))
        query = gen.standard_normal(dim)
        ids = gen.permutation(5000)[:4321]
        dists = np.sort(gen.uniform(size=ids.size))
        topk = TopK(5000)
        store = VectorStore(data)
        verifier = CandidateVerifier(ChiSquare(6), 1e9)
        verifier.verify(topk, ids, dists, query, store.reader(), 0.9, 0.5, 1.0)
        expected = np.concatenate(
            [data[ids[s : s + 32]] @ query for s in range(0, ids.size, 32)]
        )
        got = dict(zip(*(a.tolist() for a in topk.result())))
        assert [got[pid] for pid in ids.tolist()] == expected.tolist()

    def test_condition_b_fires_at_equality(self):
        # Position 3 sits exactly on the Condition B threshold of the k-th
        # best fixed by position 0: it must stop there, not one later.
        chi2, c, p = ChiSquare(6), 0.9, 0.5
        data = np.array([[4.0, 0.0]] + [[1.0, 0.0]] * 5)
        query = np.array([1.0, 0.0])
        q_norm_sq, kth = 1.0, 4.0
        max_norm_sq, x = 40.0, None
        while x is None:  # step ‖oM‖² until the threshold is a float square
            max_norm_sq = float(np.nextafter(max_norm_sq, np.inf))
            threshold = chi2.ppf(p) * (max_norm_sq + q_norm_sq - 2.0 * kth / c)
            root = np.sqrt(threshold)
            for cand in (np.nextafter(root, 0.0), root, np.nextafter(root, np.inf)):
                if float(cand) * float(cand) == threshold:
                    x = float(cand)
        dists = np.array([0.0, 0.1 * x, 0.5 * x, x, 1.5 * x, 2.0 * x])
        ids = np.arange(6)
        verifier = CandidateVerifier(chi2, max_norm_sq)
        got = verifier.verify(TopK(1), ids, dists, query, VectorStore(data).reader(),
                              c, p, q_norm_sq)
        want = reference_verify(chi2, max_norm_sq, TopK(1), ids, dists, query,
                                VectorStore(data).reader(), c, p, q_norm_sq)
        assert got == want == ("condition_b", 4)

    def test_tied_inner_products_and_distances(self):
        _verify_case(5, 2500, 7, 6, 4096, integer_data=True, tied_dists=True,
                     norm_factor=1e6, dist_scale=1e-3)

    def test_repeated_ids_are_offered_once(self):
        _verify_case(8, 3000, 12, 6, 100, integer_data=True, repeated_ids=True,
                     split=500, norm_factor=1e6, dist_scale=1e-3)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([0, 1, 31, 32, 33, 64, 257, 2049, 4200]),
        k=st.integers(1, 12),
        dim=st.sampled_from([3, 6, 64]),
        page_size=st.sampled_from([100, 1000, 4096]),
        integer_data=st.booleans(),
        tied_dists=st.booleans(),
        repeated_ids=st.booleans(),
        split_share=st.floats(0.0, 1.0),
        c=st.sampled_from([0.05, 0.5, 0.9]),
        p=st.sampled_from([0.1, 0.5, 0.9]),
        norm_factor=st.sampled_from([0.0, 1.0, 100.0]),
        dist_scale=st.sampled_from([0.01, 0.5, 1.0, 3.0]),
    )
    def test_matches_reference(self, seed, n, k, dim, page_size, integer_data,
                               tied_dists, repeated_ids, split_share, c, p,
                               norm_factor, dist_scale):
        _verify_case(seed, n, k, dim, page_size, integer_data=integer_data,
                     tied_dists=tied_dists, repeated_ids=repeated_ids,
                     split=int(split_share * n), c=c, p=p,
                     norm_factor=norm_factor, dist_scale=dist_scale)
