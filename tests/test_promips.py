"""Integration tests for the ProMIPS index (Algorithms 1 and 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import CandidateVerifier
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.data.datasets import load_dataset
from repro.eval.metrics import guarantee_success
from repro.index.ring_idistance import RingIDistance
from repro.spec import build_index

from conftest import exact_topk_reference


@pytest.fixture(scope="module")
def built(latent_medium):
    data, queries = latent_medium
    index = ProMIPS.build(data, ProMIPSParams(c=0.9, p=0.5), rng=3)
    return data, queries, index


class TestBuild:
    def test_optimizer_selects_m(self, built):
        data, _, index = built
        assert index.m >= 2
        assert index.params.m == index.m

    def test_explicit_m_respected(self, latent_small):
        data, _ = latent_small
        index = ProMIPS.build(data, ProMIPSParams(m=7), rng=0)
        assert index.m == 7

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            ProMIPS.build(np.empty((0, 4)))
        with pytest.raises(ValueError):
            ProMIPS.build(np.ones(5))
        bad = np.ones((10, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            ProMIPS.build(bad)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ProMIPSParams(c=1.2)
        with pytest.raises(ValueError):
            ProMIPSParams(p=0.0)
        with pytest.raises(ValueError):
            ProMIPSParams(m=-1)
        with pytest.raises(ValueError):
            ProMIPSParams(kp=0)

    def test_index_size_positive_and_small(self, built):
        data, _, index = built
        # "Lightweight": far below the raw data footprint.
        assert 0 < index.index_size_bytes() < data.nbytes

    def test_repr(self, built):
        assert "ProMIPS" in repr(built[2])


class TestSearchBasics:
    def test_returns_k_sorted_results(self, built):
        data, queries, index = built
        result = index.search(queries[0], k=10)
        assert len(result) == 10
        assert np.all(np.diff(result.scores) <= 1e-12)
        assert len(set(result.ids.tolist())) == 10

    def test_scores_are_true_inner_products(self, built):
        data, queries, index = built
        result = index.search(queries[1], k=5)
        expected = data[result.ids] @ queries[1]
        assert np.allclose(result.scores, expected)

    def test_k_larger_than_n(self, latent_small):
        data, queries = latent_small
        index = ProMIPS.build(data[:50], ProMIPSParams(m=4, kp=2, n_key=8, ksp=2), rng=0)
        result = index.search(queries[0], k=500)
        assert len(result) == 50

    def test_k_one(self, built):
        data, queries, index = built
        result = index.search(queries[2], k=1)
        assert len(result) == 1

    def test_rejects_bad_inputs(self, built):
        _, queries, index = built
        with pytest.raises(ValueError):
            index.search(queries[0], k=0)
        with pytest.raises(ValueError):
            index.search(np.ones(3), k=1)
        with pytest.raises(ValueError):
            index.search(np.full(queries.shape[1], np.nan), k=1)

    def test_stats_populated(self, built):
        data, queries, index = built
        result = index.search(queries[3], k=10)
        stats = result.stats
        assert stats.pages > 0
        assert 0 < stats.candidates <= len(data)
        assert stats.extras["probe_radius"] >= 0
        assert stats.extras["final_radius"] >= stats.extras["probe_radius"] or (
            stats.extras["expansions"] == 0
        )
        assert stats.extras["stopped_by"] in (
            "condition_a", "condition_b", "exhausted"
        )


class TestGuarantee:
    """The headline property: P[⟨o,q⟩ ≥ c⟨o*,q⟩] ≥ p per returned rank."""

    @pytest.mark.parametrize("c,p", [(0.9, 0.5), (0.8, 0.5), (0.9, 0.7)])
    def test_success_rate_meets_p(self, built, c, p):
        data, queries, index = built
        successes = []
        for q in queries:
            _, exact_ips = exact_topk_reference(data, q, 10)
            result = index.search(q, k=10, c=c, p=p)
            successes.append(guarantee_success(result.scores, exact_ips, c))
        # Mean success over ranks/queries must clear p with slack far beyond
        # sampling noise (the guarantee is a lower bound; observed values
        # are typically much higher).
        assert float(np.mean(successes)) >= p

    def test_high_p_approaches_exact(self, latent_small):
        data, queries = latent_small
        index = ProMIPS.build(data, ProMIPSParams(c=0.9, p=0.97), rng=1)
        ratios = []
        for q in queries:
            _, exact_ips = exact_topk_reference(data, q, 5)
            result = index.search(q, k=5)
            ratios.append(float(np.mean(result.scores / exact_ips)))
        assert float(np.mean(ratios)) >= 0.98

    def test_per_query_override_changes_effort(self, built):
        data, queries, index = built
        q = queries[4]
        low = index.search(q, k=10, p=0.3)
        high = index.search(q, k=10, p=0.9)
        assert high.stats.candidates >= low.stats.candidates


class TestIncrementalSearch:
    def test_matches_quality_of_range_search(self, built):
        data, queries, index = built
        for q in queries[:6]:
            _, exact_ips = exact_topk_reference(data, q, 10)
            r1 = index.search(q, k=10)
            r2 = index.search_incremental(q, k=10)
            assert guarantee_success(r2.scores, exact_ips, 0.9) >= 0.5
            assert r2.stats.extras["stopped_by"] in (
                "condition_a", "condition_b", "exhausted"
            )

    def test_rejects_bad_k(self, built):
        _, queries, index = built
        with pytest.raises(ValueError):
            index.search_incremental(queries[0], k=-1)


class TestDeterminism:
    def test_same_build_seed_same_results(self, latent_small):
        data, queries = latent_small
        a = ProMIPS.build(data, ProMIPSParams(m=5), rng=9)
        b = ProMIPS.build(data, ProMIPSParams(m=5), rng=9)
        ra = a.search(queries[0], k=5)
        rb = b.search(queries[0], k=5)
        assert np.array_equal(ra.ids, rb.ids)
        assert ra.stats.pages == rb.stats.pages

    def test_golden_page_counts(self):
        """Query stats pinned across versions (recorded with the 1.8 object
        B+-tree; the 16-byte-page row and the MIP-Search-I sums with 1.14):
        a change to the tree, the range search or the page accounting must
        not move them.  At 16-byte pages every slot of both files straddles
        page boundaries."""
        data = load_dataset("yahoo", n=3000, dim=32, n_queries=1, seed=0).data
        queries = data[np.random.default_rng(2).choice(3000, 32, replace=False)]
        golden = {
            # spec: (pages, candidates, first pages, MIP-Search-I pages)
            "promips()": (2274, 9569, [83, 64, 64, 64, 68], 3369),
            "promips(page_size=16)": (152232, 9569, [5163, 3924, 4152, 3481, 4716], 113082),
        }
        for spec, (total, candidates, first, incremental) in golden.items():
            index = build_index(spec, data, rng=1)
            results = [index.search(q, k=10) for q in queries]
            pages = [r.stats.pages for r in results]
            assert sum(pages) == total
            assert sum(r.stats.candidates for r in results) == candidates
            assert pages[:5] == first
            slow = [index.search_incremental(q, k=10) for q in queries]
            assert sum(r.stats.pages for r in slow) == incremental
            assert sum(r.stats.candidates for r in slow) == candidates


class TestFromState:
    # Unchecked, a width mismatch fails on the first search with a numpy
    # broadcast error, a row-count mismatch in the ring's column gather with
    # an opaque message, malformed offsets describe runs that do not exist,
    # and a layout that repeats an id has a range search report it twice.
    @pytest.mark.parametrize("key, tamper, names", [
        ("projection_matrix", lambda a: np.vstack([a, a[:1]]), "centers"),
        ("ring_sp_pivots", lambda a: np.hstack([a, a[:, :1]]), "sp_pivots"),
        ("ring_layout_order", lambda a: a[:-1], "layout_order"),
        ("ring_layout_order", lambda a: np.r_[a[0], a[0], a[2:]], "layout_order"),
        ("data", lambda a: a[:-1], "layout_order"),
        ("ring_sp_offsets", lambda a: np.r_[1, a[1:]], "sp_offsets"),
        ("ring_sp_offsets", lambda a: np.r_[a[:-1], a[-1] - 1], "sp_offsets"),
        ("ring_sp_offsets", lambda a: a[[0, 2, 1, *range(3, a.size)]], "sp_offsets"),
        ("ring_sp_offsets", lambda a: np.delete(a, 1), "sp_offsets"),
    ], ids=["projection_matrix", "ring_sp_pivots", "ring_layout_order",
            "ring_layout_repeats_an_id", "data",
            "offsets_from_1", "offsets_short_of_n", "decreasing_offsets",
            "offsets_missing_a_run"])
    def test_rejects_inconsistent_envelope(self, latent_small, key, tamper, names):
        data, queries = latent_small
        index = ProMIPS.build(data, ProMIPSParams(), rng=4)
        state = index.state()
        ProMIPS.from_state(index.spec(), state).search(queries[0], k=3)
        state[key] = tamper(state[key])
        with pytest.raises(ValueError, match=names):
            ProMIPS.from_state(index.spec(), state)


class TestConditionAPath:
    def test_self_query_on_dominant_point(self):
        """A query equal to the max-norm point must trigger Condition A
        immediately: its self inner product is ‖oM‖² ≥ c(‖oM‖²+‖q‖²)/2."""
        gen = np.random.default_rng(5)
        data = gen.standard_normal((400, 12))
        data[7] *= 10.0  # dominant point
        index = ProMIPS.build(data, ProMIPSParams(m=4, kp=2, n_key=8, ksp=2), rng=1)
        result = index.search(data[7], k=1)
        assert result.ids[0] == 7
        assert result.stats.extras["stopped_by"] == "condition_a"
        # Condition A prunes hard: nowhere near a full scan.
        assert result.stats.candidates < 200


class TestEachIdOfferedOnce:
    """The running top-k keeps no seen-set, so within one query no id may
    reach it twice: not across the first range search and the compensation
    annuli of MIP-Search-II, nor across the rounds of MIP-Search-I's
    incremental search — also when rows are duplicated and points coincide
    (equal distances on every annulus boundary)."""

    @pytest.fixture(scope="class")
    def tied(self):
        gen = np.random.default_rng(12)
        data = gen.integers(-2, 3, size=(900, 6)).astype(np.float64)
        data[600:750] = data[:150]  # duplicate rows
        data[750:] = data[300]  # 150 coincident points
        queries = np.vstack(
            [data[[0, 300, 450]], gen.integers(-2, 3, size=(9, 6)).astype(np.float64)]
        )
        index = build_index("promips(p=0.9, m=3, kp=3, n_key=6, ksp=3)", data, rng=2)
        return index, queries

    def test_verify_calls_of_one_query_share_no_id(self, tied, monkeypatch):
        index, queries = tied
        received: list[np.ndarray] = []
        verify = CandidateVerifier.verify

        def recording(self, topk, ids, *args):
            received.append(ids.copy())
            return verify(self, topk, ids, *args)

        monkeypatch.setattr(CandidateVerifier, "verify", recording)
        expansions = []
        for k in (10, 300):
            for query in queries:
                received.clear()
                result = index.search(query, k=k)
                ids = np.concatenate(received)
                assert np.unique(ids).size == ids.size
                assert len(received) == result.stats.extras["expansions"] + 1
                expansions.append(result.stats.extras["expansions"])
        assert max(expansions) >= 2  # several compensation annuli were covered

    def test_incremental_rounds_share_no_id(self, tied, monkeypatch):
        index, queries = tied
        received: list[np.ndarray] = []
        range_search = RingIDistance.range_search

        def recording(self, *args, **kwargs):
            ids, dists = range_search(self, *args, **kwargs)
            received.append(ids)
            return ids, dists

        monkeypatch.setattr(RingIDistance, "range_search", recording)
        for query in queries:
            received.clear()
            index.search_incremental(query, k=300)
            ids = np.concatenate(received)
            assert np.unique(ids).size == ids.size
            assert len(received) >= 2
