"""Integration tests for the ProMIPS index (Algorithms 1 and 3)."""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import fanout
from repro.core.engine import CandidateVerifier, project_batch
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


class TestQuickProbeRadius:
    def test_probe_point_is_a_candidate_of_the_first_pass(self, monkeypatch):
        """The Quick-Probe radius is the probe point's distance as the range
        search measures it, so the ball at that radius reports the point.
        (A distance summed in another order can be an ulp short of it.)"""
        data = load_dataset("yahoo", n=3000, dim=32, n_queries=1, seed=0).data
        gen = np.random.default_rng(5)
        queries = np.vstack([
            data[gen.choice(3000, 100, replace=False)],
            gen.standard_normal((100, 32)) * data.std(),
        ])
        index = build_index("promips()", data, rng=1)
        outcomes = index.quickprobe.probe_many(
            project_batch(index.projection.matrix, queries),
            np.array([float(np.abs(q).sum()) for q in queries]), 0.9, 0.5,
        )
        passes: list[np.ndarray] = []
        range_search = RingIDistance.range_search

        def recording(self, *args, **kwargs):
            ids, dists = range_search(self, *args, **kwargs)
            passes.append(ids)
            return ids, dists

        monkeypatch.setattr(RingIDistance, "range_search", recording)
        for query, outcome in zip(queries, outcomes):
            passes.clear()
            index.search(query, k=10)
            assert outcome.point_id in passes[0]


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
        # At k = 899 of 900 points the top-k is often still short after r'.
        for k in (10, 300, 899):
            for query in queries:
                received.clear()
                result = index.search(query, k=k)
                ids = np.concatenate(received)
                assert np.unique(ids).size == ids.size
                assert len(received) == result.stats.extras["expansions"] + 1
                expansions.append(result.stats.extras["expansions"])
        assert max(expansions) >= 2  # several compensation annuli were covered

    def test_a_full_top_k_takes_no_second_extension(self, tied, monkeypatch):
        """An extension that starts with a full top-k goes out to r', where
        Condition B holds for the k-th best that set r' (a k-th best that
        rises on the way only lowers B's threshold): it is the query's last
        pass.  Deciding B at r' by a rounded CDF doubled the radius on 7 of
        these 24 searches."""
        index, queries = tied
        full_at_call: list[bool] = []
        verify = CandidateVerifier.verify

        def recording(self, topk, *args):
            full_at_call.append(topk.full)
            return verify(self, topk, *args)

        monkeypatch.setattr(CandidateVerifier, "verify", recording)
        for k in (10, 300):
            for query in queries:
                full_at_call.clear()
                index.search(query, k=k)
                assert not any(full_at_call[1:-1])

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


@pytest.fixture(params=[1, 2, 4], ids=lambda w: f"width{w}")
def width(request, monkeypatch):
    """Patch the usable-CPU count every fan-out pool reads."""
    monkeypatch.setattr(fanout, "fanout_width", lambda: request.param)
    return request.param


def _record_rows(index) -> list:
    """Record the thread of every row ``index.search_many`` runs."""
    seen = []
    inner = index._search_core

    def spy(*args):
        seen.append(threading.current_thread())
        return inner(*args)

    index._search_core = spy
    return seen


class TestRowFanOut:
    """``search_many`` runs its rows one task each on the index's fan-out
    pool; no row can tell on which thread it ran."""

    SPEC = "promips(m=5, kp=3, n_key=10, ksp=4)"

    def test_width_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert fanout.fanout_width() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert fanout.fanout_width() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert fanout.fanout_width() == 1

    def test_rows_match_looped_search_bit_for_bit(self, built, width):
        data, queries, _ = built
        index = ProMIPS.build(data, ProMIPSParams(c=0.9, p=0.5), rng=3)
        for k, c in ((10, None), (1, 0.7)):
            batch = index.search_many(queries, k=k, c=c)
            for i, query in enumerate(queries):
                single = index.search(query, k=k, c=c)
                row = batch[i]
                assert np.array_equal(single.ids, row.ids)
                assert single.scores.tobytes() == row.scores.tobytes()
                assert single.stats.pages == row.stats.pages
                assert single.stats.candidates == row.stats.candidates
                assert single.stats.extras == row.stats.extras

    def test_rows_run_off_the_calling_thread(self, latent_small, width):
        data, queries = latent_small
        index = build_index(self.SPEC, data, rng=1)
        seen = _record_rows(index)
        index.search_many(queries, k=5)
        assert len(seen) == len(queries)
        if width == 1:
            assert set(seen) == {threading.current_thread()}
        else:
            assert threading.current_thread() not in seen
            assert len(set(seen)) <= width
        # A single query is a one-row batch: it runs inline.
        seen.clear()
        index.search(queries[0], k=5)
        assert seen == [threading.current_thread()]

    def test_sharded_rows_run_inline_on_shard_workers(self, latent_small, width):
        data, queries = latent_small
        sharded = build_index(f"sharded(inner='{self.SPEC}', shards=2)", data, rng=1)
        per_shard = [_record_rows(shard) for shard in sharded.shards]
        callers = []
        for shard in sharded.shards:
            inner = shard.search_many

            def spy(*args, _inner=inner, **kwargs):
                callers.append(threading.current_thread())
                return _inner(*args, **kwargs)

            shard.search_many = spy
        sharded.search_many(queries, k=5)
        for seen in per_shard:
            assert len(seen) == len(queries)
            assert len(set(seen)) == 1 and set(seen) <= set(callers)
        assert all(shard._fanout._pool is None for shard in sharded.shards)

    def test_dynamic_fans_its_inner_batch_out(self, latent_small, width):
        data, queries = latent_small
        index = build_index("dynamic(m=5, kp=3, n_key=10, ksp=4)", data, rng=1)
        index.insert(queries[0] * 2.0)
        index.delete(3)
        seen = _record_rows(index._index)
        batch = index.search_many(queries, k=5)
        assert len(seen) == len(queries)
        assert (threading.current_thread() in seen) == (width == 1)
        for i, query in enumerate(queries):
            single = index.search(query, k=5)
            assert np.array_equal(single.ids, batch[i].ids)
            assert single.scores.tobytes() == batch[i].scores.tobytes()

    def test_a_failing_row_propagates_and_the_pool_serves_on(
        self, latent_small, width
    ):
        data, queries = latent_small
        index = build_index(self.SPEC, data, rng=1)
        expected = index.search_many(queries, k=5)
        inner = index._search_core
        started, finished = [], []
        lock = threading.Lock()

        def failing(query, *args):
            with lock:
                started.append(query)
            if query.tobytes() == queries[3].tobytes():
                raise RuntimeError("row 3 failed")
            time.sleep(0.01)
            result = inner(query, *args)
            with lock:
                finished.append(query)
            return result

        index._search_core = failing
        with pytest.raises(RuntimeError, match="row 3 failed"):
            index.search_many(queries, k=5)
        # Every row that started has finished before the call returned.
        with lock:
            assert len(finished) == len(started) - 1
        index._search_core = inner
        again = index.search_many(queries, k=5)
        assert np.array_equal(again.ids, expected.ids)
        assert again.scores.tobytes() == expected.scores.tobytes()

    def test_row_workers_exit_with_the_index(self, latent_small, width):
        data, queries = latent_small
        index = build_index(self.SPEC, data, rng=1)
        seen = _record_rows(index)
        index.search_many(queries, k=5)
        workers = set(seen) - {threading.current_thread()}
        if width == 1:
            assert not workers
        else:
            assert 1 <= len(workers) <= width
        del index, seen
        gc.collect()
        for thread in workers:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_concurrent_callers_share_one_pool(self, latent_small, monkeypatch):
        # More callers than CPUs, switching often: the lazily created pool
        # must be created once, and every caller must get its own rows back.
        monkeypatch.setattr(fanout, "fanout_width", lambda: 2)
        data, queries = latent_small
        index = build_index(self.SPEC, data, rng=1)
        expected = [index.search(q, k=5) for q in queries]
        seen = _record_rows(index)
        failures = []

        def caller(offset):
            rows = np.roll(queries, offset, axis=0)
            got = index.search_many(rows, k=5)
            for i in range(len(rows)):
                want = expected[(i - offset) % len(queries)]
                if not np.array_equal(got[i].ids, want.ids):
                    failures.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(j,)) for j in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(seen) == 6 * len(queries)
        assert len(set(seen)) <= 2
        assert all(thread.name.startswith("promips-rows") for thread in seen)
