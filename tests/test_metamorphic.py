"""Cross-method metamorphic properties.

Each test states a relation between *two* runs of a search method — scale
the query, append a point, widen a probe budget, duplicate a vector — whose
outcome is known without any external oracle.  These relations hold across
methods, so a refactor that silently breaks ranking, tie-breaking, or a
budget knob fails here even when the absolute answers still look plausible.

The suite leans on ``hypothesis`` for the input-space properties (scaling
factors, adversarial datasets) and on the seeded fixtures for the
statistical ones (recall monotonicity over a fixed workload).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.persist import load_index, save_index
from repro.core.sharded import ShardedIndex
from repro.eval.metrics import recall
from repro.spec import build_index

_SCALES = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
_ROWS = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def scale_indexes(latent_small):
    """Indexes whose ranking must be invariant under positive query scaling:
    the exact scan, its sharded composition, and SimHash (whose codes are
    computed from the normalised query)."""
    data, queries = latent_small
    return (
        queries,
        {
            "exact": build_index("exact()", data),
            "sharded-exact": build_index(
                "sharded(inner='exact()', shards=3)", data, rng=1
            ),
            "simhash": build_index("simhash(n_bits=24)", data, rng=5),
        },
    )


class TestQueryScaleInvariance:
    """``argtop-k ⟨o, αq⟩ = argtop-k ⟨o, q⟩`` for every ``α > 0``."""

    @pytest.mark.parametrize("method", ["exact", "sharded-exact", "simhash"])
    @given(alpha=_SCALES, query_row=st.integers(0, 11))
    @settings(max_examples=30, deadline=None)
    def test_topk_ids_invariant(self, scale_indexes, method, alpha, query_row):
        queries, indexes = scale_indexes
        index = indexes[method]
        query = queries[query_row]
        base = index.search(query, k=10)
        scaled = index.search(alpha * query, k=10)
        assert np.array_equal(scaled.ids, base.ids)

    @pytest.mark.parametrize("method", ["exact", "sharded-exact"])
    @given(alpha=_SCALES)
    @settings(max_examples=20, deadline=None)
    def test_scores_scale_linearly(self, scale_indexes, method, alpha):
        queries, indexes = scale_indexes
        index = indexes[method]
        base = index.search(queries[0], k=10)
        scaled = index.search(alpha * queries[0], k=10)
        assert np.allclose(scaled.scores, alpha * base.scores, rtol=1e-10)


# A subnormal ‖q‖²: the scale (kth - 1) / ‖q‖² overflows, so the "dominated"
# vector is [-inf, nan, ...] and must be refused at build time.
_SUBNORMAL_QUERY = {
    "data": np.zeros((30, 8)),
    "query": np.array([6.05851642e-155] + [0.0] * 7),
}


def _dominated(query: np.ndarray, kth: float) -> np.ndarray:
    """A vector with ``⟨v, q⟩ = kth − 1 < kth``: strictly dominated."""
    with np.errstate(over="ignore", invalid="ignore"):
        return query * ((kth - 1.0) / float(query @ query))


def _scorable(vector: np.ndarray) -> bool:
    """Finite, with a finite squared norm: what every build accepts."""
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(vector)) and np.isfinite(vector @ vector))


class TestDominatedAppend:
    """Appending a vector whose inner product with the query is below the
    current k-th best cannot change the exact top-k.  Where the vector
    cannot be built in floating point (its scale overflows), the build
    rejects it instead of ranking NaNs."""

    @given(
        data=arrays(np.float64, (30, 8), elements=_ROWS),
        query=arrays(np.float64, (8,), elements=_ROWS),
    )
    @example(**_SUBNORMAL_QUERY)
    @settings(max_examples=40, deadline=None)
    def test_exact_topk_unchanged(self, data, query):
        if float(query @ query) == 0.0:
            return  # cannot aim a dominated vector without a direction
        k = 5
        before = build_index("exact()", data).search(query, k=k)
        dominated = _dominated(query, float(before.scores[-1]))
        grown = np.vstack([data, dominated])
        if not _scorable(dominated):
            with pytest.raises(ValueError):
                build_index("exact()", grown)
            return
        after = build_index("exact()", grown).search(query, k=k)
        assert np.array_equal(after.ids, before.ids)
        assert np.array_equal(after.scores, before.scores)

    @given(
        data=arrays(np.float64, (30, 8), elements=_ROWS),
        query=arrays(np.float64, (8,), elements=_ROWS),
    )
    @example(**_SUBNORMAL_QUERY)
    @settings(max_examples=15, deadline=None)
    def test_sharded_exact_topk_unchanged(self, data, query):
        if float(query @ query) == 0.0:
            return
        k = 5
        before = ShardedIndex.build(data, inner="exact()", shards=3, rng=1).search(
            query, k=k
        )
        dominated = _dominated(query, float(before.scores[-1]))
        grown = np.vstack([data, dominated])
        if not _scorable(dominated):
            with pytest.raises(ValueError):
                ShardedIndex.build(grown, inner="exact()", shards=3, rng=1)
            return
        after = ShardedIndex.build(grown, inner="exact()", shards=3, rng=1).search(
            query, k=k
        )
        assert np.array_equal(after.ids, before.ids)
        assert np.array_equal(after.scores, before.scores)


class TestProbeBudgetMonotonicity:
    """More probe budget never hurts: recall over a seeded workload is
    monotone non-decreasing in the knob that widens the candidate set."""

    def _mean_recall(
        self, index, data, queries, oracle, k=10, **search_kwargs
    ) -> float:
        values = [
            recall(index.search(q, k=k, **search_kwargs).ids, oracle(data, q, k)[0])
            for q in queries
        ]
        return float(np.mean(values))

    def test_promips_recall_monotone_in_p(self, latent_small, exact_topk):
        data, queries = latent_small
        index = build_index(
            "promips(c=0.85, m=5, kp=3, n_key=10, ksp=4)", data, rng=7
        )
        ps = [0.1, 0.3, 0.5, 0.7, 0.9]
        recalls = [
            self._mean_recall(index, data, queries, exact_topk, p=p) for p in ps
        ]
        # Deterministic per platform; the slack only absorbs last-ulp BLAS
        # differences flipping a marginal candidate on another machine.
        for lo, hi in zip(recalls, recalls[1:]):
            assert hi >= lo - 0.05
        assert recalls[-1] >= recalls[0]
        assert recalls[-1] > 0.5

    def test_promips_candidates_grow_with_p(self, latent_small):
        data, queries = latent_small
        index = build_index(
            "promips(c=0.85, m=5, kp=3, n_key=10, ksp=4)", data, rng=7
        )
        candidates = [
            float(
                np.mean(
                    [index.search(q, k=10, p=p).stats.candidates for q in queries]
                )
            )
            for p in (0.1, 0.5, 0.9)
        ]
        assert candidates[0] < candidates[1] < candidates[2]

    def test_pq_recall_monotone_in_n_probe(self, latent_small, exact_topk):
        data, queries = latent_small
        recalls = []
        for n_probe in (1, 2, 4, 8):
            index = build_index(
                f"pq(n_coarse=8, n_centroids=16, min_local_train=32, "
                f"n_probe={n_probe})",
                data,
                rng=5,
            )
            recalls.append(self._mean_recall(index, data, queries, exact_topk))
        for lo, hi in zip(recalls, recalls[1:]):
            assert hi >= lo - 0.05
        assert recalls[-1] >= recalls[0]
        assert recalls[-1] > 0.9

    def test_simhash_recall_monotone_in_shortlist(self, latent_small, exact_topk):
        data, queries = latent_small
        recalls = []
        for shortlist in (2, 8, 32):
            index = build_index(f"simhash(n_bits=24, shortlist={shortlist})", data, rng=5)
            recalls.append(self._mean_recall(index, data, queries, exact_topk))
        for lo, hi in zip(recalls, recalls[1:]):
            assert hi >= lo - 0.05
        assert recalls[-1] >= recalls[0]


class TestDynamicMutationSoundness:
    """Interleaved insert/delete soundness for the mutable index: after any
    operation sequence, results only ever contain live ids, every returned
    score is the true inner product of the id it is attached to, and the
    compaction triggers keep both pressure sources (delta size, tombstone
    count) bounded — the degradation a delete-only workload used to
    accumulate forever.  The stream also runs generational rebuilds with
    mutations landing between ``begin_rebuild`` and ``commit_rebuild``, and
    save/load round trips whose reloaded index must answer identically and
    then carries on mutating."""

    SPEC = (
        "dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3, "
        "rebuild_threshold=0.2, compact_threshold=0.25)"
    )

    @given(
        ops=st.lists(st.integers(0, 99), min_size=1, max_size=40),
        seed=st.integers(0, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_interleaved_mutations_stay_sound(self, ops, seed):
        gen = np.random.default_rng(seed)
        dim = 8
        data = gen.standard_normal((30, dim))
        index = build_index(self.SPEC, data, rng=3)
        live = {i: data[i] for i in range(30)}
        vec_gen = np.random.default_rng(seed + 1000)
        query = gen.standard_normal(dim)
        queries = np.vstack([query, gen.standard_normal(dim)])

        def insert():
            vec = vec_gen.standard_normal(dim)
            live[index.insert(vec)] = vec

        def delete(op):
            if len(live) > 1:
                victim = sorted(live)[op % len(live)]
                index.delete(victim)
                del live[victim]

        for op in ops:
            if op >= 95:
                # Save/load round trip: the reloaded index answers exactly
                # like the one it was saved from, and replaces it.
                with tempfile.TemporaryDirectory() as tmp:
                    reloaded = load_index(save_index(index, Path(tmp) / "dyn"))
                before = index.search_many(queries, k=5)
                after = reloaded.search_many(queries, k=5)
                assert np.array_equal(before.ids, after.ids)
                assert np.array_equal(before.scores, after.scores)
                assert reloaded.n_live == index.n_live
                index = reloaded
            elif op >= 88:
                # Generational rebuild with drift: an insert, a delete (maybe
                # of that insert) and another insert land mid-build.
                index.defer_maintenance = True
                ticket = index.begin_rebuild()
                insert()
                delete(op)
                staged = index.build_generation(ticket)
                insert()
                index.commit_rebuild(ticket, staged)
                index.defer_maintenance = False
                # Replayed drift can itself be over a threshold on a tiny
                # generation; a maintenance engine's next poll compacts it.
                if index.maintenance_due() is not None:
                    index.compact()
            elif op % 3 == 0:
                delete(op)
            else:
                insert()
            assert index.n_live == len(live)

            result = index.search(query, k=5)
            returned = result.ids.tolist()
            assert len(returned) == min(5, len(live))
            assert set(returned) <= set(live)
            for pid, score in zip(returned, result.scores.tolist()):
                assert score == pytest.approx(
                    float(live[pid] @ query), rel=1e-9, abs=1e-9
                )
            # Bounded degradation: each mutation re-checks the thresholds,
            # so neither pressure source can exceed its ratio for long.
            base = index.indexed_points
            assert index.delta_size <= 0.2 * base + 1
            assert index.tombstone_count <= 0.25 * base + 1

        # The batch path agrees bit-for-bit in whatever state we ended in.
        batch = index.search_many(queries, k=5)
        for i, q in enumerate(queries):
            single = index.search(q, k=5)
            assert np.array_equal(batch[i].ids, single.ids)
            assert np.array_equal(batch[i].scores, single.scores)


class TestDuplicateTies:
    """Duplicate data vectors score identically and rank by ascending id."""

    @pytest.mark.parametrize(
        "spec", ["exact()", "sharded(inner='exact()', shards=4)"]
    )
    def test_duplicates_adjacent_and_id_ordered(self, spec):
        gen = np.random.default_rng(4)
        data = gen.standard_normal((120, 8))
        data[0] *= 40.0  # dominant direction, duplicated at scattered ids
        for dup in (17, 55, 119):
            data[dup] = data[0]
        index = build_index(spec, data, rng=2)
        result = index.search(data[0] / np.linalg.norm(data[0]), k=4)
        assert result.ids.tolist() == [0, 17, 55, 119]
        assert np.all(result.scores == result.scores[0])

    def test_every_exact_tie_group_is_id_sorted(self):
        gen = np.random.default_rng(9)
        base = gen.standard_normal((20, 6))
        data = np.vstack([base, base[::-1]])  # every vector duplicated
        index = build_index("exact()", data)
        query = gen.standard_normal(6)
        result = index.search(query, k=len(data))
        for score in np.unique(result.scores):
            group = result.ids[result.scores == score]
            assert np.array_equal(group, np.sort(group))
