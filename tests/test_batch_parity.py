"""Row independence: ``search(q)`` is row ``i`` of ``search_many(Q)``.

Every registered method has one query implementation, ``search_many``, and
``search`` is its one-row batch.  "Batch equals looped search" therefore
holds exactly when a row's answer does not depend on the rest of its batch —
which is what the engine's shape-stable GEMMs exist to keep (see
``repro.core.engine``): not approximately equal — ``np.array_equal`` on ids
and scores, and matching per-query page/candidate accounting.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.api import BatchResult, SearchStats
from repro.baselines.exact import ExactMIPS
from repro.baselines.pq import PQBasedMIPS
from repro.baselines.simhash import SimHashMIPS
from repro.core.dynamic import DynamicProMIPS
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.spec import build_index, registered_methods

# One small spec per registered method, sized for the 1200×24 workload.  A
# newly registered method fails `test_specs_cover_every_method` until it
# gets an entry here, and with it parity coverage.
PARITY_SPECS = {
    "promips": "promips(m=5, kp=3, n_key=10, ksp=4)",
    "dynamic": "dynamic(m=5, kp=3, n_key=10, ksp=4)",
    "sharded": "sharded(inner='promips(m=5, kp=3, n_key=10, ksp=4)', shards=3)",
    "exact": "exact()",
    "pq": "pq(n_coarse=12, n_centroids=32, min_local_train=64)",
    "simhash": "simhash()",
    "h2alsh": "h2alsh()",
    "rangelsh": "rangelsh()",
}


def assert_batch_matches_loop(index, queries, k, **kwargs):
    batch = index.search_many(queries, k=k, **kwargs)
    assert len(batch) == len(queries)
    for i, query in enumerate(queries):
        single = index.search(query, k=k, **kwargs)
        assert np.array_equal(single.ids, batch[i].ids), f"ids differ at query {i}"
        assert np.array_equal(single.scores, batch[i].scores), (
            f"scores differ at query {i}"
        )
        assert single.stats.pages == batch.stats[i].pages
        assert single.stats.candidates == batch.stats[i].candidates


@pytest.fixture(scope="module")
def workload(latent_small):
    data, queries = latent_small
    return data, queries[:8]


@pytest.fixture(scope="module")
def registry_indexes(workload):
    data, _ = workload
    return {
        name: build_index(spec, data, rng=3) for name, spec in PARITY_SPECS.items()
    }


@pytest.fixture(scope="module")
def native_indexes(registry_indexes):
    return {
        name: registry_indexes[name] for name in ("promips", "exact", "pq", "simhash")
    }


def test_specs_cover_every_method():
    assert set(PARITY_SPECS) == set(registered_methods())


class TestNativeParity:
    """``search`` is row ``i`` of ``search_many`` for every registered
    method, then the same contract on edge inputs."""

    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_bit_identical_to_loop(self, registry_indexes, workload, name):
        _, queries = workload
        assert_batch_matches_loop(registry_indexes[name], queries, k=7)

    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_single_query_is_a_one_row_batch(self, registry_indexes, workload, name):
        _, queries = workload
        index = registry_indexes[name]
        batch = index.search_many(queries[0], k=5)
        assert len(batch) == 1
        single = index.search(queries[0], k=5)
        assert np.array_equal(single.ids, batch[0].ids)
        assert np.array_equal(single.scores, batch[0].scores)

    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_search_rejects_nested_queries(self, registry_indexes, workload, name):
        # A query is one (d,) vector or one (1, d) row — never a matrix or a
        # column that merely holds d numbers.
        _, queries = workload
        index = registry_indexes[name]
        q = queries[0]
        assert np.array_equal(
            index.search(q[None, :], k=3).ids, index.search(q, k=3).ids
        )
        for bad in (q.reshape(2, -1), q.reshape(-1, 1), q[None, None, :]):
            with pytest.raises(ValueError, match="query must be"):
                index.search(bad, k=3)

    def test_dynamic_parity_survives_mutations(self, workload):
        # Parity must survive every mutable state: delta-only,
        # tombstones-only, and both at once.
        data, queries = workload
        index = DynamicProMIPS(
            data[:500], ProMIPSParams(m=5, kp=3, n_key=10, ksp=4), rng=1
        )
        index.insert(data[900])
        assert_batch_matches_loop(index, queries[:3], k=5)
        index.delete(7)
        index.delete(300)
        assert_batch_matches_loop(index, queries[:3], k=5)
        for row in data[901:905]:
            index.insert(row)
        assert_batch_matches_loop(index, queries[:4], k=6)

    @pytest.mark.parametrize("name", ["promips", "exact", "pq", "simhash"])
    def test_single_row_batch(self, native_indexes, workload, name):
        _, queries = workload
        assert_batch_matches_loop(native_indexes[name], queries[:1], k=5)

    @pytest.mark.parametrize("name", ["promips", "exact", "pq", "simhash"])
    def test_duplicate_queries_get_identical_rows(
        self, native_indexes, workload, name
    ):
        _, queries = workload
        dup = np.vstack([queries[0], queries[0], queries[1]])
        batch = native_indexes[name].search_many(dup, k=6)
        assert np.array_equal(batch.ids[0], batch.ids[1])
        assert np.array_equal(batch.scores[0], batch.scores[1])

    @pytest.mark.parametrize("name", ["promips", "exact", "pq", "simhash"])
    def test_k_larger_than_n(self, workload, name):
        data, queries = workload
        small = data[:6]
        builders = {
            "promips": lambda: ProMIPS.build(
                small, ProMIPSParams(m=3, kp=2, n_key=4, ksp=2), rng=1
            ),
            "exact": lambda: ExactMIPS(small),
            "pq": lambda: PQBasedMIPS(
                small, rng=3, n_coarse=2, n_centroids=4, min_local_train=1000
            ),
            "simhash": lambda: SimHashMIPS(small, rng=3),
        }
        index = builders[name]()
        batch = index.search_many(queries[:3], k=50)
        assert batch.ids.shape[1] == 6
        assert_batch_matches_loop(index, queries[:3], k=50)

    def test_wide_batches_on_hostile_shapes(self):
        """Regression: raw variable-width GEMMs diverge from the single-query
        product on shapes like 512×64 once the batch grows past the BLAS
        kernel switch-over; the engine's fixed panels must not."""
        gen = np.random.default_rng(17)
        data = gen.standard_normal((512, 64))
        queries = gen.standard_normal((300, 64))
        exact = ExactMIPS(data)
        batch = exact.search_many(queries, k=5)
        for i in range(0, 300, 23):
            single = exact.search(queries[i], k=5)
            assert np.array_equal(single.ids, batch[i].ids)
            assert np.array_equal(single.scores, batch[i].scores)

        simhash = SimHashMIPS(gen.standard_normal((900, 48)), rng=3)
        q48 = gen.standard_normal((300, 48))
        sbatch = simhash.search_many(q48, k=5)
        for i in range(0, 300, 23):
            single = simhash.search(q48[i], k=5)
            assert np.array_equal(single.ids, sbatch[i].ids)
            assert np.array_equal(single.scores, sbatch[i].scores)

    def test_promips_forwards_c_and_p(self, native_indexes, workload):
        _, queries = workload
        assert_batch_matches_loop(
            native_indexes["promips"], queries[:4], k=5, c=0.8, p=0.7
        )

    def test_rejects_bad_batches(self, native_indexes):
        index = native_indexes["exact"]
        with pytest.raises(ValueError):
            index.search_many(np.ones((2, 24)), k=0)
        with pytest.raises(ValueError):
            index.search_many(np.ones((2, 10)), k=3)

    def test_empty_batch_is_uniformly_empty(self, registry_indexes):
        for name, index in registry_indexes.items():
            batch = index.search_many(np.empty((0, index.dim)), k=3)
            assert batch.ids.shape == (0, 0), name
            assert batch.scores.shape == (0, 0), name
            assert batch.stats == [], name


@pytest.fixture(scope="module")
def tied_workload():
    """800×8 integer data with 200 duplicated rows: most scores tie."""
    gen = np.random.default_rng(4)
    data = gen.integers(-2, 3, size=(800, 8)).astype(np.float64)
    data[600:] = data[:200]
    queries = gen.integers(-2, 3, size=(40, 8)).astype(np.float64)
    return data, queries


class TestAnswerOrder:
    """Every method returns its rows in the engine's ``(-score, id)`` order:
    descending score, ties by ascending id."""

    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_rows_ordered_by_score_then_id(self, tied_workload, name):
        data, queries = tied_workload
        batch = build_index(PARITY_SPECS[name], data, rng=3).search_many(queries, k=10)
        for i, row in enumerate(batch):
            ids, scores = row.ids, row.scores
            ordered = (scores[:-1] > scores[1:]) | (
                (scores[:-1] == scores[1:]) & (ids[:-1] < ids[1:])
            )
            assert ordered.all(), f"row {i}: ids {ids} scores {scores}"


# Unscorable values and the build's error for each; a load of a state
# holding them must fail the same way.
UNSCORABLE = pytest.mark.parametrize("bad, message", [
    (np.nan, "non-finite"),
    (np.inf, "non-finite"),
    (-np.inf, "non-finite"),
    (1e300, "squared norm overflows"),
], ids=["nan", "inf", "-inf", "norm-overflow"])


class TestDataValidation:
    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    @UNSCORABLE
    def test_every_method_rejects_unscorable_data(self, workload, name, bad, message):
        data, _ = workload
        broken = data.copy()
        broken[5, 3] = bad
        with pytest.raises(ValueError, match=message):
            build_index(PARITY_SPECS[name], broken, rng=3)

    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    @UNSCORABLE
    def test_every_load_rejects_unscorable_data(
        self, registry_indexes, name, bad, message
    ):
        """A load is as strict as a build: the same value tampered into the
        stored data arrays of a built index's state fails ``from_state``
        with the build's error."""
        index = registry_indexes[name]
        state = dict(index.state())
        data_keys = [
            key for key in state
            if key in ("data", "vectors") or re.fullmatch(r"shard\d+_state__data", key)
        ]
        assert data_keys
        for key in data_keys:
            state[key] = np.array(state[key], dtype=np.float64)
            state[key][5, 3] = bad
        with pytest.raises(ValueError, match=message):
            type(index).from_state(index.spec(), state)


class TestBatchResult:
    def test_from_results_pads_ragged_rows(self):
        from repro.api import SearchResult

        long = SearchResult(ids=[3, 1, 2], scores=[9.0, 8.0, 7.0], stats=SearchStats())
        short = SearchResult(ids=[5], scores=[4.0], stats=SearchStats())
        batch = BatchResult.from_results([long, short])
        assert batch.ids.shape == (2, 3)
        assert batch.ids[1, 1] == BatchResult.PAD_ID
        assert np.isneginf(batch.scores[1, 1])
        # Indexing strips the padding again.
        assert len(batch[1]) == 1
        assert batch[1].ids.tolist() == [5]

    def test_iteration_yields_search_results(self):
        from repro.api import SearchResult

        results = [
            SearchResult(ids=[i], scores=[float(i)], stats=SearchStats())
            for i in range(3)
        ]
        batch = BatchResult.from_results(results)
        assert [r.ids[0] for r in batch] == [0, 1, 2]

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            BatchResult(
                ids=np.zeros((2, 3)), scores=np.zeros((2, 2)),
                stats=[SearchStats(), SearchStats()],
            )
        with pytest.raises(ValueError):
            BatchResult(
                ids=np.zeros((2, 3)), scores=np.zeros((2, 3)), stats=[SearchStats()]
            )
