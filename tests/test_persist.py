"""Tests for repro.core.persist — universal save/load of built indexes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.persist import inspect_index, load_index, save_index
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.spec import build_index, registered_methods

# One buildable spec per registered method (small, fast parameters).  A newly
# registered method fails `test_specs_cover_every_method` until it gets an
# entry here, and with it round-trip coverage.
METHOD_SPECS = {
    "promips": "promips(c=0.85, p=0.6, m=5, kp=3, n_key=10, ksp=4)",
    "dynamic": "dynamic(c=0.85, m=5, kp=3, n_key=10, ksp=4)",
    "h2alsh": "h2alsh(c=0.9)",
    "rangelsh": "rangelsh(c=0.9, n_parts=8)",
    "pq": "pq(n_coarse=4, n_centroids=16, min_local_train=64)",
    "exact": "exact()",
    "simhash": "simhash(n_bits=24)",
    "sharded": (
        "sharded(inner='promips(c=0.85, p=0.6, m=5, kp=3, n_key=10, ksp=4)',"
        " shards=3)"
    ),
}


def test_specs_cover_every_method():
    assert set(METHOD_SPECS) == set(registered_methods())


@pytest.fixture(scope="module")
def saved(tmp_path_factory, latent_small):
    data, queries = latent_small
    index = ProMIPS.build(
        data, ProMIPSParams(m=5, kp=3, n_key=10, ksp=4, c=0.85, p=0.6), rng=7
    )
    path = save_index(index, tmp_path_factory.mktemp("idx") / "promips")
    return data, queries, index, path


class TestRoundtrip:
    def test_suffix_enforced(self, saved):
        *_, path = saved
        assert path.suffix == ".npz"
        assert path.exists()

    def test_identical_search_results(self, saved):
        data, queries, original, path = saved
        restored = load_index(path)
        for q in queries[:6]:
            a = original.search(q, k=10)
            b = restored.search(q, k=10)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.scores, b.scores)
            assert a.stats.pages == b.stats.pages
            assert a.stats.candidates == b.stats.candidates

    def test_params_restored(self, saved):
        *_, original, path = saved[1:]
        restored = load_index(path)
        assert restored.params == original.params
        assert restored.m == original.m

    def test_ring_geometry_restored(self, saved):
        data, _, original, path = saved
        restored = load_index(path)
        assert np.allclose(restored.ring.centers, original.ring.centers)
        assert restored.ring.epsilon == original.ring.epsilon
        assert restored.ring.C == original.ring.C
        assert restored.ring.n_subpartitions == original.ring.n_subpartitions
        assert np.array_equal(restored.ring.layout_order, original.ring.layout_order)

    def test_incremental_search_also_matches(self, saved):
        data, queries, original, path = saved
        restored = load_index(path)
        a = original.search_incremental(queries[0], k=5)
        b = restored.search_incremental(queries[0], k=5)
        assert np.array_equal(a.ids, b.ids)

    def test_rejects_future_format(self, saved, tmp_path):
        import json
        *_, path = saved
        blob = dict(np.load(path))
        meta = json.loads(bytes(blob["__meta__"].tobytes()).decode())
        meta["format_version"] = 999
        blob["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **blob)
        with pytest.raises(ValueError):
            load_index(bad)

    def test_rejects_non_index_file(self, tmp_path):
        bad = tmp_path / "not_an_index.npz"
        np.savez_compressed(bad, xs=np.arange(3))
        with pytest.raises(ValueError):
            load_index(bad)


class TestUniversalRoundtrip:
    """Every registered method survives save/load with identical answers."""

    @pytest.fixture(scope="class")
    def workload(self, latent_small):
        data, queries = latent_small
        return data[:500], queries[:6]

    @pytest.mark.parametrize("method", sorted(METHOD_SPECS))
    def test_identical_search_and_batch(self, workload, tmp_path, method):
        data, queries = workload
        original = build_index(METHOD_SPECS[method], data, rng=5)
        path = save_index(original, tmp_path / method)
        restored = load_index(path)
        assert type(restored) is type(original)
        assert restored.spec() == original.spec()
        for q in queries:
            a = original.search(q, k=10)
            b = restored.search(q, k=10)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
            assert a.stats.pages == b.stats.pages
            assert a.stats.candidates == b.stats.candidates
        ba = original.search_many(queries, k=10)
        bb = restored.search_many(queries, k=10)
        assert np.array_equal(ba.ids, bb.ids)
        assert np.array_equal(ba.scores, bb.scores)
        # The load restores every stored array byte for byte.
        state_a, state_b = original.state(), restored.state()
        assert sorted(state_a) == sorted(state_b)
        for key, value in state_a.items():
            value, other = np.asarray(value), np.asarray(state_b[key])
            assert (value.dtype, value.shape) == (other.dtype, other.shape), key
            assert value.tobytes() == other.tobytes(), key

    def test_dynamic_state_stores_vectors_once(self, workload):
        data, _ = workload
        index = build_index(METHOD_SPECS["dynamic"], data, rng=5)
        state = index.state()
        # The inner index's data rows are a subset of `vectors`; storing
        # both would double the file's dominant payload.
        assert "promips_data" not in state
        assert state["vectors"].shape == data.shape

    def test_dynamic_roundtrip_preserves_mutations(self, workload, tmp_path):
        data, queries = workload
        index = build_index(METHOD_SPECS["dynamic"], data, rng=5)
        gen = np.random.default_rng(0)
        inserted = [index.insert(v) for v in gen.standard_normal((8, data.shape[1]))]
        index.delete(3)
        index.delete(inserted[0])
        restored = load_index(save_index(index, tmp_path / "dyn"))
        assert restored.n_live == index.n_live
        assert restored.delta_size == index.delta_size
        for q in queries:
            a, b = index.search(q, k=8), restored.search(q, k=8)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
        # The reloaded index keeps mutating from where it left off.
        new_id = restored.insert(queries[0])
        assert new_id == index._next_id
        with pytest.raises(KeyError):
            restored.delete(3)

    def test_dynamic_legacy_pre15_state_loads(self, workload):
        # 1.4 dynamic envelopes stored every vector positionally by external
        # id, had no row_external/next_id/reclaimed_bytes keys, and listed
        # deleted *delta* points in the tombstone set.  from_state must keep
        # accepting that layout (the envelope format version is unchanged).
        from repro.core.dynamic import DynamicProMIPS

        data, queries = workload
        index = build_index(METHOD_SPECS["dynamic"], data, rng=5)
        gen = np.random.default_rng(0)
        inserted = [index.insert(v) for v in gen.standard_normal((4, data.shape[1]))]
        index.delete(3)
        state = index.state()  # still positional: no compaction/orphans yet
        legacy = {
            k: v
            for k, v in state.items()
            if k not in ("row_external", "next_id", "reclaimed_bytes")
        }
        # Emulate a 1.4-style deleted delta point: tombstoned, out of delta,
        # its vector still stored positionally.
        legacy["tombstones"] = np.sort(
            np.append(state["tombstones"], inserted[1])
        ).astype(np.int64)
        legacy["delta_ids"] = np.array(
            [e for e in state["delta_ids"].tolist() if e != inserted[1]],
            dtype=np.int64,
        )
        restored = DynamicProMIPS.from_state(index.spec(), legacy)

        index.delete(inserted[1])  # the same mutation, current semantics
        assert restored.n_live == index.n_live
        assert restored.delta_size == index.delta_size
        assert restored.tombstone_count == index.tombstone_count
        assert restored._next_id == index._next_id
        for q in queries:
            a, b = index.search(q, k=8), restored.search(q, k=8)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
        assert inserted[1] not in restored.search(queries[0], k=50).ids
        with pytest.raises(KeyError):
            restored.delete(inserted[1])

    def test_inspect_index_envelope(self, workload, tmp_path):
        data, _ = workload
        index = build_index("exact(page_size=2048)", data)
        path = save_index(index, tmp_path / "idx", extra_meta={"note": "hello"})
        meta = inspect_index(path)
        assert meta["format_version"] == 2
        assert meta["method"] == "exact"
        assert meta["spec"] == {"method": "exact", "params": {"page_size": 2048}}
        assert meta["extras"] == {"note": "hello"}

    def test_unregistered_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_index(object(), tmp_path / "nope")


class TestLegacySubpartitionMembers:
    """Envelopes written before 1.8 also carry ``ring_sp_members``, the
    sub-partition members concatenated in sub-partition order (a copy of
    ``ring_layout_order``); the key is ignored on load and no longer
    written."""

    def test_state_with_sp_members_answers_identically(self, saved):
        _, queries, original, _ = saved
        ring = original.ring
        state = original.state()
        state["ring_sp_members"] = np.concatenate(
            [ring.members(i) for i in range(ring.n_subpartitions)]
        ).astype(np.int64)
        restored = ProMIPS.from_state(original.spec(), state)
        for q in queries[:6]:
            a, b = original.search(q, k=10), restored.search(q, k=10)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
            assert a.stats.pages == b.stats.pages
            assert a.stats.candidates == b.stats.candidates
            assert a.stats.extras == b.stats.extras

    def test_save_index_omits_sp_members(self, saved):
        *_, path = saved
        with np.load(path) as archive:
            assert archive.files
            assert not [key for key in archive.files if "sp_members" in key]


class TestLegacyFormatV1:
    def test_v1_promips_file_still_loads(self, latent_small, tmp_path):
        from dataclasses import asdict

        data, queries = latent_small
        index = ProMIPS.build(
            data[:400], ProMIPSParams(m=5, kp=3, n_key=10, ksp=4), rng=7
        )
        # Write the pre-registry, ProMIPS-only layout by hand.
        meta = {"format_version": 1, "params": asdict(index.params)}
        ring_state = {f"ring_{k}": v for k, v in index.ring.state().items()}
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            data=index._data,
            projection_matrix=index.projection.matrix,
            **ring_state,
        )
        restored = load_index(path)
        assert isinstance(restored, ProMIPS)
        assert restored.params == index.params
        for q in queries[:4]:
            a, b = index.search(q, k=5), restored.search(q, k=5)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
        assert inspect_index(path)["method"] == "promips"
