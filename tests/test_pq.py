"""Tests for repro.baselines.pq — PQ, OPQ, and the PQ-based MIPS baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pq import PQBasedMIPS, ProductQuantizer, train_opq_rotation

from conftest import exact_topk_reference


class TestProductQuantizer:
    @pytest.fixture(scope="class")
    def fitted(self):
        gen = np.random.default_rng(0)
        train = gen.standard_normal((800, 16))
        pq = ProductQuantizer.train(train, 4, 32, np.random.default_rng(1))
        return train, pq

    def test_encode_shape_and_range(self, fitted):
        train, pq = fitted
        codes = pq.encode(train[:50])
        assert codes.shape == (50, 4)
        assert codes.max() < 32

    def test_decode_reduces_error_vs_mean(self, fitted):
        train, pq = fitted
        recon = pq.decode(pq.encode(train))
        pq_err = float(((train - recon) ** 2).sum())
        mean_err = float(((train - train.mean(axis=0)) ** 2).sum())
        assert pq_err < mean_err

    def test_adc_matches_decoded_distances(self, fitted):
        """ADC distance = exact distance to the decoded (reconstructed)
        point — an identity, not an approximation."""
        train, pq = fitted
        q = np.random.default_rng(2).standard_normal(16)
        codes = pq.encode(train[:20])
        tables = pq.adc_tables(q)
        adc = pq.adc_distances(codes, tables)
        recon = pq.decode(codes)
        exact = ((recon - q) ** 2).sum(axis=1)
        assert np.allclose(adc, exact, rtol=1e-9)

    def test_centroid_cap_at_train_size(self):
        gen = np.random.default_rng(3)
        pq = ProductQuantizer.train(gen.standard_normal((10, 8)), 2, 256, gen)
        assert all(cb.shape[0] <= 10 for cb in pq.codebooks)

    def test_subspace_cap_at_dim(self):
        gen = np.random.default_rng(8)
        pq = ProductQuantizer.train(gen.standard_normal((20, 3)), 16, 8, gen)
        assert pq.n_subspaces == 3
        assert [cb.shape[1] for cb in pq.codebooks] == [1, 1, 1]

    def test_rejects_bad_args(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ProductQuantizer.train(np.ones((5, 0)), 2, 4, gen)
        with pytest.raises(ValueError):
            ProductQuantizer.train(np.ones((5, 8)), 0, 4, gen)
        with pytest.raises(ValueError):
            ProductQuantizer.train(np.ones(8), 2, 4, gen)
        with pytest.raises(ValueError):
            ProductQuantizer([])
        with pytest.raises(ValueError):
            ProductQuantizer([np.ones(4)])

    def test_constructed_from_its_codebooks(self, fitted):
        """A quantizer built from another's codebooks encodes, decodes and
        scores exactly like it (the load path of PQBasedMIPS)."""
        train, pq = fitted
        copy = ProductQuantizer([cb.copy() for cb in pq.codebooks])
        assert copy.dim == pq.dim and copy.n_subspaces == pq.n_subspaces
        codes = pq.encode(train[:40])
        assert np.array_equal(copy.encode(train[:40]), codes)
        assert np.array_equal(copy.decode(codes), pq.decode(codes))
        q = np.random.default_rng(9).standard_normal(16)
        for a, b in zip(copy.adc_tables(q), pq.adc_tables(q)):
            assert np.array_equal(a, b)

    def test_size_bytes(self, fitted):
        _, pq = fitted
        assert pq.size_bytes() == sum(cb.size * 4 for cb in pq.codebooks)


class TestOPQ:
    def test_rotation_is_orthogonal(self):
        gen = np.random.default_rng(4)
        train = gen.standard_normal((300, 12))
        rotation = train_opq_rotation(train, 4, 16, gen, n_iter=2)
        assert np.allclose(rotation @ rotation.T, np.eye(12), atol=1e-9)

    def test_rotation_reduces_quantization_error(self):
        gen = np.random.default_rng(5)
        # Correlated data where axis-aligned subspaces are a bad split.
        base = gen.standard_normal((500, 3))
        mix = gen.standard_normal((3, 12))
        train = base @ mix + 0.05 * gen.standard_normal((500, 12))

        def quant_error(rotation):
            rotated = train @ rotation
            pq = ProductQuantizer.train(rotated, 4, 16, np.random.default_rng(6))
            recon = pq.decode(pq.encode(rotated))
            return float(((rotated - recon) ** 2).sum())

        err_identity = quant_error(np.eye(12))
        err_opq = quant_error(train_opq_rotation(train, 4, 16, gen, n_iter=4))
        assert err_opq <= err_identity * 1.05  # never meaningfully worse

    def test_zero_iterations_returns_identity(self):
        gen = np.random.default_rng(7)
        rotation = train_opq_rotation(gen.standard_normal((50, 6)), 2, 4, gen, n_iter=0)
        assert np.allclose(rotation, np.eye(6))


class TestPQBasedMIPS:
    @pytest.fixture(scope="class")
    def built(self, latent_medium):
        data, queries = latent_medium
        index = PQBasedMIPS(
            data, rng=8, n_coarse=24, n_centroids=32, min_local_train=150,
            n_subspaces=8,
        )
        return data, queries, index

    def test_quality(self, built):
        data, queries, index = built
        ratios = []
        for q in queries:
            _, exact_ips = exact_topk_reference(data, q, 10)
            result = index.search(q, k=10)
            ratios.append(float(np.mean(result.scores / exact_ips[: len(result.scores)])))
        assert float(np.mean(ratios)) >= 0.95

    def test_cells_partition_dataset(self, built):
        data, _, index = built
        ids = np.concatenate([c.member_ids for c in index.cells])
        assert sorted(ids.tolist()) == list(range(len(data)))

    def test_probes_at_most_n_probe_cells(self, built):
        _, queries, index = built
        result = index.search(queries[0], k=5)
        assert result.stats.extras["cells_probed"] <= index.n_probe

    def test_rerank_uses_exact_scores(self, built):
        data, queries, index = built
        result = index.search(queries[1], k=5)
        assert np.allclose(result.scores, data[result.ids] @ queries[1])

    def test_index_size_includes_rotations(self, built):
        data, _, index = built
        local_cells = [c for c in index.cells if c.pq is not index._global_pq]
        if local_cells:
            rotation_bytes = sum(c.rotation.size * 4 for c in local_cells)
            assert index.index_size_bytes() > rotation_bytes

    def test_rejects_bad_inputs(self, built):
        _, queries, index = built
        with pytest.raises(ValueError):
            index.search(queries[0], k=0)
        with pytest.raises(ValueError):
            PQBasedMIPS(np.empty((0, 3)))

    def test_small_dataset_fallback(self):
        gen = np.random.default_rng(9)
        data = gen.standard_normal((60, 8))
        index = PQBasedMIPS(data, rng=10, n_coarse=4, n_centroids=8, n_probe=2)
        result = index.search(data[0], k=5)
        assert len(result) == 5
