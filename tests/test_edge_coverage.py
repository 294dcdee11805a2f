"""Edge-path coverage: small-dataset baselines, registry configs, and
accounting details not exercised elsewhere."""

from __future__ import annotations

import numpy as np

from repro.baselines.h2alsh import H2ALSH
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.data.datasets import load_dataset
from repro.eval.harness import default_registry


class TestH2ALSHEdges:
    def test_tiny_dataset_single_shell(self):
        gen = np.random.default_rng(0)
        data = gen.standard_normal((20, 6))
        index = H2ALSH(data, rng=1, min_shell_size=16)
        assert index.n_shells == 1
        result = index.search(data[0], k=5)
        assert len(result) == 5

    def test_uniform_norms_single_shell(self):
        gen = np.random.default_rng(1)
        data = gen.standard_normal((300, 8))
        data /= np.linalg.norm(data, axis=1, keepdims=True)  # all norms 1
        index = H2ALSH(data, rng=1)
        # c0=2 shells: everything fits in one norm interval.
        assert index.n_shells == 1

    def test_max_shells_cap(self):
        gen = np.random.default_rng(2)
        base = gen.standard_normal((400, 6))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        data = base * np.geomspace(1.0, 2.0**20, 400)[:, None]
        index = H2ALSH(data, rng=1, max_shells=4, min_shell_size=4)
        assert index.n_shells <= 4


class TestRegistryConfigs:
    def test_pq_scales_with_dataset(self):
        registry = default_registry()
        small = load_dataset("netflix", n=600, dim=16, n_queries=2)
        index = registry.build("PQ-Based", small, seed=1)
        # Coarse cells and codebook sizes must be clipped to sane ranges.
        assert 8 <= index.n_coarse <= 128
        result = index.search(small.queries[0], k=5)
        assert len(result) == 5

    def test_promips_params_override(self):
        from repro.eval.harness import default_registry as build_registry

        registry = build_registry(
            c=0.8, p=0.7, promips_params=ProMIPSParams(c=0.8, p=0.7, m=4)
        )
        small = load_dataset("netflix", n=500, dim=16, n_queries=2)
        index = registry.build("ProMIPS", small, seed=1)
        assert index.params.c == 0.8
        assert index.m == 4


class TestIncrementalSearchAccounting:
    def test_incremental_pages_at_least_range_search(self, latent_small):
        """Algorithm 1 re-scans growing ranges, so its page count must not
        beat Algorithm 3's single pass (the Quick-Probe motivation)."""
        data, queries = latent_small
        index = ProMIPS.build(data, ProMIPSParams(m=5, kp=3, n_key=10, ksp=4), rng=1)
        worse = 0
        for q in queries[:8]:
            quick = index.search(q, k=5).stats.pages
            incremental = index.search_incremental(q, k=5).stats.pages
            worse += int(incremental >= quick)
        assert worse >= 5  # holds for the clear majority of queries
