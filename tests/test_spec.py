"""Tests for repro.spec — IndexSpec, the method registry, and build_index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactMIPS
from repro.baselines.h2alsh import H2ALSH
from repro.baselines.pq import PQBasedMIPS
from repro.baselines.rangelsh import RangeLSH
from repro.baselines.simhash import SimHashMIPS
from repro.core.dynamic import DynamicProMIPS
from repro.core.promips import ProMIPS
from repro.core.rng import generator_state, resolve_rng, restore_generator
from repro.spec import (
    IndexSpec,
    build_index,
    get_method,
    register_method,
    registered_methods,
)

# Small-but-real build parameters per method, exercised across the tests.
SPEC_STRINGS = {
    "promips": "promips(c=0.85, p=0.6, m=5, kp=3, n_key=10, ksp=4)",
    "dynamic": "dynamic(c=0.85, m=5, kp=3, n_key=10, ksp=4, rebuild_threshold=0.5)",
    "h2alsh": "h2alsh(c=0.9)",
    "rangelsh": "rangelsh(c=0.9, n_parts=8)",
    "pq": "pq(n_coarse=4, n_centroids=16, min_local_train=64)",
    "exact": "exact()",
    "simhash": "simhash(n_bits=24)",
}


@pytest.fixture(scope="module")
def small_data(latent_small):
    data, _ = latent_small
    return data[:500]


class TestParse:
    def test_name_only(self):
        assert IndexSpec.parse("exact") == IndexSpec("exact")
        assert IndexSpec.parse("exact()") == IndexSpec("exact", {})

    def test_typed_values(self):
        spec = IndexSpec.parse(
            "promips(c=0.9, m=None, kp=3, label='x', flag=True)"
        )
        assert spec.params == {
            "c": 0.9, "m": None, "kp": 3, "label": "x", "flag": True,
        }

    def test_whitespace_tolerant(self):
        assert IndexSpec.parse("  promips ( c = 0.9 ,p=0.5 ) ") == IndexSpec(
            "promips", {"c": 0.9, "p": 0.5}
        )

    def test_string_values_with_commas(self):
        spec = IndexSpec.parse("exact(note='a, b')")
        assert spec.params["note"] == "a, b"

    @pytest.mark.parametrize("bad", [
        "promips(0.9)",          # positional
        "promips(c=print(1))",   # not a literal
        "promips(**kw)",         # double-star
        "promips(c=0.9",         # unbalanced
        "1promips(c=0.9)",       # bad name
        "",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises((ValueError, TypeError)):
            IndexSpec.parse(bad)

    def test_round_trip_through_str(self):
        for text in SPEC_STRINGS.values():
            spec = IndexSpec.parse(text)
            assert IndexSpec.parse(str(spec)) == spec

    def test_coerce_forms(self):
        spec = IndexSpec("exact", {"page_size": 4096})
        assert IndexSpec.coerce(spec) is spec
        assert IndexSpec.coerce("exact(page_size=4096)") == spec
        assert IndexSpec.coerce(spec.to_dict()) == spec
        with pytest.raises(TypeError):
            IndexSpec.coerce(42)

    def test_numpy_scalars_normalised(self):
        spec = IndexSpec("pq", {"n_coarse": np.int64(8), "f": np.float64(0.5)})
        assert type(spec.params["n_coarse"]) is int
        assert type(spec.params["f"]) is float

    def test_rejects_non_literal_values(self):
        with pytest.raises(TypeError):
            IndexSpec("exact", {"x": object()})


class TestRegistry:
    def test_all_methods_registered(self):
        assert registered_methods() == [
            "dynamic", "exact", "h2alsh", "pq", "promips", "rangelsh",
            "sharded", "simhash",
        ]

    @pytest.mark.parametrize("alias,cls", [
        ("ProMIPS", ProMIPS),
        ("promips", ProMIPS),
        ("H2-ALSH", H2ALSH),
        ("h2alsh", H2ALSH),
        ("Range-LSH", RangeLSH),
        ("PQ-Based", PQBasedMIPS),
        ("pq", PQBasedMIPS),
        ("Exact", ExactMIPS),
        ("SimHash", SimHashMIPS),
        ("Dynamic", DynamicProMIPS),
    ])
    def test_aliases_resolve(self, alias, cls):
        assert get_method(alias) is cls

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            get_method("faiss")

    def test_method_name_attribute(self):
        assert ProMIPS.method_name == "promips"
        assert H2ALSH.method_name == "h2alsh"

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ValueError):
            @register_method("promips")
            class Imposter:
                pass


class TestBuildIndex:
    @pytest.mark.parametrize("method", sorted(SPEC_STRINGS))
    def test_buildable_from_string(self, small_data, method):
        index = build_index(SPEC_STRINGS[method], small_data, rng=3)
        result = index.search(small_data[0], k=5)
        assert len(result.ids) == 5
        assert index.spec().method == method

    def test_spec_round_trips_current_config(self, small_data):
        for method, text in SPEC_STRINGS.items():
            index = build_index(text, small_data, rng=3)
            spec = index.spec()
            assert IndexSpec.parse(str(spec)) == spec, method

    def test_alias_and_case_insensitive(self, small_data):
        index = build_index("Exact", small_data)
        assert isinstance(index, ExactMIPS)

    def test_unknown_parameter_is_value_error(self, small_data):
        with pytest.raises(ValueError, match="promips"):
            build_index("promips(warp_speed=9)", small_data)

    def test_seed_matches_explicit_generator(self, small_data):
        a = build_index(SPEC_STRINGS["promips"], small_data, rng=11)
        b = build_index(
            SPEC_STRINGS["promips"], small_data, rng=np.random.default_rng(11)
        )
        q = small_data[7]
        ra, rb = a.search(q, k=8), b.search(q, k=8)
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.scores, rb.scores)


class TestResolveRng:
    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert resolve_rng(gen) is gen

    def test_seed_and_none(self):
        a = resolve_rng(5).standard_normal(3)
        b = resolve_rng(5).standard_normal(3)
        assert np.array_equal(a, b)
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            resolve_rng(0.5)


class TestGeneratorState:
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_restore_resumes_at_the_saved_position(self, bit_generator):
        gen = np.random.Generator(bit_generator(7))
        gen.standard_normal(11)  # move off the seed position
        blob = generator_state(gen)
        assert blob.dtype == np.uint8
        restored = restore_generator(blob)
        assert np.array_equal(restored.standard_normal(5), gen.standard_normal(5))

    def test_rejects_a_non_bit_generator(self):
        blob = np.frombuffer(b'{"bit_generator": "seed"}', dtype=np.uint8)
        with pytest.raises(ValueError):
            restore_generator(blob)


class TestHarnessRegistrySpecs:
    def test_default_registry_exposes_specs(self):
        from repro.data.datasets import load_dataset
        from repro.eval.harness import default_registry

        dataset = load_dataset("netflix", n=400, dim=12, n_queries=2)
        registry = default_registry(include_extras=True)
        for name in registry.names():
            spec = registry.spec_for(name, dataset)
            assert isinstance(spec, IndexSpec), name
            if spec.method == "sharded":
                # Composite: the page size lives in the inner method's spec.
                inner = IndexSpec.parse(spec.params["inner"])
                assert inner.params.get("page_size") == dataset.page_size, name
            else:
                assert spec.params.get("page_size") == dataset.page_size, name

    def test_inline_spec_builds(self):
        from repro.data.datasets import load_dataset
        from repro.eval.harness import default_registry

        dataset = load_dataset("netflix", n=400, dim=12, n_queries=2)
        registry = default_registry()
        index = registry.build("exact(page_size=1024)", dataset, seed=1)
        assert isinstance(index, ExactMIPS)
        assert index.page_size == 1024
        # Bare canonical names resolve too, not just paren-form specs.
        assert isinstance(registry.build("exact", dataset, seed=1), ExactMIPS)
        with pytest.raises(KeyError):
            registry.build("faiss", dataset, seed=1)
