"""Shared fixtures: small, deterministic datasets reused across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_latent_factor, sample_queries


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20210406)


@pytest.fixture(scope="session")
def latent_small() -> tuple[np.ndarray, np.ndarray]:
    """A 1200×24 latent-factor dataset with 12 in-dataset queries."""
    gen = np.random.default_rng(7)
    items, _ = make_latent_factor(1200, 24, gen)
    queries, _ = sample_queries(items, 12, gen)
    return items, queries


@pytest.fixture(scope="session")
def latent_medium() -> tuple[np.ndarray, np.ndarray]:
    """A 4000×32 latent-factor dataset with 24 in-dataset queries."""
    gen = np.random.default_rng(11)
    items, _ = make_latent_factor(4000, 32, gen)
    queries, _ = sample_queries(items, 24, gen)
    return items, queries


def exact_topk_reference(data: np.ndarray, query: np.ndarray, k: int):
    """Brute-force reference used throughout the tests."""
    ips = data @ query
    order = np.lexsort((np.arange(len(ips)), -ips))[:k]
    return order, ips[order]


def slot_pages_reference(slots, stride_bytes: int, page_size: int) -> set[int]:
    """Brute-force page set of ``slots`` in a file of back-to-back slots.

    Slot ``s`` holds bytes ``[s·stride, (s+1)·stride)``; one byte per
    page-sized step through that range, plus its last byte, lands on every
    page the slot covers.  The page model under test charges the same pages
    in closed form."""
    pages: set[int] = set()
    for slot in slots:
        lo, hi = int(slot) * stride_bytes, (int(slot) + 1) * stride_bytes
        for byte in (*range(lo, hi, page_size), hi - 1):
            pages.add(byte // page_size)
    return pages


def page_set(bitmap: np.ndarray) -> set[int]:
    """The pages a per-query bitmap has charged."""
    return set(np.flatnonzero(bitmap).tolist())


@pytest.fixture(scope="session")
def exact_topk():
    """The brute-force oracle as a fixture, so test modules share one
    implementation of the (-score, id) ground-truth order."""
    return exact_topk_reference
