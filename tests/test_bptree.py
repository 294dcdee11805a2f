"""Tests for repro.index.bptree — structure, range searches, page accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.bptree import BPlusTree, level_sizes
from repro.storage.pagefile import AccessCounter


def _tree_from_keys(keys, order=4):
    keys = np.sort(np.asarray(list(keys)))
    pairs = [(k, i) for i, k in enumerate(keys.tolist())]
    return BPlusTree(keys, np.arange(keys.size), order), pairs


def _range(tree, lo, hi, counter=None):
    """``(key, value)`` pairs of one range search, in key order."""
    starts, stops = tree.range([lo], [hi], counter=counter)
    run = slice(starts[0], stops[0])
    return list(zip(tree.keys[run].tolist(), tree.values[run].tolist()))


def _pages(tree, lo, hi):
    counter = AccessCounter()
    _range(tree, lo, hi, counter)
    return counter.pages


class TestBulkLoad:
    def test_empty_tree(self):
        tree = BPlusTree([], [], order=4)
        assert len(tree) == 0
        assert _range(tree, -10, 10) == []
        assert (tree.height, tree.n_nodes) == (1, 1)
        # The lone empty leaf is still read.
        assert _pages(tree, -10, 10) == 1

    def test_single_entry(self):
        tree = BPlusTree([5], [7], order=4)
        assert _range(tree, 5, 5) == [(5, 7)]
        assert tree.height == 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BPlusTree([2, 1], [0, 1], order=4)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            BPlusTree([1], [0], order=1)

    def test_rejects_misaligned_values(self):
        with pytest.raises(ValueError):
            BPlusTree([1, 2], [0], order=4)

    def test_height_grows_logarithmically(self):
        tree, _ = _tree_from_keys(range(1000), order=8)
        # 1000 entries / order 8 → 125 leaves → 16 → 2 → 1.
        assert tree.height == 4
        assert tree.n_nodes == 125 + 16 + 2 + 1

    def test_level_sizes(self):
        assert level_sizes(256, 4, 4) == [64, 16, 4, 1]
        assert level_sizes(0, 64, 64) == [1]  # an empty tree keeps one leaf
        assert level_sizes(5, 1, 2) == [5, 3, 2, 1]  # leaf capacity != fanout

    def test_size_bytes(self):
        tree, _ = _tree_from_keys(range(100), order=8)
        assert tree.size_bytes(4096) == tree.n_nodes * 4096


class TestSearch:
    def test_point_lookup(self):
        tree, _ = _tree_from_keys(range(0, 100, 2), order=4)
        assert [v for _, v in _range(tree, 40, 40)] == [20]  # value is the insertion index
        assert _range(tree, 41, 41) == []

    def test_duplicate_keys(self):
        tree = BPlusTree([1, 2, 2, 2, 3], [10, 11, 12, 13, 14], order=2)
        assert [v for _, v in _range(tree, 2, 2)] == [11, 12, 13]
        # A run spanning five leaves: the left-biased descent lands on the
        # first of them, and the walk reads on to the leaf holding 3.
        tree = BPlusTree([1] + [2] * 9 + [3], np.arange(11), order=2)
        counter = AccessCounter()
        assert [v for _, v in _range(tree, 2, 2, counter)] == list(range(1, 10))
        assert counter.pages == 9

    def test_float_keys(self):
        tree = BPlusTree([0.5, 1.25, 2.75], [0, 1, 2], order=4)
        assert [v for _, v in _range(tree, 1.25, 1.25)] == [1]
        assert [v for _, v in _range(tree, 0.6, 2.8)] == [1, 2]


class TestRange:
    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=300),
        st.integers(min_value=-10, max_value=210),
        st.integers(min_value=-10, max_value=210),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_list_reference(self, keys, lo, hi):
        tree, pairs = _tree_from_keys(keys, order=4)
        expected = [(k, v) for k, v in pairs if lo <= k <= hi]
        assert _range(tree, lo, hi) == expected

    def test_inverted_range_is_empty(self):
        tree, _ = _tree_from_keys(range(10))
        assert _range(tree, 5, 3) == []

    def test_full_range(self):
        tree, pairs = _tree_from_keys(range(50), order=4)
        assert _range(tree, -100, 100) == pairs

    def test_batched_ranges_match_single_ranges(self):
        tree, _ = _tree_from_keys(range(0, 300, 3), order=4)
        los, his = [0, 50, 299, 10, -5], [20, 40, 400, 10, 2]
        counter = AccessCounter()
        starts, stops = tree.range(los, his, counter=counter)
        for i, (lo, hi) in enumerate(zip(los, his)):
            assert tree.values[starts[i]:stops[i]].tolist() == [
                v for _, v in _range(tree, lo, hi)
            ]
        assert counter.pages == sum(_pages(tree, lo, hi) for lo, hi in zip(los, his))


class TestPageAccounting:
    """Exact page counts of the left-biased descent plus forward leaf walk."""

    def test_range_counts_descent_plus_leaves(self):
        # 256 keys at order 4: 3 internal nodes on the descent plus all 64
        # leaves; 64 keys: 2 plus 16.
        tree, _ = _tree_from_keys(range(256), order=4)
        assert (tree.height, tree.n_nodes) == (4, 85)
        assert _pages(tree, 0, 255) == 67
        tree, _ = _tree_from_keys(range(64), order=4)
        assert (tree.height, tree.n_nodes) == (3, 21)
        assert _pages(tree, 0, 63) == 18

    def test_narrow_range_is_cheap(self):
        tree, _ = _tree_from_keys(range(256), order=4)
        # The walk reads one leaf past 11 to find the first key > 11.
        assert _pages(tree, 10, 11) == 5
        # 8 is leaf 2's first key: the descent lands on leaf 1 and walks on.
        assert _pages(tree, 8, 8) == 5
        assert _pages(tree, 300, 400) == 4
        assert _pages(tree, 5, 3) == 0  # inverted: nothing is read

    def test_counter_optional(self):
        tree, _ = _tree_from_keys(range(16))
        assert len(_range(tree, 0, 15)) == 16


class TestLargeTreeInvariants:
    def test_random_workload(self):
        gen = np.random.default_rng(3)
        keys = gen.integers(0, 5000, size=4000).tolist()
        tree, pairs = _tree_from_keys(keys, order=32)
        assert len(tree) == 4000
        for lo, hi in [(0, 100), (2500, 2600), (4999, 5001), (-5, -1)]:
            expected = [(k, v) for k, v in pairs if lo <= k <= hi]
            assert _range(tree, lo, hi) == expected
