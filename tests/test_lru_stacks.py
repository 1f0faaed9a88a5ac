"""Exact LRU stack-distance oracles: linked list and Fenwick tree.

The two implementations are independent; they must agree with each other
and with a brute-force oracle on every sequence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stack.lru_stack import LinkedListLRUStack, TreeLRUStack, lru_histograms
from repro.workloads import Trace

from .conftest import brute_force_lru_distances

key_sequences = st.lists(st.integers(0, 12), min_size=1, max_size=120)


class TestLinkedListLRUStack:
    def test_cold_then_hit(self):
        s = LinkedListLRUStack()
        assert s.access(1)[0] == -1
        assert s.access(1)[0] == 1

    def test_distances_match_brute_force(self):
        keys = [1, 2, 3, 1, 2, 4, 1, 5, 3, 2]
        s = LinkedListLRUStack()
        got = [s.access(k)[0] for k in keys]
        assert got == brute_force_lru_distances(keys)

    def test_byte_distance_includes_self(self):
        s = LinkedListLRUStack()
        s.access(1, size=10)
        s.access(2, size=20)
        dist, byte_dist = s.access(1, size=10)
        assert dist == 2
        assert byte_dist == 30  # 20 above + own 10

    def test_stack_order(self):
        s = LinkedListLRUStack()
        for k in (1, 2, 3, 1):
            s.access(k)
        assert s.keys_in_stack_order() == [1, 3, 2]


class TestTreeLRUStack:
    @given(key_sequences)
    @settings(max_examples=80, deadline=None)
    def test_matches_linked_list(self, keys):
        a = LinkedListLRUStack()
        b = TreeLRUStack()
        for k in keys:
            assert a.access(k) == b.access(k)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 50)),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_distances_match_linked_list(self, reqs):
        a = LinkedListLRUStack()
        b = TreeLRUStack()
        for k, size in reqs:
            assert a.access(k, size) == b.access(k, size)

    def test_len_counts_distinct(self):
        s = TreeLRUStack()
        for k in (1, 2, 1, 3):
            s.access(k)
        assert len(s) == 3


class TestLRUHistograms:
    def test_histogram_totals(self, small_zipf_trace):
        obj_hist, byte_hist = lru_histograms(small_zipf_trace)
        assert obj_hist.total == len(small_zipf_trace)
        assert byte_hist.total == len(small_zipf_trace)
        assert obj_hist.cold_misses == small_zipf_trace.unique_objects()

    def test_mrc_tail_is_cold_ratio(self, small_zipf_trace):
        obj_hist, _ = lru_histograms(small_zipf_trace)
        sizes, ratios = obj_hist.miss_ratio_curve()
        expected = small_zipf_trace.unique_objects() / len(small_zipf_trace)
        assert ratios[-1] == pytest.approx(expected)

    def test_tree_and_list_agree_end_to_end(self):
        t = Trace(np.array([1, 2, 1, 3, 2, 1, 4, 4, 2]))
        h1, _ = lru_histograms(t, use_tree=True)
        h2, _ = lru_histograms(t, use_tree=False)
        np.testing.assert_array_equal(h1.counts(), h2.counts())
