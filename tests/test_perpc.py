"""Tests for per-PC reuse statistics (the CoolSim substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.statmodel.perpc import PerPCReuseStats


def test_fallback_until_min_samples():
    stats = PerPCReuseStats(min_samples=4)
    for _ in range(3):
        stats.add(1, 10)
    assert stats.used_fallback(1)
    stats.add(1, 10)
    assert not stats.used_fallback(1)
    assert stats.used_fallback(999)


def test_counts():
    stats = PerPCReuseStats()
    stats.add(1, 5)
    stats.add(2, 7)
    stats.add(2, -1)      # cold
    assert stats.n_pcs == 2
    assert stats.n_samples == 3
    assert stats.samples_for(2) == 2


def test_short_reuse_pc_predicts_hit():
    stats = PerPCReuseStats(min_samples=2)
    for _ in range(50):
        stats.add(1, 5)       # very short reuses
    assert stats.miss_probability(1, cache_lines=100) < 0.05


def test_long_reuse_pc_predicts_miss():
    stats = PerPCReuseStats(min_samples=2)
    # Global distribution: mostly short reuses (the conversion model),
    # plus one PC with reuses far beyond the cache size.
    for _ in range(200):
        stats.add(1, 4)
    for _ in range(50):
        stats.add(2, 5000)
    assert stats.miss_probability(2, cache_lines=50) > 0.9
    assert stats.miss_probability(1, cache_lines=50) < 0.1


def test_conversion_uses_global_distribution():
    """The reuse->stack conversion must use the *global* histogram.

    A long-reuse PC surrounded by short-reuse traffic: the window of its
    reuse contains mostly short-reuse accesses, so its stack distance is
    far below its reuse distance, and a large cache still hits.
    """
    stats = PerPCReuseStats(min_samples=2)
    for _ in range(400):
        stats.add(1, 10)                 # dense hot traffic
    for _ in range(20):
        stats.add(2, 2000)               # sparse long-reuse PC
    # Expected stack distance of a 2000-access window is roughly
    # 11 + 2000 * P(rd > small) ~ 11 + 2000 * (20/420) << 2000.
    assert stats.miss_probability(2, cache_lines=1000) < 0.2
    assert stats.miss_probability(2, cache_lines=50) > 0.8


def test_cold_only_pc():
    stats = PerPCReuseStats(min_samples=1)
    stats.add(7, -1)
    assert stats.miss_probability(7, cache_lines=10) == pytest.approx(1.0)


def test_empty_stats():
    stats = PerPCReuseStats()
    assert stats.miss_probability(1, cache_lines=10) == 0.0


def _assert_same_stats(a, b, sizes):
    assert a._by_pc.keys() == b._by_pc.keys()
    for pc in a._by_pc:
        sa, sb = a._by_pc[pc].state(), b._by_pc[pc].state()
        assert sa[0].tolist() == sb[0].tolist()
        assert sa[1].tolist() == sb[1].tolist()
        assert sa[2] == sb[2]
    ga, gb = a.global_histogram.state(), b.global_histogram.state()
    assert ga[0].tolist() == gb[0].tolist()
    assert ga[1].tolist() == gb[1].tolist() and ga[2] == gb[2]
    for pc in list(a._by_pc) + [999]:
        for size in sizes:
            assert a.miss_probability(pc, size) == \
                b.miss_probability(pc, size)


# Batches of (pc, distance) samples; -1 is a cold sample.
_batches = st.lists(
    st.lists(st.tuples(st.integers(0, 6),
                       st.one_of(st.just(-1), st.integers(0, 5000))),
             max_size=60),
    min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(batches=_batches, min_samples=st.sampled_from([1, 4, 8]))
def test_add_many_matches_sequential_add(batches, min_samples):
    one = PerPCReuseStats(min_samples=min_samples)
    many = PerPCReuseStats(min_samples=min_samples)
    sizes = (1, 16, 100, 2048)
    for batch in batches:
        for pc, distance in batch:
            one.add(pc, distance)
        many.add_many(np.array([pc for pc, _ in batch], dtype=np.int64),
                      np.array([d for _, d in batch], dtype=np.int64))
        # Querying between batches exercises the memoized rd* reset.
        _assert_same_stats(one, many, sizes)
    assert one.n_samples == many.n_samples
    assert one.n_pcs == many.n_pcs


def test_miss_probability_follows_new_samples():
    stats = PerPCReuseStats(min_samples=1)
    for _ in range(50):
        stats.add(1, 4)
    assert stats.miss_probability(1, cache_lines=50) == 0.0
    stats.add_many([2] * 50, [5000] * 50)
    assert stats.miss_probability(1, cache_lines=50) == 0.0
    assert stats.miss_probability(2, cache_lines=50) > 0.9
