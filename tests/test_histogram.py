"""Tests for the sparse reuse-distance histogram."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.statmodel.histogram import ReuseHistogram


def test_add_and_totals():
    h = ReuseHistogram()
    h.add(3)
    h.add(3, weight=2.0)
    h.add_cold()
    assert h.total == pytest.approx(4.0)
    assert h.n_finite == pytest.approx(3.0)
    assert len(h) == 1


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        ReuseHistogram().add(-2)


def test_add_many_routes_negatives_to_cold():
    h = ReuseHistogram()
    h.add_many([1, 2, -1, 2, -1])
    assert h.cold == 2
    assert h.n_finite == 3


def test_ccdf_step_function():
    h = ReuseHistogram()
    h.add_many([1, 1, 5])
    assert h.ccdf(0) == pytest.approx(1.0)
    assert h.ccdf(1) == pytest.approx(1 / 3)
    assert h.ccdf(4) == pytest.approx(1 / 3)
    assert h.ccdf(5) == pytest.approx(0.0)


def test_ccdf_includes_cold_in_tail():
    h = ReuseHistogram()
    h.add(2)
    h.add_cold()
    assert h.ccdf(100) == pytest.approx(0.5)


def test_quantile():
    h = ReuseHistogram()
    h.add_many([1, 2, 3, 4])
    assert h.quantile(0.5) == 2
    assert h.quantile(1.0) == 4
    h.add_cold(weight=4)
    assert h.quantile(0.9) is None      # lands in the cold tail
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_merge():
    a = ReuseHistogram()
    a.add(1)
    b = ReuseHistogram()
    b.add(1)
    b.add_cold()
    a.merge(b)
    assert a.total == pytest.approx(3.0)
    assert a.ccdf(0) == pytest.approx(1.0)     # both d=1 samples exceed 0
    assert a.ccdf(1) == pytest.approx(1 / 3)   # only the cold mass remains


def test_mean_finite():
    h = ReuseHistogram()
    assert h.mean_finite() == 0.0
    h.add_many([2, 4])
    assert h.mean_finite() == pytest.approx(3.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
def test_ccdf_matches_brute_force(distances):
    h = ReuseHistogram()
    h.add_many(distances)
    arr = np.asarray(distances)
    for k in (0, 1, 5, 50, 150):
        expected = np.count_nonzero(arr > k) / len(arr)
        assert h.ccdf(k) == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=100),
       st.integers(0, 10))
def test_ccdf_monotone_nonincreasing(distances, n_cold):
    h = ReuseHistogram()
    h.add_many(distances)
    h.add_cold(weight=n_cold)
    ks = np.arange(0, 60)
    values = h.ccdf(ks)
    assert np.all(np.diff(values) <= 1e-12)


def test_cached_queries_follow_updates():
    # total/n_finite/ccdf read values cached at materialization; every
    # update must invalidate them.
    h = ReuseHistogram()
    h.add_many([1, 5, 5])
    assert h.total == 3.0 and h.ccdf(2) == pytest.approx(2 / 3)
    h.add(9)
    assert h.n_finite == 4.0 and h.ccdf(5) == pytest.approx(1 / 4)
    h.add_cold()
    assert h.total == 5.0 and h.ccdf(9) == pytest.approx(1 / 5)
    h.merge(ReuseHistogram.from_state([0], [5.0], 0.0))
    assert h.total == 10.0 and h.ccdf(0) == pytest.approx(5 / 10)
