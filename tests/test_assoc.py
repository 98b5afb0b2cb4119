"""Tests for the limited-associativity (dominant stride) model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.statmodel.assoc import (
    StrideDetector,
    effective_cache_lines,
    effective_cache_lines_many,
    sets_touched_by_stride,
)


def test_sets_touched_unit_stride():
    assert sets_touched_by_stride(1, 256) == 256


def test_sets_touched_pow2_strides():
    assert sets_touched_by_stride(8, 256) == 32      # 512 B stride / 64 B
    assert sets_touched_by_stride(256, 256) == 1
    assert sets_touched_by_stride(512, 256) == 1     # beyond set count


def test_sets_touched_odd_stride_covers_everything():
    assert sets_touched_by_stride(3, 256) == 256


def test_effective_cache_lines():
    # 2048-line, 256-set (8-way) cache with an 8-line stride: 32 sets
    # x 8 ways = 256 effective lines.
    assert effective_cache_lines(2048, 256, 8) == 256
    assert effective_cache_lines(2048, 256, 1) == 2048


def test_invalid_stride_rejected():
    with pytest.raises(ValueError):
        sets_touched_by_stride(0, 256)


def test_detector_finds_dominant_stride():
    detector = StrideDetector()
    for k in range(20):
        detector.observe(pc=1, line=1000 + 8 * k)
    assert detector.dominant_stride(1) == 8


def test_detector_ignores_unit_stride():
    detector = StrideDetector()
    for k in range(20):
        detector.observe(pc=1, line=1000 + k)
    assert detector.dominant_stride(1) is None


def test_detector_needs_history():
    detector = StrideDetector()
    detector.observe(1, 0)
    detector.observe(1, 8)
    assert detector.dominant_stride(1) is None       # too few deltas


def test_detector_rejects_mixed_deltas():
    detector = StrideDetector()
    deltas = [8, 3, 17, 5, 8, 2, 9, 4, 8, 31]
    line = 0
    for d in deltas:
        detector.observe(1, line)
        line += d
    assert detector.dominant_stride(1) is None


def test_detector_threshold():
    # 70% of deltas are 16: dominant at the default 0.6 threshold.
    detector = StrideDetector()
    line = 0
    for k in range(30):
        detector.observe(2, line)
        line += 16 if k % 10 < 7 else 5
    assert detector.dominant_stride(2) == 16


def test_effective_lines_for():
    detector = StrideDetector()
    for k in range(20):
        detector.observe(3, 8 * k)
    assert detector.effective_lines_for(3, 2048, 256) == 256
    assert detector.effective_lines_for(99, 2048, 256) == 2048


def test_history_bounded():
    detector = StrideDetector(max_history=8)
    for k in range(100):
        detector.observe(1, 4 * k)
    assert len(detector._deltas[1]) == 8


def test_observe_many():
    detector = StrideDetector()
    pcs = [5] * 10
    lines = [100 + 8 * k for k in range(10)]
    detector.observe_many(pcs, lines)
    assert detector.dominant_stride(5) == 8


def test_effective_cache_lines_many_matches_scalar():
    strides = np.array([0, 1, 2, 3, 8, 256, 512, 1000])
    expected = [2048] + [effective_cache_lines(2048, 256, s)
                         for s in strides[1:].tolist()]
    assert effective_cache_lines_many(2048, 256, strides).tolist() == \
        expected


# Line streams mixing dominant strides, unit strides, repeats (zero
# deltas) and noise, over a handful of PCs.
_streams = st.lists(
    st.tuples(st.integers(0, 5),
              st.sampled_from([0, 1, 8, 8, 8, -8, 16, 3, 40])),
    max_size=300)


def _feed(pairs):
    pcs = np.array([pc for pc, _ in pairs], dtype=np.int64)
    lines = 1000 + np.cumsum([step for _, step in pairs], dtype=np.int64)
    return pcs, lines


@settings(max_examples=150, deadline=None)
@given(prior=_streams, batch=_streams,
       max_history=st.sampled_from([16, 64]),
       threshold=st.sampled_from([0.25, 0.5, 0.6, 1.0]),
       data=st.data())
def test_dominant_strides_match_sequential_queries(prior, batch, max_history,
                                                   threshold, data):
    one = StrideDetector(threshold=threshold, max_history=max_history)
    many = StrideDetector(threshold=threshold, max_history=max_history)
    prior_pcs, prior_lines = _feed(prior)
    for pc, line in zip(prior_pcs.tolist(), prior_lines.tolist()):
        one.observe(pc, line)
        many.observe(pc, line)
    pcs, lines = _feed(batch)
    at = np.array(sorted(data.draw(st.sets(
        st.integers(0, max(len(batch) - 1, 0)), max_size=len(batch)))
        if batch else []), dtype=np.int64)

    expected = {}
    for position, (pc, line) in enumerate(zip(pcs.tolist(),
                                              lines.tolist())):
        one.observe(pc, line)
        expected[position] = one.dominant_stride(pc) or 0
    got = many.dominant_strides(pcs, lines, at)
    assert got.tolist() == [expected[q] for q in at.tolist()]
    # The carried state equals the per-access (and observe_many) state.
    assert many._deltas == one._deltas
    assert many._last_line == one._last_line


def test_dominant_strides_tie_breaks_to_smallest_delta():
    # Four deltas of 8 and four of 16 (threshold 0.5): np.unique +
    # argmax picks the smaller value.
    detector = StrideDetector(threshold=0.5)
    lines = np.cumsum([0, 16, 8, 16, 8, 16, 8, 16, 8])
    pcs = np.zeros(lines.shape[0], dtype=np.int64)
    got = detector.dominant_strides(pcs, lines, [len(lines) - 1])
    assert got.tolist() == [8]
    assert detector.dominant_stride(0) == 8


def test_dominant_strides_chunked_queries():
    # More queries than one window matrix holds.
    detector = StrideDetector()
    reference = StrideDetector()
    n = StrideDetector._QUERY_CHUNK * 2 + 7
    pcs = np.arange(n, dtype=np.int64) % 3
    lines = (np.arange(n, dtype=np.int64) * (1 + pcs)) * 8
    got = detector.dominant_strides(pcs, lines, np.arange(n))
    for position, (pc, line) in enumerate(zip(pcs.tolist(),
                                              lines.tolist())):
        reference.observe(pc, line)
        assert got[position] == (reference.dominant_stride(pc) or 0)
