"""Tests for the trace position index (the profiling oracle)."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.units import CACHELINE_SHIFT, PAGE_SHIFT
from repro.vff.index import (
    DEFAULT_CHUNK_ACCESSES,
    TraceIndex,
    build_index_tables,
    default_chunk_accesses,
)
from tests.test_record import make_trace


def index_for(lines):
    lines = np.asarray(lines, dtype=np.int64)
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    return TraceIndex(trace)


def test_positions():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.lines.positions(5).tolist() == [0, 2, 4]
    assert idx.lines.positions(42).size == 0


def test_count_in_window():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.lines.count_in(5, 0, 5) == 3
    assert idx.lines.count_in(5, 1, 4) == 1
    assert idx.lines.count_in(7, 2, 5) == 0


def test_last_and_first_in():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.lines.last_in(5, 0, 4) == 2
    assert idx.lines.last_in(5, 0, 5) == 4
    assert idx.lines.last_in(9, 0, 3) == -1
    assert idx.lines.first_in(5, 1, 5) == 2


def test_last_access_before_and_next_after():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.last_access_before(5, 4) == 2
    assert idx.last_access_before(5, 0) == -1
    assert idx.next_access_after(5, 0) == 2
    assert idx.next_access_after(5, 4) == -1


def test_page_stops():
    # Lines 0 and 1 share page 0; line 64 is page 1.
    idx = index_for([0, 1, 64, 0, 64])
    assert idx.page_stops_in([0], 0, 5) == 3
    assert idx.page_stops_in([0, 1], 0, 5) == 5
    assert idx.pages_of_lines([0, 1, 64]).tolist() == [0, 1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=120),
       st.integers(0, 20), st.data())
def test_count_in_matches_brute_force(lines, key, data):
    lo = data.draw(st.integers(0, len(lines)))
    hi = data.draw(st.integers(lo, len(lines)))
    idx = index_for(lines)
    expected = sum(1 for p in range(lo, hi) if lines[p] == key)
    assert idx.lines.count_in(key, lo, hi) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=1, max_size=80))
def test_last_in_matches_brute_force(lines):
    idx = index_for(lines)
    for key in range(11):
        expected = -1
        for p, line in enumerate(lines):
            if line == key:
                expected = p
        assert idx.lines.last_in(key, 0, len(lines)) == expected


# -- multi-window batched queries (the Explorer planner primitives) ----------

def _assert_multi_matches_per_entry(idx, keys, los, his):
    counts, last = idx.lines.multi_counts_and_last(
        np.asarray(keys, dtype=np.int64),
        np.asarray(los, dtype=np.int64),
        np.asarray(his, dtype=np.int64))
    for i, (key, lo, hi) in enumerate(zip(keys, los, his)):
        assert counts[i] == idx.lines.count_in(key, lo, hi), (i, key)
        assert last[i] == idx.lines.last_in(key, lo, hi), (i, key)


def test_multi_counts_and_last_matches_per_entry():
    rng = np.random.default_rng(11)
    lines = rng.integers(0, 40, size=500).tolist()
    idx = index_for(lines)
    # Absent keys (>= 40), duplicate keys with different windows, empty
    # (hi <= lo) windows, and full-trace windows all mixed together.
    keys = rng.integers(0, 50, size=64).tolist() + [3, 3, 3]
    los = rng.integers(0, 500, size=64).tolist() + [0, 100, 400]
    his = [min(500, lo + int(span)) for lo, span in
           zip(los[:64], rng.integers(0, 300, size=64))] + [500, 90, 500]
    _assert_multi_matches_per_entry(idx, keys, los, his)


def test_multi_counts_and_last_escape_path():
    # Few keys with huge runs trips the total > 256 * n_keys escape
    # (per-key binary search) — values must be identical to the gather.
    rng = np.random.default_rng(13)
    lines = rng.integers(0, 4, size=3_000).tolist()
    idx = index_for(lines)
    keys = [1, 2, 9]                      # 9 is absent
    los = [100, 0, 0]
    his = [2_500, 3_000, 3_000]
    assert int(sum(idx.lines.count_in(k, 0, 3_000) for k in keys)) \
        > 256 * len(keys)
    _assert_multi_matches_per_entry(idx, keys, los, his)


def test_multi_counts_and_last_empty_inputs():
    idx = index_for([5, 7, 5])
    counts, last = idx.lines.multi_counts_and_last(
        np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64),
        np.asarray([], dtype=np.int64))
    assert counts.size == 0 and last.size == 0
    counts, last = idx.lines.multi_counts_and_last(
        np.asarray([5], dtype=np.int64), np.asarray([2], dtype=np.int64),
        np.asarray([2], dtype=np.int64))
    assert counts.tolist() == [0] and last.tolist() == [-1]


def test_multi_page_stops_matches_per_window():
    rng = np.random.default_rng(17)
    lines = rng.integers(0, 300, size=800).tolist()
    idx = index_for(lines)
    windows = [(0, 800), (100, 700), (300, 300), (750, 800)]
    pages_per_window = [
        idx.pages_of_lines(rng.choice(lines, size=30)),
        idx.pages_of_lines([0, 64, 128]),
        idx.pages_of_lines([0]),
        np.asarray([], dtype=np.int64),
    ]
    totals = idx.multi_page_stops(pages_per_window,
                                  [lo for lo, _ in windows],
                                  [hi for _, hi in windows])
    for total, pages, (lo, hi) in zip(totals.tolist(), pages_per_window,
                                      windows):
        assert total == idx.page_stops_in(pages, lo, hi)
    assert idx.multi_page_stops([np.asarray([], dtype=np.int64)],
                                [0], [800]).tolist() == [0]


# -- construction ---------------------------------------------------------

def argsort_tables(lines):
    """The oracle: an index's table set from a stable argsort by key.

    Each granularity's grouped positions are the stable argsort of its
    keys.  A line access's successor is its right neighbour in its run
    (-1 at a run end); a page access's rank is its offset in its run.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    tables = {}
    for name, keys in (("lines", lines),
                       ("pages", lines >> (PAGE_SHIFT - CACHELINE_SHIFT))):
        order = np.argsort(keys, kind="stable").astype(np.int64)
        unique, starts = np.unique(keys[order], return_index=True)
        starts = np.append(starts, n).astype(np.int64)
        tables[f"{name}_positions"] = order
        tables[f"{name}_keys"] = unique
        tables[f"{name}_starts"] = starts
        per_access = np.empty(n, dtype=np.int64)
        if name == "lines":
            succ_sorted = np.full(n, -1, dtype=np.int64)
            succ_sorted[:-1] = order[1:]
            succ_sorted[starts[1:] - 1] = -1
            per_access[order] = succ_sorted
            tables["lines_successors"] = per_access
        else:
            per_access[order] = (np.arange(n, dtype=np.int64)
                                 - np.repeat(starts[:-1], np.diff(starts)))
            tables["pages_ranks"] = per_access
    return tables


def _assert_tables_identical(tables, expected, context=""):
    assert set(tables) == set(expected), (context, sorted(tables))
    for name, table in expected.items():
        assert np.array_equal(tables[name], table), (context, name)


def test_argsort_oracle_on_a_known_trace():
    # Lines 0 and 1 share page 0; line 64 is page 1.
    oracle = argsort_tables([0, 64, 1, 0, 64])
    assert oracle["lines_positions"].tolist() == [0, 3, 2, 1, 4]
    assert oracle["lines_keys"].tolist() == [0, 1, 64]
    assert oracle["lines_starts"].tolist() == [0, 2, 3, 5]
    assert oracle["lines_successors"].tolist() == [3, 4, -1, -1, -1]
    assert oracle["pages_positions"].tolist() == [0, 2, 3, 1, 4]
    assert oracle["pages_ranks"].tolist() == [0, 0, 1, 2, 1]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 400), min_size=0, max_size=300),
       st.integers(1, 64))
def test_chunked_build_matches_argsort(lines, chunk):
    """The counting-sort scatter is equivalent to the stable argsort."""
    lines = np.asarray(lines, dtype=np.int64) * 5    # span several pages
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=max(1, len(lines)))
    tables, stats = build_index_tables(trace, chunk_accesses=chunk)
    oracle = argsort_tables(lines)
    _assert_tables_identical(tables, oracle, f"chunk={chunk}")
    _assert_tables_identical(TraceIndex(trace, chunk).tables(), oracle,
                             f"TraceIndex chunk={chunk}")
    assert stats.n_accesses == len(lines)


def test_chunked_build_transients_are_bounded():
    """Peak per-chunk RAM stays O(chunk + keys) while tables are O(n)."""
    rng = np.random.default_rng(0)
    n = 200_000
    lines = rng.integers(0, 4_000, size=n).astype(np.int64)
    trace = make_trace(list(range(n)), lines, n_instructions=n)
    chunk = 4_096
    tables, stats = build_index_tables(trace, chunk_accesses=chunk)
    # Four O(n) int64 tables were produced (positions at both
    # granularities, line successors, page ranks)...
    assert 4 * n * 8 < stats.table_bytes < 5 * n * 8
    # ...but no single chunk step materialized more than a small
    # multiple of the chunk length (merge state is O(unique keys)).
    assert stats.peak_transient_bytes < 16 * chunk * 8
    assert stats.peak_transient_bytes < stats.table_bytes / 20
    _assert_tables_identical(tables, argsort_tables(lines), "bounded")


def test_spilled_index_round_trip(tmp_path):
    """build_spilled publishes once, serves memory-mapped, and answers
    every query identically to the heap-resident index."""
    from repro.store import ArtifactStore

    rng = np.random.default_rng(1)
    lines = rng.integers(0, 900, size=30_000).astype(np.int64) * 3
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    store = ArtifactStore(root=tmp_path / "store", enabled=True)
    key = {"artifact": "trace-index-spill", "trace_fingerprint": "t"}

    spilled = TraceIndex.build_spilled(trace, store, key,
                                       chunk_accesses=1_000)
    assert spilled.mapped
    assert spilled.build_stats is not None
    _assert_tables_identical(spilled.tables(), argsort_tables(lines),
                             "spilled")
    assert set(store.load_mapped(key)) == set(argsort_tables(lines))
    reference = TraceIndex(trace)
    assert not reference.mapped

    positions = rng.integers(0, len(lines), size=256)
    limit = len(lines) - 100
    assert all(
        np.array_equal(x, y)
        for x, y in zip(reference.batch_await_reuse(positions, limit),
                        spilled.batch_await_reuse(positions, limit)))
    watched = np.unique(lines[rng.integers(0, len(lines), size=64)])
    assert np.array_equal(
        np.concatenate(reference.window_access_counts(watched, 50, 20_000)),
        np.concatenate(spilled.window_access_counts(watched, 50, 20_000)))

    # Second build is a pure reopen (no duplicate artifact).
    saves_before = store.saves
    reopened = TraceIndex.build_spilled(trace, store, key)
    assert store.saves == saves_before
    assert reopened.mapped
    reopened.close()
    spilled.close()
    assert spilled.lines is None     # closed indices drop their tables
    assert spilled.line_successors is None


def test_from_tables_ignores_retired_tables(tmp_path):
    """Blobs spilled before the line ranks and page successors were
    retired carry them as extra members; they still open, and a blob
    missing a table the queries read does not."""
    from repro.store import ArtifactStore

    lines = np.arange(2_000, dtype=np.int64) % 97 * 11
    trace = make_trace(list(range(2_000)), lines, n_instructions=2_000)
    tables = argsort_tables(lines)
    legacy = {**tables,
              "lines_ranks": np.zeros(2_000, dtype=np.int64),
              "pages_successors": np.zeros(2_000, dtype=np.int64)}
    store = ArtifactStore(root=tmp_path, enabled=True)
    key = {"artifact": "trace-index-spill", "trace_fingerprint": "old"}
    store.save_arrays(key, legacy, label="trace-index-spill")
    opened = TraceIndex.open(trace, store, key)
    assert opened.mapped
    _assert_tables_identical(opened.tables(), tables, "legacy blob")
    missing = {k: v for k, v in tables.items() if k != "pages_ranks"}
    with pytest.raises(KeyError):
        TraceIndex.from_tables(trace, missing)


def test_spilled_build_without_store_falls_back_chunked(tmp_path):
    from repro.store import ArtifactStore

    lines = np.arange(500, dtype=np.int64) % 17
    trace = make_trace(list(range(500)), lines, n_instructions=500)
    store = ArtifactStore(root=tmp_path / "s", enabled=False)
    index = TraceIndex.build_spilled(trace, store, {"artifact": "x"},
                                     chunk_accesses=64)
    assert not index.mapped
    assert index.build_stats is not None
    _assert_tables_identical(index.tables(), argsort_tables(lines),
                             "fallback")


@pytest.mark.parametrize("raw, expected", [
    (None, DEFAULT_CHUNK_ACCESSES), ("", DEFAULT_CHUNK_ACCESSES),
    ("4096", 4096), (" 7 ", 7)])
def test_index_chunk_env_accepts_positive_integers(monkeypatch, raw,
                                                   expected):
    if raw is None:
        monkeypatch.delenv("REPRO_INDEX_CHUNK", raising=False)
    else:
        monkeypatch.setenv("REPRO_INDEX_CHUNK", raw)
    assert default_chunk_accesses() == expected


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-5"])
def test_index_chunk_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("REPRO_INDEX_CHUNK", raw)
    with pytest.raises(ValueError, match="REPRO_INDEX_CHUNK"):
        default_chunk_accesses()
    trace = make_trace([0, 1], [3, 4], n_instructions=2)
    with pytest.raises(ValueError, match="REPRO_INDEX_CHUNK"):
        TraceIndex(trace)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=400),
       st.data())
def test_live_seal_equals_batch_build(lines, data):
    """Every live seal is, table for table, the batch build of its
    prefix — published through a store (memory-mapped) or kept on the
    heap."""
    from repro.store import ArtifactStore
    from repro.vff.index import LiveIndexBuilder

    lines = np.asarray(lines, dtype=np.int64) * 7
    n = lines.shape[0]
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n), min_size=1,
                                         max_size=6))) | {n})
    seals = set(data.draw(st.lists(st.sampled_from(cuts), min_size=2,
                                   max_size=3)))
    seal_chunk = data.draw(st.integers(1, 50))
    for with_store in (False, True):
        with tempfile.TemporaryDirectory() as root:
            store = (ArtifactStore(root=root, enabled=True) if with_store
                     else None)
            with LiveIndexBuilder(store=store) as builder:
                fed = 0
                for cut in cuts:
                    builder.append(lines[fed:cut])
                    fed = cut
                    if cut not in seals:
                        continue
                    prefix = make_trace(list(range(cut)), lines[:cut],
                                        n_instructions=cut)
                    key = {"artifact": "live-index", "prefix": cut}
                    index = builder.seal(prefix, key=key,
                                         chunk_accesses=seal_chunk)
                    expected, _ = build_index_tables(prefix)
                    assert index.mapped == with_store
                    if with_store:
                        assert set(store.load_mapped(key)) == set(expected)
                    _assert_tables_identical(index.tables(), expected,
                                             (with_store, cut))
