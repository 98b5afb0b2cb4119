"""Per-line and per-page access-position indices over a trace.

A real DeLorean run discovers reuses by executing with watchpoints; the
trace-driven substitute answers the same questions from a sorted index:
*when was line L last accessed before access position P?* and *how many
accesses hit page G inside a window?* (the stop count a page-protection
watchpoint would have taken).  Every query is a binary search or an
O(1) table lookup.

One builder constructs every index from scratch:
:func:`build_index_tables` scans the trace in bounded windows
(``REPRO_INDEX_CHUNK``) and produces, per granularity, the grouped
position tables plus the one per-access table the batched watchpoint
kernels read — line *successors* and page *ranks*.  Its callers only
choose where the tables live:

* ``TraceIndex(trace)`` keeps them on the heap;
* :meth:`TraceIndex.build_spilled` writes them to spill files, publishes
  them through the artifact store as an uncompressed npz and serves
  them back as read-only memory maps (:meth:`TraceIndex.open`).
  Queries then touch only the table pages the watchpoints direct them
  to, so a strategy run's resident set scales with the sampled regions
  rather than the trace length.

:class:`LiveIndexBuilder` maintains the same table set incrementally
over an append-only feed.
"""

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro import kernels, telemetry
from repro.util.units import CACHELINE_SHIFT, PAGE_SHIFT

#: Default accesses per construction chunk (~24 MiB of transient arrays
#: at 8-byte keys; override per call or with ``REPRO_INDEX_CHUNK``).
DEFAULT_CHUNK_ACCESSES = 1 << 20

_PAGE_OF_LINE_SHIFT = PAGE_SHIFT - CACHELINE_SHIFT

_GRANULARITIES = ("lines", "pages")

#: The per-access table each granularity carries next to its grouped
#: ``positions``/``keys``/``starts``: the only ones a query reads.
_PER_ACCESS = {"lines": "successors", "pages": "ranks"}


def _as_int64(array):
    """``array`` as contiguous int64 — without copying when it already
    is (memory-mapped views must be adopted, not materialized)."""
    array = np.asanyarray(array)
    if array.dtype != np.int64 or not array.flags.c_contiguous:
        array = np.ascontiguousarray(array, dtype=np.int64)
    return array


class _PositionIndex:
    """Sorted access positions grouped by key (line or page)."""

    def __init__(self, tables, prefix):
        """Adopt the ``prefix`` granularity's grouped tables.

        Memory-mapped views are adopted as-is (no copy) when already the
        right dtype, which is what keeps a spilled index out of RAM.
        """
        self._positions = _as_int64(tables[f"{prefix}_positions"])
        self._keys = np.asanyarray(tables[f"{prefix}_keys"])
        self._starts = _as_int64(tables[f"{prefix}_starts"])

    def tables(self, prefix):
        """The persistable position tables, namespaced by ``prefix``."""
        return {
            f"{prefix}_positions": self._positions,
            f"{prefix}_keys": self._keys,
            f"{prefix}_starts": self._starts,
        }

    def positions(self, key):
        """Ascending access positions of ``key`` (empty if unseen)."""
        idx = int(np.searchsorted(self._keys, key))
        if idx >= self._keys.shape[0] or self._keys[idx] != key:
            return np.empty(0, dtype=np.int64)
        return self._positions[self._starts[idx]:self._starts[idx + 1]]

    def count_in(self, key, lo, hi):
        """Number of accesses to ``key`` with position in ``[lo, hi)``."""
        positions = self.positions(key)
        return int(np.searchsorted(positions, hi, side="left")
                   - np.searchsorted(positions, lo, side="left"))

    def last_in(self, key, lo, hi):
        """Largest position of ``key`` in ``[lo, hi)``, or -1."""
        positions = self.positions(key)
        idx = int(np.searchsorted(positions, hi, side="left")) - 1
        if idx < 0 or positions[idx] < lo:
            return -1
        return int(positions[idx])

    def first_in(self, key, lo, hi):
        """Smallest position of ``key`` in ``[lo, hi)``, or -1."""
        positions = self.positions(key)
        idx = int(np.searchsorted(positions, lo, side="left"))
        if idx >= positions.shape[0] or positions[idx] >= hi:
            return -1
        return int(positions[idx])

    def batch_counts_and_last(self, keys, lo, hi):
        """Window counts and last positions for many keys at once.

        Equivalent to per-key ``count_in`` / ``last_in`` over ``[lo,
        hi)`` but batched: every key's position run is gathered with
        one grouped-arange, masked against the window, and reduced.
        Gathering is window-independent (it touches every occurrence of
        every key), so when the runs dwarf the per-key binary-search
        cost the loop is used instead — results are identical either
        way.  Returns ``(counts, last)`` aligned with ``keys`` (``-1``
        marks a key unseen in the window).
        """
        keys = np.asarray(keys, dtype=np.int64)
        n_keys = keys.shape[0]
        counts = np.zeros(n_keys, dtype=np.int64)
        last = np.full(n_keys, -1, dtype=np.int64)
        if n_keys == 0 or hi <= lo or self._keys.shape[0] == 0:
            return counts, last
        slot = np.minimum(np.searchsorted(self._keys, keys),
                          self._keys.shape[0] - 1)
        present = self._keys[slot] == keys
        starts = np.where(present, self._starts[slot], 0)
        lengths = np.where(present, self._starts[slot + 1] - starts, 0)
        total = int(lengths.sum())
        if total == 0:
            return counts, last
        if total > 256 * n_keys:
            for k in np.flatnonzero(present).tolist():
                run = self._positions[starts[k]:starts[k] + lengths[k]]
                at_hi = int(np.searchsorted(run, hi, side="left"))
                at_lo = int(np.searchsorted(run, lo, side="left"))
                counts[k] = at_hi - at_lo
                if at_hi > at_lo:
                    last[k] = int(run[at_hi - 1])
            return counts, last
        key_of = np.repeat(np.arange(n_keys, dtype=np.int64), lengths)
        cum = np.cumsum(lengths) - lengths
        flat = (np.repeat(starts - cum, lengths)
                + np.arange(total, dtype=np.int64))
        positions = self._positions[flat]
        in_window = (positions >= lo) & (positions < hi)
        matched_key = key_of[in_window]
        matched_pos = positions[in_window]
        counts += np.bincount(matched_key, minlength=n_keys)
        np.maximum.at(last, matched_key, matched_pos)
        return counts, last

    def multi_counts_and_last(self, keys, los, his):
        """Per-entry window counts and last positions, many windows at
        once.

        Aligned arrays: entry ``i`` asks for ``keys[i]`` over
        ``[los[i], his[i])`` — the multi-window generalization of
        :meth:`batch_counts_and_last` (which this reduces to when every
        entry shares one window).  One gather serves *all* windows, so
        a planner profiling every region's window in a single call
        touches each mapped position run once instead of once per
        region.  The same run-size escape applies: when the gathered
        runs dwarf the per-entry binary searches, the loop wins and
        produces identical values.  Returns ``(counts, last)`` aligned
        with ``keys`` (``-1`` marks an entry unseen in its window).
        """
        keys = np.asarray(keys, dtype=np.int64)
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        n_keys = keys.shape[0]
        counts = np.zeros(n_keys, dtype=np.int64)
        last = np.full(n_keys, -1, dtype=np.int64)
        if n_keys == 0 or self._keys.shape[0] == 0:
            return counts, last
        slot = np.minimum(np.searchsorted(self._keys, keys),
                          self._keys.shape[0] - 1)
        present = (self._keys[slot] == keys) & (his > los)
        starts = np.where(present, self._starts[slot], 0)
        lengths = np.where(present, self._starts[slot + 1] - starts, 0)
        total = int(lengths.sum())
        if total == 0:
            return counts, last
        if total > 256 * n_keys:
            for k in np.flatnonzero(lengths).tolist():
                run = self._positions[starts[k]:starts[k] + lengths[k]]
                at_hi = int(np.searchsorted(run, his[k], side="left"))
                at_lo = int(np.searchsorted(run, los[k], side="left"))
                counts[k] = at_hi - at_lo
                if at_hi > at_lo:
                    last[k] = int(run[at_hi - 1])
            return counts, last
        key_of = np.repeat(np.arange(n_keys, dtype=np.int64), lengths)
        cum = np.cumsum(lengths) - lengths
        flat = (np.repeat(starts - cum, lengths)
                + np.arange(total, dtype=np.int64))
        positions = self._positions[flat]
        in_window = ((positions >= los[key_of])
                     & (positions < his[key_of]))
        matched_key = key_of[in_window]
        counts += np.bincount(matched_key, minlength=n_keys)
        np.maximum.at(last, matched_key, positions[in_window])
        return counts, last


@dataclass
class IndexBuildStats:
    """What the chunked builder materialized, for bounded-RSS proofs.

    ``peak_transient_bytes`` is the largest sum of in-RAM temporaries
    any single chunk step allocated — the builder's working set beyond
    the (spillable) output tables and the O(unique keys) merge state.
    """

    n_accesses: int
    chunk_accesses: int
    n_chunks: int
    peak_transient_bytes: int
    key_state_bytes: int
    table_bytes: int


def default_chunk_accesses():
    """Chunk length from ``REPRO_INDEX_CHUNK`` (accesses), or default.

    A value that is not a positive integer raises rather than silently
    meaning the default — the ``REPRO_INDEX_SPILL`` contract, so a typo
    cannot mask a deliberate setting.
    """
    raw = os.environ.get("REPRO_INDEX_CHUNK", "").strip()
    if not raw:
        return DEFAULT_CHUNK_ACCESSES
    try:
        chunk = int(raw)
    except ValueError:
        chunk = 0
    if chunk < 1:
        raise ValueError(
            f"REPRO_INDEX_CHUNK must be a positive integer, got {raw!r}")
    return chunk


def _chunk_length(chunk_accesses):
    return max(1, int(chunk_accesses if chunk_accesses is not None
                      else default_chunk_accesses()))


def _heap_table(name, shape, dtype):
    return np.empty(shape, dtype=dtype)


@contextlib.contextmanager
def _table_allocator(root=None, prefix="index-spill-"):
    """An ``allocate(name, shape, dtype)`` for the index builders.

    Without ``root`` tables live on the heap.  With one, each non-empty
    table is a ``.npy`` memmap in a scratch directory under ``root``
    (next to the store: ``/tmp`` may be RAM-backed), removed on exit.
    """
    if root is None:
        yield _heap_table
        return
    os.makedirs(root, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix=prefix, dir=root)

    def allocate(name, shape, dtype):
        if not shape[0]:
            return _heap_table(name, shape, dtype)
        return np.lib.format.open_memmap(
            os.path.join(spill_dir, name + ".npy"), mode="w+",
            dtype=dtype, shape=shape)

    try:
        yield allocate
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


def _window_runs(window):
    """A window's stable argsort, cut into runs of equal keys.

    Returns ``(order, run_start, run_count, run_keys)``: run ``r`` is
    ``order[run_start[r]:run_start[r] + run_count[r]]``, the ascending
    window offsets holding key ``run_keys[r]`` (sorted, unique).
    """
    m = window.shape[0]
    order = np.argsort(window, kind="stable")
    sorted_keys = window[order]
    is_start = np.empty(m, dtype=bool)
    is_start[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_start[1:])
    run_start = np.flatnonzero(is_start)
    run_count = np.diff(run_start, append=m)
    return order, run_start, run_count, sorted_keys[run_start]


def _scatter_window(window, base, keys, cursors, positions):
    """Counting-sort scatter of one window of accesses.

    ``window[i]`` is the key of access ``base + i``.  Each access is
    written into ``positions`` at its key's cursor (``cursors`` is
    aligned with the sorted ``keys`` table), ascending within a key, and
    the cursors advance past the window.  Returns the bytes of the
    temporaries allocated.
    """
    order, run_start, run_count, run_keys = _window_runs(window)
    run_slot = np.searchsorted(keys, run_keys)
    dest = np.repeat(cursors[run_slot] - run_start, run_count)
    dest += np.arange(window.shape[0], dtype=np.int64)
    order += base
    positions[dest] = order
    cursors[run_slot] += run_count
    # At most three window-length arrays are alive at once, plus the
    # four per-run arrays.
    return 3 * order.nbytes + 4 * run_start.nbytes


def build_index_tables(trace, chunk_accesses=None, allocate=None):
    """Build an index's table set in bounded chunks.

    Scans ``trace.mem_line`` (which may be a memory map) in windows of
    ``chunk_accesses`` and produces, for both granularities, the
    ``positions``/``keys``/``starts`` tables of a stable argsort by key,
    plus line ``successors`` and page ``ranks`` (see
    :class:`TraceIndex`).  Output arrays come from
    ``allocate(name, shape, dtype)`` so callers choose where the
    O(accesses) product lives (heap, or spill-file memmaps); the builder
    itself only ever materializes O(chunk + unique keys).

    Equivalence to the argsort: the scatter is a counting sort — chunks
    are scanned in ascending position order and each chunk's
    occurrences are placed in key-run order behind per-key cursors, so
    every run holds its positions ascending, exactly like a stable
    argsort by key.

    Returns ``(tables, stats)``.
    """
    build_t0 = time.perf_counter()
    n = int(trace.n_accesses)
    chunk = _chunk_length(chunk_accesses)
    allocate = allocate or _heap_table
    mem_line = trace.mem_line
    peak_transient = 0

    def chunk_keys(lo, hi):
        lines = np.asarray(mem_line[lo:hi], dtype=np.int64)
        return {"lines": lines, "pages": lines >> _PAGE_OF_LINE_SHIFT}

    # Pass 1: per-key occurrence counts (merged chunk-by-chunk).
    keys = {name: np.empty(0, dtype=np.int64) for name in _GRANULARITIES}
    counts = {name: np.empty(0, dtype=np.int64) for name in _GRANULARITIES}
    for lo in range(0, n, chunk):
        batch = chunk_keys(lo, min(n, lo + chunk))
        transient = sum(a.nbytes for a in batch.values())
        for name in _GRANULARITIES:
            unique, chunk_counts = np.unique(batch[name], return_counts=True)
            merged = np.concatenate((keys[name], unique))
            weights = np.concatenate((counts[name], chunk_counts))
            merged_keys, inverse = np.unique(merged, return_inverse=True)
            merged_counts = np.zeros(merged_keys.shape[0], dtype=np.int64)
            np.add.at(merged_counts, inverse, weights)
            keys[name], counts[name] = merged_keys, merged_counts
            transient += (unique.nbytes + chunk_counts.nbytes
                          + merged.nbytes + weights.nbytes + inverse.nbytes)
        peak_transient = max(peak_transient, transient)

    tables = {}
    starts = {}
    for name in _GRANULARITIES:
        n_keys = keys[name].shape[0]
        run_starts = np.empty(n_keys + 1, dtype=np.int64)
        run_starts[0] = 0
        np.cumsum(counts[name], out=run_starts[1:])
        starts[name] = run_starts
        key_table = allocate(f"{name}_keys", (n_keys,), np.int64)
        key_table[:] = keys[name]
        start_table = allocate(f"{name}_starts", (n_keys + 1,), np.int64)
        start_table[:] = run_starts
        tables[f"{name}_keys"] = key_table
        tables[f"{name}_starts"] = start_table
        for part in ("positions", _PER_ACCESS[name]):
            tables[f"{name}_{part}"] = allocate(f"{name}_{part}", (n,),
                                                np.int64)

    # Pass 2: counting-sort scatter of positions behind per-key cursors.
    cursors = {name: starts[name][:-1].copy() for name in _GRANULARITIES}
    for lo in range(0, n, chunk):
        batch = chunk_keys(lo, min(n, lo + chunk))
        transient = sum(a.nbytes for a in batch.values())
        # Each scatter's temporaries are gone before the next begins.
        transient += max(_scatter_window(batch[name], lo, keys[name],
                                         cursors[name],
                                         tables[f"{name}_positions"])
                         for name in _GRANULARITIES)
        peak_transient = max(peak_transient, transient)

    # Pass 3: the per-access tables, from the grouped positions.  A
    # run's successor of entry g is entry g + 1 (-1 at a run end); its
    # rank is g minus the run start.
    line_positions = tables["lines_positions"]
    line_starts = starts["lines"]
    successors = tables["lines_successors"]
    page_positions = tables["pages_positions"]
    page_starts = starts["pages"]
    ranks = tables["pages_ranks"]
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        pos = np.asarray(line_positions[lo:hi], dtype=np.int64)
        succ = np.empty(hi - lo, dtype=np.int64)
        succ[:-1] = pos[1:]
        succ[-1] = line_positions[hi] if hi < n else -1
        ends_from, ends_to = np.searchsorted(line_starts, (lo + 1, hi + 1))
        succ[line_starts[ends_from:ends_to] - 1 - lo] = -1
        successors[pos] = succ

        pos = np.asarray(page_positions[lo:hi], dtype=np.int64)
        first = int(np.searchsorted(page_starts, lo, side="right")) - 1
        last = int(np.searchsorted(page_starts, hi, side="left"))
        bounds = page_starts[first:last + 1].copy()
        bounds[0], bounds[-1] = lo, hi
        rank = np.arange(lo, hi, dtype=np.int64)
        rank -= np.repeat(page_starts[first:last], np.diff(bounds))
        ranks[pos] = rank
        # At most four chunk-length arrays are alive at once.
        peak_transient = max(peak_transient, 4 * succ.nbytes)

    for table in tables.values():
        if isinstance(table, np.memmap):
            table.flush()
    stats = IndexBuildStats(
        n_accesses=n,
        chunk_accesses=chunk,
        n_chunks=max(1, -(-n // chunk)) if n else 0,
        peak_transient_bytes=int(peak_transient),
        key_state_bytes=int(sum(keys[g].nbytes + counts[g].nbytes
                                + starts[g].nbytes
                                for g in _GRANULARITIES)),
        table_bytes=int(sum(t.nbytes for t in tables.values())),
    )
    s = telemetry.session()
    if s is not None:
        s.add_time("index.build", time.perf_counter() - build_t0)
        s.count("index.build.chunks", stats.n_chunks)
        s.event("index.build", {
            "n_accesses": stats.n_accesses,
            "n_chunks": stats.n_chunks,
            "chunk_accesses": stats.chunk_accesses,
            "peak_transient_bytes": stats.peak_transient_bytes,
            "table_bytes": stats.table_bytes,
        })
    return tables, stats


class _GrowColumn:
    """Random-write growable int64 column with bounded-RAM option.

    The live builder's successor table needs *random* writes into
    already-appended rows (a key's previous occurrence is patched when
    its next access arrives), which rules out the append-only
    :class:`~repro.traceio.spill.ArraySpill`.  With a ``directory`` the
    column lives in a capacity-doubling memory-mapped file (RSS stays
    bounded by the touched pages); without one it degrades to a
    capacity-doubling heap array.
    """

    def __init__(self, directory=None, name="column", capacity=1 << 12):
        self._directory = directory
        self._path = (os.path.join(directory, name + ".bin")
                      if directory is not None else None)
        self._capacity = max(1, int(capacity))
        self.rows = 0
        self._data = self._allocate(self._capacity)

    def _allocate(self, capacity):
        if self._path is None:
            return np.empty(capacity, dtype=np.int64)
        with open(self._path, "ab") as handle:
            handle.truncate(capacity * 8)
        return np.memmap(self._path, mode="r+", dtype=np.int64,
                         shape=(capacity,))

    def _grow_to(self, rows):
        if rows <= self._capacity:
            return
        capacity = self._capacity
        while capacity < rows:
            capacity *= 2
        old = self._data
        data = self._allocate(capacity)
        if self._path is None:
            data[:self.rows] = old[:self.rows]
        # A remapped file already holds the previous rows.
        self._data = data
        self._capacity = capacity

    def append(self, values):
        values = np.asarray(values, dtype=np.int64)
        self._grow_to(self.rows + values.shape[0])
        self._data[self.rows:self.rows + values.shape[0]] = values
        self.rows += values.shape[0]

    def patch(self, idx, values):
        """Overwrite already-appended rows at ``idx`` with ``values``."""
        self._data[idx] = values

    def view(self, n):
        """Live (mutable-underneath) view of the first ``n`` rows —
        copy before keeping across further appends."""
        return self._data[:n]

    def close(self):
        self._data = None
        if self._path is not None:
            try:
                os.remove(self._path)
            except OSError:
                pass


class LiveIndexBuilder:
    """Incrementally maintained index tables over an append-only feed.

    Generalizes the chunked counting-sort build to an *unbounded* access
    stream: :meth:`append` folds each chunk into merged per-key state
    (sorted keys, occurrence counts, each line's last position) plus the
    live per-access columns (line successors, page ranks), and
    :meth:`seal` materializes the full table set for the prefix consumed
    so far — bit-identical to what :func:`build_index_tables` produces
    on that prefix.

    Incrementality invariants that make the seal cheap and exact:

    * *ranks* are prefix-independent (the rank of access ``p`` within
      its key's run counts only earlier accesses), so they are computed
      once at append time and copied at seal;
    * *successors* are appended provisionally (``-1``) and patched in
      place when the key's next access arrives — at a seal taken at the
      stream position every entry is either a real in-prefix successor
      or ``-1``, exactly the batch semantics;
    * the grouped *positions* table of epoch ``k`` is the epoch-``k-1``
      table with each run extended by the pending accesses, so sealing
      copies the previous epoch run-by-run into its new offsets and
      counting-sort scatters only the pending tail.

    Sealed epochs spill through the existing
    ``save_arrays``/``put_stream`` path when a store is given, so the
    builder's resident set stays O(chunk + unique keys) while the feed
    grows without bound.
    """

    def __init__(self, store=None, spill_dir=None):
        self.store = store if store is not None and store.enabled else None
        self.n_accesses = 0
        self._scratch = None
        directory = None
        if self.store is not None or spill_dir is not None:
            parent = spill_dir if spill_dir is not None else self.store.root
            os.makedirs(parent, exist_ok=True)
            self._scratch = tempfile.mkdtemp(prefix="live-index-",
                                             dir=parent)
            directory = self._scratch
        self._keys = {name: np.empty(0, dtype=np.int64)
                      for name in _GRANULARITIES}
        self._counts = {name: np.empty(0, dtype=np.int64)
                        for name in _GRANULARITIES}
        #: Last position of each line key — where its successor lands.
        self._last_line = np.empty(0, dtype=np.int64)
        self._per_access = {name: _GrowColumn(directory, f"{name}_{part}")
                            for name, part in _PER_ACCESS.items()}
        self._pending = {name: [] for name in _GRANULARITIES}
        #: Per-granularity previous sealed epoch: (keys, starts, positions).
        self._sealed = {}

    def append(self, chunk):
        """Fold one feed chunk (a TraceChunk or a raw line array) into
        the live tables."""
        mem_line = getattr(chunk, "mem_line", chunk)
        lines = np.asarray(mem_line, dtype=np.int64)
        m = lines.shape[0]
        if m == 0:
            return
        telemetry.counter("live.index.chunks")
        n0 = self.n_accesses
        pages = lines >> _PAGE_OF_LINE_SHIFT
        self._fold_lines(lines, n0)
        self._fold_pages(pages)
        self._pending["lines"].append(lines.copy())
        self._pending["pages"].append(pages)
        self.n_accesses = n0 + m

    def _merge_runs(self, name, run_keys, run_count):
        """Fold one chunk's key runs into ``name``'s sorted key/count
        state.

        Returns ``(run_slot, prior, old_slot)``: each run's slot in the
        (possibly grown) key table, its key's count before the chunk,
        and where the previous keys moved — None when no key was new, so
        other per-key state needs no realignment.
        """
        keys = self._keys[name]
        old_slot = None
        if keys.shape[0] == 0 or not np.all(np.isin(run_keys, keys)):
            merged = np.unique(np.concatenate((keys, run_keys)))
            old_slot = np.searchsorted(merged, keys)
            counts = np.zeros(merged.shape[0], dtype=np.int64)
            counts[old_slot] = self._counts[name]
            self._keys[name], self._counts[name] = merged, counts
        run_slot = np.searchsorted(self._keys[name], run_keys)
        prior = self._counts[name][run_slot]
        self._counts[name][run_slot] += run_count
        return run_slot, prior, old_slot

    def _fold_lines(self, lines, n0):
        """Successors: in-chunk chains now, cross-chunk patched in place."""
        m = lines.shape[0]
        order, run_start, run_count, run_keys = _window_runs(lines)
        run_slot, _, old_slot = self._merge_runs("lines", run_keys,
                                                 run_count)
        if old_slot is not None:
            last_line = np.full(self._keys["lines"].shape[0], -1,
                                dtype=np.int64)
            last_line[old_slot] = self._last_line
            self._last_line = last_line
        pos_sorted = n0 + order
        succ_sorted = np.empty(m, dtype=np.int64)
        succ_sorted[:-1] = pos_sorted[1:]
        succ_sorted[run_start + run_count - 1] = -1
        succ = np.empty(m, dtype=np.int64)
        succ[order] = succ_sorted
        column = self._per_access["lines"]
        column.append(succ)
        prev = self._last_line[run_slot]
        has_prev = prev >= 0
        if np.any(has_prev):
            column.patch(prev[has_prev], pos_sorted[run_start[has_prev]])
        self._last_line[run_slot] = pos_sorted[run_start + run_count - 1]

    def _fold_pages(self, pages):
        """Ranks: prefix count before the chunk + within-chunk rank."""
        m = pages.shape[0]
        order, run_start, run_count, run_keys = _window_runs(pages)
        _, prior, _ = self._merge_runs("pages", run_keys, run_count)
        rank = np.empty(m, dtype=np.int64)
        rank[order] = (np.repeat(prior - run_start, run_count)
                       + np.arange(m, dtype=np.int64))
        self._per_access["pages"].append(rank)

    def seal(self, trace, key=None, label="live-index",
             chunk_accesses=None):
        """Materialize the index for the prefix consumed so far.

        ``trace`` is the prefix snapshot (``trace.n_accesses`` must equal
        the accesses appended); with a store and ``key`` the tables are
        published via ``save_arrays`` and served back memory-mapped,
        otherwise they stay heap-resident.  Returns a
        :class:`TraceIndex` bit-identical to a from-scratch build of the
        same prefix.
        """
        t0 = time.perf_counter()
        n = self.n_accesses
        if int(trace.n_accesses) != n:
            raise ValueError(
                f"prefix snapshot has {trace.n_accesses} accesses, "
                f"builder consumed {n}")
        chunk = _chunk_length(chunk_accesses)
        spill_root = (self.store.root
                      if self.store is not None and key is not None else None)
        with _table_allocator(spill_root, "live-seal-") as allocate:
            tables = {}
            for name in _GRANULARITIES:
                tables.update(self._seal_granularity(name, n, chunk,
                                                     allocate))
            index = self._publish(trace, tables, key, label)
        s = telemetry.session()
        if s is not None:
            s.add_time("live.index.seal", time.perf_counter() - t0)
            s.count("live.index.seals")
        return index

    def _seal_granularity(self, name, n, chunk, allocate):
        keys_now = self._keys[name]
        counts_now = self._counts[name]
        n_keys = keys_now.shape[0]
        starts_now = np.empty(n_keys + 1, dtype=np.int64)
        starts_now[0] = 0
        np.cumsum(counts_now, out=starts_now[1:])

        key_table = allocate(f"{name}_keys", (n_keys,), np.int64)
        key_table[:] = keys_now
        start_table = allocate(f"{name}_starts", (n_keys + 1,), np.int64)
        start_table[:] = starts_now
        positions = allocate(f"{name}_positions", (n,), np.int64)

        base_counts = np.zeros(n_keys, dtype=np.int64)
        prev = self._sealed.get(name)
        if prev is not None:
            pkeys, pstarts, ppositions = prev
            pstarts = np.asarray(pstarts, dtype=np.int64)
            n_prev = int(pstarts[-1])
            slot = np.searchsorted(keys_now, np.asarray(pkeys))
            run_lengths = np.diff(pstarts)
            base_counts[slot] = run_lengths
            new_run_base = starts_now[slot]
            # Copy epoch k-1's runs into their (shifted) epoch-k offsets.
            for lo in range(0, n_prev, chunk):
                hi = min(n_prev, lo + chunk)
                idx = np.arange(lo, hi, dtype=np.int64)
                run_of = np.searchsorted(pstarts, idx, side="right") - 1
                dest = new_run_base[run_of] + (idx - pstarts[run_of])
                positions[dest] = np.asarray(ppositions[lo:hi],
                                             dtype=np.int64)

        # Counting-sort scatter of the pending tail behind per-key
        # cursors seeded past the copied runs.
        cursors = starts_now[:-1] + base_counts
        base = int(base_counts.sum())
        for chunk_arr in self._pending[name]:
            for lo in range(0, chunk_arr.shape[0], chunk):
                _scatter_window(chunk_arr[lo:lo + chunk], base + lo,
                                keys_now, cursors, positions)
            base += chunk_arr.shape[0]
        if base != n:
            raise AssertionError("pending buffer out of sync with feed")

        part = _PER_ACCESS[name]
        per_access = allocate(f"{name}_{part}", (n,), np.int64)
        column = self._per_access[name].view(n)
        for lo in range(0, n, chunk):
            per_access[lo:lo + chunk] = column[lo:lo + chunk]
        return {f"{name}_keys": key_table, f"{name}_starts": start_table,
                f"{name}_positions": positions, f"{name}_{part}": per_access}

    def _publish(self, trace, tables, key, label):
        published = None
        if self.store is not None and key is not None:
            self.store.save_arrays(key, tables, label=label)
            published = self.store.load_mapped(key, label=label)
        if published is not None:
            tables = published
        else:
            # Heap fallback (no store/key, or a racing sweep): copy any
            # spill memmaps so the epoch survives the spill cleanup.
            tables = {name: (np.array(table) if isinstance(table, np.memmap)
                             else table)
                      for name, table in tables.items()}
        for name in _GRANULARITIES:
            self._sealed[name] = (tables[f"{name}_keys"],
                                  tables[f"{name}_starts"],
                                  tables[f"{name}_positions"])
            self._pending[name] = []
        return TraceIndex.from_tables(trace, tables)

    def close(self):
        for column in self._per_access.values():
            column.close()
        self._sealed = {}
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TraceIndex:
    """Line- and page-granularity position indices for one trace.

    Besides the grouped indices (``lines``, ``pages``) it holds the two
    per-access tables the batched watchpoint kernels read:
    ``line_successors[p]`` is the next access position of the line
    accessed at ``p`` (-1 if none), and ``page_ranks[p]`` the number of
    earlier accesses to the page accessed at ``p``.
    """

    #: What the builder materialized (None when opened from tables).
    build_stats = None

    def __init__(self, trace, chunk_accesses=None):
        """Build heap-resident tables with :func:`build_index_tables`."""
        tables, stats = build_index_tables(trace, chunk_accesses)
        self._adopt(trace, tables)
        self.build_stats = stats

    def _adopt(self, trace, tables):
        self.trace = trace
        self.lines = _PositionIndex(tables, "lines")
        self.pages = _PositionIndex(tables, "pages")
        self.line_successors = _as_int64(tables["lines_successors"])
        self.page_ranks = _as_int64(tables["pages_ranks"])

    def tables(self):
        """Flat array mapping, the form the artifact store persists."""
        return {**self.lines.tables("lines"),
                "lines_successors": self.line_successors,
                **self.pages.tables("pages"),
                "pages_ranks": self.page_ranks}

    @classmethod
    def from_tables(cls, trace, tables):
        """Rebuild an index from built or persisted tables (no build).

        Extra entries are ignored, so spilled blobs that also carry line
        ranks and page successors still open.
        """
        index = cls.__new__(cls)
        index._adopt(trace, tables)
        return index

    # -- spill / memory-mapped mode ---------------------------------------

    @classmethod
    def appendable(cls, store=None, spill_dir=None):
        """A :class:`LiveIndexBuilder`: ``append(chunk)`` folds feed
        chunks incrementally, ``seal(trace)`` materializes a
        :class:`TraceIndex` for the consumed prefix that is bit-identical
        to a from-scratch build."""
        return LiveIndexBuilder(store=store, spill_dir=spill_dir)

    @classmethod
    def open(cls, trace, store, key):
        """Open a spilled index as memory-mapped views, or None on miss.

        Queries against the returned index never require the tables in
        RAM: binary searches and gathers touch only the pages they hit.
        """
        tables = store.load_mapped(key, label="trace-index-spill")
        if tables is None:
            return None
        return cls.from_tables(trace, tables)

    @classmethod
    def build_chunked(cls, trace, chunk_accesses=None):
        """Same as ``TraceIndex(trace, chunk_accesses)``."""
        return cls(trace, chunk_accesses)

    @classmethod
    def build_spilled(cls, trace, store, key, chunk_accesses=None):
        """Build (or reopen) a spilled, memory-mapped index.

        Tables are constructed chunk-by-chunk into spill files next to
        the store, then streamed into an uncompressed-npz store blob and
        served back as read-only memory maps.  Peak construction RSS is
        O(chunk + unique keys), not O(accesses).  Without an enabled
        store this degrades to heap-resident tables.
        """
        existing = cls.open(trace, store, key)
        if existing is not None:
            return existing
        if not store.enabled:
            return cls(trace, chunk_accesses)
        with _table_allocator(store.root) as allocate:
            tables, stats = build_index_tables(trace, chunk_accesses,
                                               allocate)
            store.save_arrays(key, tables, label="trace-index-spill")
            del tables
        index = cls.open(trace, store, key)
        if index is None:          # racing gc/clear swept the blob
            return cls(trace, chunk_accesses)
        index.build_stats = stats
        return index

    @property
    def mapped(self):
        """True when the position tables are memory-mapped views."""
        return any(isinstance(part._positions, np.memmap)
                   for part in (self.lines, self.pages)
                   if part is not None)

    def close(self):
        """Drop table references so memory-mapped views can unmap.

        The index is unusable afterwards; reopen via :meth:`open`.
        """
        self.lines = None
        self.pages = None
        self.line_successors = None
        self.page_ranks = None

    def page_of_line(self, line):
        """Page number containing ``line``."""
        return int(line) >> (PAGE_SHIFT - CACHELINE_SHIFT)

    def pages_of_lines(self, lines):
        """Unique pages covering an array of lines."""
        lines = np.asarray(lines, dtype=np.int64)
        return np.unique(lines >> (PAGE_SHIFT - CACHELINE_SHIFT))

    def last_access_before(self, line, position):
        """Most recent access to ``line`` strictly before ``position`` (-1 if none)."""
        return self.lines.last_in(line, 0, position)

    def next_access_after(self, line, position):
        """First access to ``line`` strictly after ``position`` (-1 if none)."""
        return self.lines.first_in(line, position + 1, self.trace.n_accesses)

    def batch_await_reuse(self, positions, access_limit):
        """Vectorized RSW primitive over many sampled access positions.

        For each access position ``p`` (the watchpoint is armed on the
        line accessed *at* ``p``), returns ``(reuse, stops)`` matching
        per-sample :meth:`next_access_after` + page-window stop counts:
        ``reuse[i]`` is the line's next access position (-1 if none
        before ``access_limit``) and ``stops[i]`` the page stops taken
        while waiting (final true stop included).  Line successors give
        the reuse in O(1); page *ranks* turn the resolved stop count
        into a rank difference (both endpoints are accesses to the
        page), and dangling watchpoints need one batched count of page
        accesses before the limit.
        """
        positions = np.asarray(positions, dtype=np.int64)
        n = positions.shape[0]
        reuse = np.full(n, -1, dtype=np.int64)
        stops = np.zeros(n, dtype=np.int64)
        if n == 0:
            return reuse, stops
        succ = self.line_successors[positions]
        resolved = (succ >= 0) & (succ < access_limit)
        page_ranks = self.page_ranks
        reuse[resolved] = succ[resolved]
        stops[resolved] = (page_ranks[succ[resolved]]
                           - page_ranks[positions[resolved]])
        dangling = np.flatnonzero(~resolved)
        if dangling.size:
            # Derive the sampled pages from the line array directly: on a
            # streamed trace ``mem_page`` would materialize an
            # O(accesses) array just to read a handful of entries.
            pages = (np.asarray(self.trace.mem_line[positions[dangling]],
                                dtype=np.int64) >> _PAGE_OF_LINE_SHIFT)
            unique_pages, inverse = np.unique(pages, return_inverse=True)
            before_limit, _ = self.pages.batch_counts_and_last(
                unique_pages, 0, access_limit)
            stops[dangling] = (before_limit[inverse]
                               - page_ranks[positions[dangling]] - 1)
        return reuse, stops

    def page_stops_in(self, pages, lo, hi):
        """Total accesses landing in ``pages`` within window ``[lo, hi)``.

        This is exactly the number of watchpoint stops a run with those
        pages protected would take over the window.
        """
        pages = np.asarray(pages)
        if kernels.get_backend() != "scalar" and pages.size > 1:
            counts, _ = self.pages.batch_counts_and_last(pages, lo, hi)
            return int(counts.sum())
        return sum(self.pages.count_in(int(page), lo, hi)
                   for page in pages.tolist())

    def window_access_counts(self, lines, lo, hi):
        """Per-line access counts and last access position in a window.

        Batched equivalent of per-line ``count_in`` / ``last_in`` over
        ``[lo, hi)``; lines absent from the window carry a last position
        of ``-1``.
        """
        return self.lines.batch_counts_and_last(
            np.asarray(lines, dtype=np.int64), lo, hi)

    def multi_window_access_counts(self, lines, los, his):
        """Aligned-entry :meth:`window_access_counts` over many windows.

        Entry ``i`` asks for ``lines[i]`` within ``[los[i], his[i])``;
        one pass over the mapped line index serves every window.
        """
        return self.lines.multi_counts_and_last(
            np.asarray(lines, dtype=np.int64), los, his)

    def multi_page_stops(self, pages_per_window, los, his):
        """Per-window :meth:`page_stops_in` totals in one index pass.

        ``pages_per_window[i]`` is the protected page set of window
        ``[los[i], his[i])``; returns the aligned stop totals.  Values
        are identical to calling :meth:`page_stops_in` per window.
        """
        sizes = np.asarray([len(pages) for pages in pages_per_window],
                           dtype=np.int64)
        totals = np.zeros(sizes.shape[0], dtype=np.int64)
        if sizes.sum() == 0:
            return totals
        window_of = np.repeat(np.arange(sizes.shape[0], dtype=np.int64),
                              sizes)
        keys = np.concatenate([np.asarray(pages, dtype=np.int64)
                               for pages in pages_per_window if len(pages)])
        counts, _ = self.pages.multi_counts_and_last(
            keys, np.repeat(np.asarray(los, dtype=np.int64), sizes),
            np.repeat(np.asarray(his, dtype=np.int64), sizes))
        np.add.at(totals, window_of, counts)
        return totals
