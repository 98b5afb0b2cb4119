"""Limited-associativity model: dominant-stride conflict misses.

Section 3.1.2 (Conflict Misses): some load PCs exhibit a dominant large
stride, so they only ever touch a fraction of the cache sets — e.g. a
512-byte stride with 64-byte lines touches one eighth of the sets.  For
such streams the *effective* cache is correspondingly smaller, and
accesses whose stack distance exceeds the effective capacity are conflict
misses even though the full-capacity model would call them hits.  This is
the "previously proposed limited-associativity model" CoolSim introduced
and DeLorean reuses.
"""

from math import gcd

import numpy as np


def sets_touched_by_stride(stride_lines, n_sets):
    """Number of distinct sets a circular stride-``stride_lines`` stream
    touches in an ``n_sets``-set cache (both in lines/sets)."""
    if stride_lines <= 0:
        raise ValueError("stride must be positive")
    return n_sets // gcd(int(stride_lines), n_sets)


def effective_cache_lines(cache_lines, n_sets, stride_lines):
    """Effective capacity (in lines) seen by a dominant-stride stream."""
    touched = sets_touched_by_stride(stride_lines, n_sets)
    assoc = cache_lines // n_sets
    return touched * assoc


def effective_cache_lines_many(cache_lines, n_sets, strides):
    """:func:`effective_cache_lines` over an array of strides, where a
    stride of 0 (no dominant stride) keeps the full capacity."""
    strides = np.asarray(strides, dtype=np.int64)
    touched = n_sets // np.gcd(strides, n_sets)
    return np.where(strides > 0, touched * (cache_lines // n_sets),
                    cache_lines)


class StrideDetector:
    """Detect a dominant stride per load PC from sampled line addresses.

    Feed it (pc, line) observations — e.g. the detailed region's accesses
    or the vicinity samples — then query the dominant stride for a PC.  A
    stride is *dominant* when a single non-zero line delta explains at
    least ``threshold`` of that PC's consecutive deltas.
    """

    def __init__(self, threshold=0.6, max_history=64):
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = float(threshold)
        self.max_history = int(max_history)
        self._last_line = {}
        self._deltas = {}

    def observe(self, pc, line):
        """Record one access of ``pc`` to ``line``."""
        pc = int(pc)
        last = self._last_line.get(pc)
        self._last_line[pc] = int(line)
        if last is None:
            return
        delta = int(line) - last
        if delta == 0:
            return
        history = self._deltas.setdefault(pc, [])
        history.append(delta)
        if len(history) > self.max_history:
            del history[0]

    #: Below this many observations the per-access loop beats numpy setup.
    _VECTOR_MIN = 64

    def observe_many(self, pcs, lines):
        """Vector version of :meth:`observe` (same result, batched):
        :meth:`dominant_strides` with no queries."""
        pcs = np.asarray(pcs)
        lines = np.asarray(lines)
        if pcs.shape[0] < self._VECTOR_MIN:
            for pc, line in zip(pcs.tolist(), lines.tolist()):
                self.observe(pc, line)
            return
        self.dominant_strides(pcs, lines, ())

    #: Queries per window matrix in :meth:`dominant_strides`; bounds its
    #: transients to a few ``_QUERY_CHUNK x max_history`` int64 arrays.
    _QUERY_CHUNK = 1024

    def dominant_strides(self, pcs, lines, at):
        """Observe a batch and answer dominant-stride queries inside it.

        Equivalent to calling :meth:`observe` on every ``(pcs[i],
        lines[i])`` in order and reading ``dominant_stride(pcs[q])``
        just after observing position ``q``, for each ``q`` in ``at``;
        the result holds that stride, or 0 where it is None.  The state
        left behind is the per-access state: only the most recent
        ``max_history`` non-zero deltas survive, so one trim per PC at
        the end is equivalent.

        Each PC's non-zero deltas (carried history first) form one
        segment of a flat pool, so the history after observing access
        ``i`` is the pool slice ending at ``i``'s cumulative delta count,
        at most ``max_history`` long.  Queries gather those slices into a
        row-sorted matrix whose longest run is the dominant delta; ties
        go to the smallest delta, like ``np.unique`` + ``argmax``.
        """
        pcs = np.asarray(pcs, dtype=np.int64)
        lines = np.asarray(lines, dtype=np.int64)
        at = np.asarray(at, dtype=np.int64)
        strides = np.zeros(at.shape[0], dtype=np.int64)
        n = pcs.shape[0]
        if n == 0:
            return strides
        order = np.argsort(pcs, kind="stable")
        sorted_pcs = pcs[order]
        sorted_lines = lines[order]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(sorted_pcs[1:], sorted_pcs[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        group = np.cumsum(is_start) - 1
        group_pcs = sorted_pcs[starts].tolist()

        # Line deltas in observation order per PC; a PC seen for the
        # first time contributes no delta.
        previous = np.empty(n, dtype=np.int64)
        previous[1:] = sorted_lines[:-1]
        first_lines = sorted_lines[starts].tolist()
        previous[starts] = [self._last_line.get(pc, line)
                            for pc, line in zip(group_pcs, first_lines)]
        deltas = sorted_lines - previous
        nonzero = deltas != 0

        priors = [self._deltas.get(pc, ()) for pc in group_pcs]
        prior_len = np.fromiter(map(len, priors), dtype=np.int64,
                                count=len(priors))
        new_len = np.add.reduceat(nonzero.astype(np.int64), starts)
        seg_len = prior_len + new_len
        seg_lo = np.cumsum(seg_len) - seg_len
        pool = np.empty(int(seg_len.sum()), dtype=np.int64)
        n_prior = int(prior_len.sum())
        if n_prior:
            flat_lo = np.cumsum(prior_len) - prior_len
            pool[np.repeat(seg_lo - flat_lo, prior_len)
                 + np.arange(n_prior)] = [d for p in priors for d in p]
        counted = np.cumsum(nonzero)
        counted -= np.repeat(counted[starts] - nonzero[starts],
                             np.diff(np.append(starts, n)))
        history_hi = (seg_lo + prior_len)[group] + counted
        pool[history_hi[nonzero] - 1] = deltas[nonzero]

        if pool.shape[0]:
            sorted_position = np.empty(n, dtype=np.int64)
            sorted_position[order] = np.arange(n)
            self._answer_strides(pool, seg_lo[group], history_hi,
                                 sorted_position[at], strides)

        history = self.max_history
        seg_hi = (seg_lo + seg_len).tolist()
        last_lines = sorted_lines[np.append(starts[1:], n) - 1].tolist()
        for g, pc in enumerate(group_pcs):
            self._last_line[pc] = last_lines[g]
            if new_len[g]:
                hi = seg_hi[g]
                self._deltas[pc] = pool[
                    max(hi - history, int(seg_lo[g])):hi].tolist()
        return strides

    def _answer_strides(self, pool, history_lo, history_hi, sorted_at,
                        out):
        """Fill ``out`` with the dominant stride of each queried access's
        history ``pool[max(lo, hi - max_history):hi]`` (0 for none)."""
        width = self.max_history
        columns = np.arange(width)
        for c in range(0, sorted_at.shape[0], self._QUERY_CHUNK):
            query = sorted_at[c:c + self._QUERY_CHUNK]
            hi = history_hi[query]
            take = (hi - width)[:, None] + columns
            valid = take >= history_lo[query][:, None]
            # 0 marks an empty slot: every recorded delta is non-zero.
            window = np.where(valid, np.abs(pool[np.maximum(take, 0)]), 0)
            window.sort(axis=1)
            run_start = np.zeros(window.shape, dtype=np.int64)
            run_start[:, 1:] = np.where(
                window[:, 1:] != window[:, :-1], columns[1:], 0)
            np.maximum.accumulate(run_start, axis=1, out=run_start)
            run_len = np.where(window != 0, columns - run_start + 1, 0)
            best = np.argmax(run_len, axis=1)
            rows = np.arange(query.shape[0])
            count = run_len[rows, best]
            length = valid.sum(axis=1)
            stride = window[rows, best]
            dominant = ((length >= 4) & (stride > 1)
                        & ~(count / np.maximum(length, 1) < self.threshold))
            out[c:c + query.shape[0]] = np.where(dominant, stride, 0)

    def dominant_stride(self, pc):
        """Dominant line stride of ``pc``, or None.

        Only strides larger than one line matter for the conflict model
        (unit stride uses all sets).
        """
        history = self._deltas.get(int(pc))
        if not history or len(history) < 4:
            return None
        values, counts = np.unique(np.abs(history), return_counts=True)
        best = int(np.argmax(counts))
        if counts[best] / len(history) < self.threshold:
            return None
        stride = int(values[best])
        return stride if stride > 1 else None

    def effective_lines_for(self, pc, cache_lines, n_sets):
        """Effective capacity for ``pc`` (full capacity if no stride)."""
        stride = self.dominant_stride(pc)
        if stride is None:
            return cache_lines
        return effective_cache_lines(cache_lines, n_sets, stride)
