"""The Figure 3 decision flow: statistical warming classification.

For every memory request of a detailed region:

1. hit in the *lukewarm* cache (state built by the 30 k detailed-warming
   instructions only) -> a definite hit;
2. outstanding miss for the same line -> MSHR (delayed) hit;
3. referenced set already full in the lukewarm cache -> conflict miss;
   a dominant-stride PC whose effective capacity is exceeded -> conflict
   miss (limited-associativity model);
4. capacity predictor says the stack distance exceeds the cache ->
   capacity miss (cold lines have infinite stack distance);
5. anything else missed only for lack of warming -> *warming miss*,
   modeled as a hit.

The capacity predictor is the only piece that differs between CoolSim
(per-PC reuse distributions, probabilistic) and DeLorean (exact key reuse
distance + vicinity StatStack); it is injected as a callable.

Classification dispatches on the kernel backend.  The vector path
batches everything that does not depend on outcomes: the L1 hit mask
and the LLC hit/occupancy stream come from the batch LRU kernel, and one
:meth:`~repro.statmodel.assoc.StrideDetector.dominant_strides` query
observes the whole region and yields each L1-miss access's effective
(stride-limited) capacity as of that access.  Per-access Python is left
with the residual accesses that miss the lukewarm LLC, and only with the
state that is sequential by nature: the MSHR lookup and allocation, the
set-full check, the capacity predictor (CoolSim's Bernoulli draws
consume one RNG stream in access order) and outcome bookkeeping.  The
one sequential wrinkle is an MSHR hit, which *skips* the LLC fetch the
kernel assumed: the kernel run is valid up to that access, so the LLC
sets the block maps to are rolled back, the accepted prefix replayed,
and the stream resumed after the skipped access.  MSHR hits require a
line to be evicted within its own miss window, so in practice this
costs nothing — and the scalar path remains the bit-identical reference,
selectable by flag.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from repro import kernels, telemetry
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.mshr import MSHRFile
from repro.caches.stats import (
    AccessStats,
    HIT_LUKEWARM,
    HIT_MSHR,
    HIT_WARMING,
    MISS_CAPACITY,
    MISS_COLD,
    MISS_CONFLICT,
)
from repro.statmodel.assoc import effective_cache_lines_many


@dataclass
class ClassifiedRegion:
    """Per-access classification of one detailed region."""

    stats: AccessStats
    #: Outcome label per access that reaches beyond the L1 (for timing).
    outcomes: list = field(default_factory=list)
    #: Region-relative instruction position per outcome.
    outcome_instr: list = field(default_factory=list)
    #: Region-relative instruction positions of LLC (or warming) hits.
    llc_hit_instr: list = field(default_factory=list)


class WarmingClassifier:
    """Classify detailed-region accesses given a capacity predictor.

    Parameters
    ----------
    hierarchy_config:
        The modeled cache hierarchy (its LLC is the cache whose warm
        state is being predicted).
    capacity_predictor:
        ``f(pc, line, effective_llc_lines) -> outcome`` returning one of
        ``MISS_CAPACITY``, ``MISS_COLD`` or ``HIT_WARMING``.
    stride_detector:
        Optional :class:`~repro.statmodel.assoc.StrideDetector` for the
        limited-associativity conflict model.
    mshrs / mshr_window:
        L1-D MSHR file configuration (Table 1: 8 entries).
    """

    def __init__(self, hierarchy_config, capacity_predictor,
                 stride_detector=None, mshrs=8, mshr_window=24, seed=0,
                 prefetcher=None):
        self.hierarchy_config = hierarchy_config
        self.capacity_predictor = capacity_predictor
        self.stride_detector = stride_detector
        self.lukewarm = CacheHierarchy(hierarchy_config, seed=seed)
        self.mshr = MSHRFile(mshrs, window=mshr_window)
        #: Optional stride prefetcher fed by *predicted* misses (the
        #: Section 6.3.2 extension): prefetched lines land in the lukewarm
        #: LLC so later accesses hit; prefetches to predicted-present
        #: lines are nullified.
        self.prefetcher = prefetcher

    def warm_detailed(self, l1_window_lines, llc_window_lines=None):
        """Run detailed warming through the lukewarm hierarchy.

        ``l1_window_lines`` is the full 30 k-instruction window: it warms
        the L1 exactly as the reference's L1 is warm at region start (the
        paper statistically warms only the LLC).  ``llc_window_lines`` is
        the footprint-scaled tail of that window; those accesses also
        populate the lukewarm LLC.  With a single argument both caches
        see the same window.
        """
        if llc_window_lines is None:
            self.lukewarm.warm(l1_window_lines)
            return
        n_tail = llc_window_lines.shape[0]
        head = l1_window_lines[:-n_tail] if n_tail else l1_window_lines
        if head.shape[0]:
            self.lukewarm.l1d.warm(head)
        self.lukewarm.warm(llc_window_lines)

    def classify_region(self, lines, pcs, instr_offsets):
        """Classify every access of the region (arrays must align).

        ``instr_offsets`` are region-relative instruction positions used
        for timing; classification itself is order-dependent because each
        access updates the lukewarm cache and MSHRs (Figure 3's "fetch
        block" arrow).
        """
        s = telemetry.session()
        if (kernels.get_backend() != "scalar"
                and self.prefetcher is None
                and self.lukewarm.l1d._is_lru
                and self.lukewarm.llc._is_lru):
            if s is None:
                return self._classify_region_vector(
                    lines, pcs, instr_offsets)
            t0 = time.perf_counter()
            out = self._classify_region_vector(lines, pcs, instr_offsets)
            s.add_time("kernel.classify_region",
                       time.perf_counter() - t0)
            return out
        if s is None:
            return self._classify_region_scalar(lines, pcs, instr_offsets)
        t0 = time.perf_counter()
        out = self._classify_region_scalar(lines, pcs, instr_offsets)
        s.add_time("kernel.classify_region.scalar",
                   time.perf_counter() - t0)
        return out

    # -- scalar reference --------------------------------------------------

    def _classify_region_scalar(self, lines, pcs, instr_offsets):
        result = ClassifiedRegion(stats=AccessStats())
        llc = self.lukewarm.llc
        llc_lines = llc.config.n_lines
        n_sets = llc.config.n_sets

        for position, (line, pc, instr) in enumerate(
                zip(lines.tolist(), pcs.tolist(), instr_offsets.tolist())):
            if self.stride_detector is not None:
                self.stride_detector.observe(pc, line)

            l1_hit = self.lukewarm.l1d.access(line)
            llc_resident = llc.contains(line)
            if l1_hit or llc_resident:
                if not l1_hit:
                    llc.access(line)        # update recency
                    result.llc_hit_instr.append(instr)
                result.stats.record(HIT_LUKEWARM)
                continue

            if self.mshr.lookup(line, position):
                result.stats.record(HIT_MSHR)
                result.outcomes.append(HIT_MSHR)
                result.outcome_instr.append(instr)
                continue

            outcome = self._beyond_lukewarm(line, pc, llc_lines, n_sets)
            result.stats.record(outcome)
            result.outcomes.append(outcome)
            result.outcome_instr.append(instr)
            if outcome == HIT_WARMING:
                # A warming miss is modeled as a hit: the block would have
                # been resident in the warm LLC.  (It cannot have been in
                # the warm L1 — the L1 is warmed with the full window, so
                # an L1 miss here is an L1 miss in the reference too.)
                result.llc_hit_instr.append(instr)
            else:
                self.mshr.allocate(line, position)
                if self.prefetcher is not None:
                    for target in self.prefetcher.train(
                            pc, line, is_present=llc.contains):
                        llc.insert(target)
            llc.access(line)                # fetch block into lukewarm state
        return result

    # -- vectorized two-phase path -----------------------------------------

    def _classify_region_vector(self, lines, pcs, instr_offsets):
        result = ClassifiedRegion(stats=AccessStats())
        llc = self.lukewarm.llc
        llc_lines_total = llc.config.n_lines
        llc_assoc = llc.assoc
        n_sets = llc.config.n_sets
        detector = self.stride_detector
        n = lines.shape[0]
        if n == 0:
            return result

        # Phase 1: the L1 sees every access unconditionally.
        _, l1_mask, _ = self.lukewarm.l1d.warm_profile(lines)

        # Phase 2: the LLC sees the L1-miss substream (hits update
        # recency, classified misses fetch) *except* MSHR hits.
        candidates = np.flatnonzero(~l1_mask)
        # Strides depend on the access stream alone, never on outcomes:
        # one pass observes the region and yields every candidate's
        # effective capacity as of its own access.
        strides = (np.zeros(candidates.shape[0], dtype=np.int64)
                   if detector is None
                   else detector.dominant_strides(pcs, lines, candidates))
        effective = effective_cache_lines_many(
            llc_lines_total, n_sets, strides).tolist()
        llc_hit_positions = []
        warming_positions = []
        lines_list = lines.tolist()
        pcs_list = pcs.tolist()
        instr_list = instr_offsets.tolist()

        start = 0
        while start < candidates.shape[0]:
            block = candidates[start:]
            # warm_profile touches only the sets the block maps to.
            saved_sets = {
                idx: list(llc._sets[idx])
                for idx in np.unique(lines[block] & llc._mask).tolist()}
            saved_hits, saved_misses = llc.hits, llc.misses
            _, block_mask, block_occ = llc.warm_profile(lines[block])

            # Walk the residual (non-resident) accesses in order,
            # validating the no-MSHR-hit assumption the kernel made.
            mshr_break = None
            for k in np.flatnonzero(~block_mask).tolist():
                position = int(block[k])
                line = lines_list[position]
                instr = instr_list[position]
                if self.mshr.lookup(line, position):
                    result.stats.record(HIT_MSHR)
                    result.outcomes.append(HIT_MSHR)
                    result.outcome_instr.append(instr)
                    mshr_break = k
                    break
                outcome = self._beyond_lukewarm(
                    line, pcs_list[position], llc_lines_total, n_sets,
                    set_full=block_occ[k] >= llc_assoc,
                    effective_lines=effective[start + k])
                result.stats.record(outcome)
                result.outcomes.append(outcome)
                result.outcome_instr.append(instr)
                if outcome == HIT_WARMING:
                    warming_positions.append(position)
                else:
                    self.mshr.allocate(line, position)

            if mshr_break is None:
                llc_hit_positions.append(block[block_mask])
                start = candidates.shape[0]
            else:
                # The access at the break skipped the LLC; everything
                # before it went through as assumed.  Roll back, replay
                # the accepted prefix, resume after the skipped access.
                for idx, entries in saved_sets.items():
                    llc._sets[idx] = entries
                llc.hits, llc.misses = saved_hits, saved_misses
                accepted = block[:mshr_break]
                _, accepted_mask, _ = llc.warm_profile(lines[accepted])
                llc_hit_positions.append(accepted[accepted_mask])
                start += mshr_break + 1

        # Lukewarm hits: every L1 hit plus every LLC-resident access.
        llc_hit_positions = (np.concatenate(llc_hit_positions)
                             if llc_hit_positions
                             else np.empty(0, dtype=np.int64))
        n_beyond = len(result.outcomes)
        result.stats.counts[HIT_LUKEWARM] += n - n_beyond
        hit_instr = np.sort(np.concatenate(
            (llc_hit_positions,
             np.asarray(warming_positions, dtype=np.int64))))
        result.llc_hit_instr.extend(
            instr_offsets[hit_instr].tolist())
        return result

    def _beyond_lukewarm(self, line, pc, llc_lines, n_sets, set_full=None,
                         effective_lines=None):
        # Conflict: the referenced set is full in the lukewarm cache.
        if set_full is None:
            set_full = self.lukewarm.llc.set_is_full(line)
        if set_full:
            return MISS_CONFLICT

        if effective_lines is None:
            effective_lines = llc_lines
            if self.stride_detector is not None:
                effective_lines = self.stride_detector.effective_lines_for(
                    pc, llc_lines, n_sets)

        outcome = self.capacity_predictor(pc, line, effective_lines)
        if outcome == MISS_CAPACITY and effective_lines < llc_lines:
            # Capacity exceeded only because of the stride-limited
            # effective size: that is a conflict miss.
            full_outcome = self.capacity_predictor(pc, line, llc_lines)
            if full_outcome == HIT_WARMING:
                return MISS_CONFLICT
        return outcome
