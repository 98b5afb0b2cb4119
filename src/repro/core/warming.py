"""Directed statistical warming: the DSW capacity decision.

The heart of Section 3.1: for each key cacheline the Explorers deliver
its exact backward (key) reuse distance; the vicinity distribution turns
that reuse distance into an expected stack distance via StatStack; a
stack distance larger than the (effective) cache size is a capacity miss,
a never-found line is a cold miss, everything else would have been
resident in a perfectly-warmed cache.

Contrast with CoolSim's predictor (``repro.sampling.coolsim``): CoolSim
knows only a *distribution* per load PC and must draw; DSW knows the
exact reuse distance of the very line being accessed — this is where the
accuracy gain of Figures 9/10 comes from.
"""

import numpy as np

from repro.caches.stats import HIT_WARMING, MISS_CAPACITY, MISS_COLD
from repro.statmodel.statstack import StatStack

#: Sentinel reuse distance for key lines never found in the warm-up
#: interval (their last use predates the previous detailed region).
COLD_DISTANCE = -1


class DirectedCapacityPredictor:
    """Capacity/cold decision from key reuse distances + vicinity model."""

    def __init__(self, key_reuse_distances, vicinity_histogram):
        distances = dict(key_reuse_distances)
        self.vicinity_histogram = vicinity_histogram
        self.statstack = StatStack(vicinity_histogram)
        # Every key line's expected stack distance, from one vectorized
        # StatStack query; None marks a cold line.
        stack_distances = self.statstack.stack_distance(np.fromiter(
            distances.values(), dtype=np.float64,
            count=len(distances))).tolist()
        self._stack_distances = {
            line: None if distance == COLD_DISTANCE else stack_distance
            for (line, distance), stack_distance in zip(distances.items(),
                                                        stack_distances)}
        self.lookups = 0
        self.unknown_lines = 0

    def __call__(self, pc, line, effective_llc_lines):
        self.lookups += 1
        line = int(line)
        if line not in self._stack_distances:
            # Not a key line: can only happen for lines first touched by
            # the region *after* the Scout snapshot (never, in this
            # trace-driven setting) — treat conservatively as cold.
            self.unknown_lines += 1
            return MISS_COLD
        stack_distance = self._stack_distances[line]
        if stack_distance is None:
            return MISS_COLD
        if stack_distance >= effective_llc_lines:
            return MISS_CAPACITY
        return HIT_WARMING

    def predicted_stack_distance(self, line):
        """Expected stack distance for a key line (inf if cold/unknown)."""
        stack_distance = self._stack_distances.get(int(line))
        return float("inf") if stack_distance is None else stack_distance
