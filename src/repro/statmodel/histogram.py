"""Sparse reuse-distance histograms.

Reuse distance = number of memory accesses strictly between two accesses
to the same cacheline (Section 2.2).  Samples that never see a reuse
("cold" / dangling watchpoints) carry real information — their lines
escape every window — and are kept as a separate infinite-distance mass.
"""

import numpy as np


class ReuseHistogram:
    """A weighted histogram over finite reuse distances plus infinite mass."""

    def __init__(self):
        self._counts = {}
        self.cold = 0.0
        self._dirty = True
        self._distances = None
        self._weights = None
        #: Finite mass and ``[0, cumsum(weights)]``, kept with the
        #: materialized arrays.
        self._finite = 0.0
        self._cumulative = None

    # -- construction -------------------------------------------------------

    def add(self, distance, weight=1.0):
        """Record one finite reuse distance (``distance >= 0``)."""
        if distance < 0:
            raise ValueError("reuse distance must be non-negative")
        key = int(distance)
        self._counts[key] = self._counts.get(key, 0.0) + weight
        self._dirty = True

    def add_cold(self, weight=1.0):
        """Record a sample whose line was never reused (infinite distance)."""
        self.cold += weight
        self._dirty = True

    def add_many(self, distances, weight=1.0):
        """Record an array of finite distances (negatives count as cold)."""
        distances = np.asarray(distances)
        finite = distances[distances >= 0]
        values, counts = np.unique(finite, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            self._counts[int(value)] = (
                self._counts.get(int(value), 0.0) + weight * count)
        self.cold += weight * int(np.count_nonzero(distances < 0))
        self._dirty = True

    def merge(self, other):
        """Accumulate another histogram into this one (returns self)."""
        for distance, weight in other._counts.items():
            self._counts[distance] = self._counts.get(distance, 0.0) + weight
        self.cold += other.cold
        self._dirty = True
        return self

    # -- persistence ---------------------------------------------------------

    def state(self):
        """Canonical ``(distances, weights, cold)`` snapshot.

        The arrays are the materialized (distance-sorted) form, so two
        histograms built from the same samples in different orders
        produce identical states.
        """
        distances, weights = self.distances()
        return distances, weights, float(self.cold)

    @classmethod
    def from_state(cls, distances, weights, cold):
        """Rebuild a histogram from a :meth:`state` snapshot."""
        histogram = cls()
        for distance, weight in zip(np.asarray(distances).tolist(),
                                    np.asarray(weights).tolist()):
            histogram._counts[int(distance)] = float(weight)
        histogram.cold = float(cold)
        return histogram

    # -- queries -------------------------------------------------------------

    def _materialize(self):
        if self._dirty:
            if self._counts:
                distances = np.fromiter(
                    self._counts.keys(), dtype=np.int64, count=len(self._counts))
                weights = np.fromiter(
                    self._counts.values(), dtype=np.float64,
                    count=len(self._counts))
                order = np.argsort(distances)
                self._distances = distances[order]
                self._weights = weights[order]
            else:
                self._distances = np.empty(0, dtype=np.int64)
                self._weights = np.empty(0, dtype=np.float64)
            self._finite = float(self._weights.sum())
            self._cumulative = np.concatenate(
                ([0.0], np.cumsum(self._weights)))
            self._dirty = False
        return self._distances, self._weights

    @property
    def total(self):
        """Total sample mass including cold samples."""
        self._materialize()
        return self._finite + self.cold

    @property
    def n_finite(self):
        """Total finite-reuse mass."""
        self._materialize()
        return self._finite

    def distances(self):
        """Sorted unique finite distances and their weights (copies)."""
        distances, weights = self._materialize()
        return distances.copy(), weights.copy()

    def ccdf(self, k):
        """``P(reuse distance > k)`` — vectorized over ``k``.

        Infinite (cold) mass is always part of the tail.
        """
        distances, _ = self._materialize()
        total = self._finite + self.cold
        if total == 0:
            return np.zeros_like(np.asarray(k, dtype=np.float64))
        idx = np.searchsorted(distances, np.asarray(k), side="right")
        tail = (self._finite - self._cumulative[idx]) + self.cold
        return tail / total

    def quantile(self, q):
        """Smallest distance d with ``P(rd <= d) >= q`` (None if in cold tail)."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        distances, weights = self._materialize()
        total = float(weights.sum()) + self.cold
        if total == 0:
            return None
        cum = np.cumsum(weights) / total
        idx = int(np.searchsorted(cum, q, side="left"))
        if idx >= distances.size:
            return None
        return int(distances[idx])

    def mean_finite(self):
        """Mean of finite distances (0 if empty)."""
        distances, weights = self._materialize()
        if weights.sum() == 0:
            return 0.0
        return float((distances * weights).sum() / weights.sum())

    def __len__(self):
        return len(self._counts)

    def __repr__(self):
        return (f"ReuseHistogram(n_finite={self.n_finite:.0f}, "
                f"cold={self.cold:.0f}, bins={len(self._counts)})")
