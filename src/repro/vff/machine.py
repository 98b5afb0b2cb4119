"""Virtual machine facade: mode-switched execution over a trace.

A :class:`VirtualMachine` couples one workload trace with a cost meter
and the watchpoint engine, exposing the execution modes the paper's
passes switch between:

* ``fast_forward`` — KVM-style virtualized fast-forwarding (no
  microarchitectural visibility, near-native speed);
* ``functional`` — gem5 'atomic' functional simulation (sees every
  access, no timing);
* ``functional_warm`` — functional simulation that also updates a cache
  hierarchy (SMARTS's warming mode);
* ``detailed`` — cycle-accurate detailed simulation (the slow mode);
* ``directed_profile`` / ``await_reuse`` — virtualized directed
  profiling with page-protection watchpoints.

Each pass of a time-traveling run owns its own ``VirtualMachine`` (the
paper runs each pass as a separate gem5/KVM process); the shared
:class:`~repro.vff.index.TraceIndex` is passed in so the oracle is built
once per workload.
"""

from repro.vff.costmodel import CostMeter
from repro.vff.index import TraceIndex
from repro.vff.watchpoint import WatchpointEngine


class VirtualMachine:
    """One simulated gem5+KVM process executing a fixed trace."""

    def __init__(self, trace, meter=None, index=None):
        """``index`` is a :class:`TraceIndex`, a zero-argument callable
        returning one, or None to build one from ``trace``.  Either way
        it is resolved on first use, so a pass that never queries it
        (SMARTS) builds none."""
        self.trace = trace
        self.meter = meter if meter is not None else CostMeter()
        self._index = index
        self._watchpoints = None

    @property
    def index(self):
        if self._index is None:
            self._index = TraceIndex(self.trace)
        elif callable(self._index):
            self._index = self._index()
        return self._index

    @property
    def watchpoints(self):
        if self._watchpoints is None:
            self._watchpoints = WatchpointEngine(self.index)
        return self._watchpoints

    def access_window(self, instr_lo, instr_hi):
        """The :class:`~repro.core.context.AccessWindow` of an
        instruction window — how passes slice trace data (views stay
        zero-copy over memory-mapped traces).  Deferred import: the
        context module sits above this one in the layer stack."""
        from repro.core.context import AccessWindow

        return AccessWindow.from_trace(self.trace, instr_lo, instr_hi)

    def region_mispredicts(self, spec):
        """Branch mispredictions inside a region's detailed window
        (context-shaped, so passes without an
        :class:`~repro.core.context.ExecutionContext` can still feed
        :meth:`~repro.sampling.base.StrategyBase.region_timing`)."""
        from repro.core.context import trace_region_mispredicts

        return trace_region_mispredicts(self.trace, spec)

    # -- instruction-window modes -----------------------------------------

    def fast_forward(self, instr_lo, instr_hi, scaled=True):
        """Advance ``[instr_lo, instr_hi)`` under virtualization."""
        n = max(0, instr_hi - instr_lo)
        return self.meter.fast_forward(n, scaled=scaled)

    def functional(self, instr_lo, instr_hi, scaled=False):
        """Advance under atomic functional simulation; returns the
        (access_lo, access_hi) window the mode observed."""
        n = max(0, instr_hi - instr_lo)
        self.meter.atomic(n, scaled=scaled)
        return self.trace.access_range(instr_lo, instr_hi)

    def functional_warm(self, hierarchy, instr_lo, instr_hi, scaled=True):
        """Functional simulation that warms ``hierarchy`` (SMARTS mode).

        Returns ``(l1_hits, llc_hits, mem_misses)`` over the window.
        """
        n = max(0, instr_hi - instr_lo)
        self.meter.functional_warm(n, scaled=scaled)
        lo, hi = self.trace.access_range(instr_lo, instr_hi)
        return hierarchy.warm(self.trace.mem_line[lo:hi])

    def detailed(self, instr_lo, instr_hi):
        """Charge detailed simulation for a region (never scale-projected:
        regions keep their paper size)."""
        n = max(0, instr_hi - instr_lo)
        return self.meter.detailed(n, scaled=False)

    # -- directed profiling -------------------------------------------------

    def directed_profile(self, watched_lines, instr_lo, instr_hi,
                         charge_stops=True, scaled=True):
        """Run ``[instr_lo, instr_hi)`` with watchpoints armed.

        Execution proceeds under virtualization between stops; each stop
        (true or false positive) costs a KVM exit.  Returns the
        :class:`~repro.vff.watchpoint.WatchpointProfile`.
        """
        access_lo, access_hi = self.trace.access_range(instr_lo, instr_hi)
        profile = self.watchpoints.profile_window(
            watched_lines, access_lo, access_hi)
        self.fast_forward(instr_lo, instr_hi, scaled=scaled)
        self.meter.watchpoint_setups(len(set(watched_lines)), scaled=False)
        if charge_stops:
            self.meter.watchpoint_stops(profile.total_stops, scaled=scaled)
        return profile

    def await_reuse(self, line, access_position, access_limit,
                    charge_stops=True, scaled=True):
        """RSW/vicinity primitive: watch ``line`` until its next access."""
        reuse, stops = self.watchpoints.await_next_reuse(
            line, access_position, access_limit)
        self.meter.watchpoint_setups(1, scaled=scaled)
        if charge_stops:
            self.meter.watchpoint_stops(stops, scaled=scaled)
        return reuse, stops

    # -- region boundaries ----------------------------------------------------

    def switch_state(self):
        """KVM <-> gem5 full-system state transfer at a region boundary."""
        return self.meter.state_transfer()

    def sync(self):
        """OS-pipe synchronization with a neighbouring pass."""
        return self.meter.pipe_sync()
