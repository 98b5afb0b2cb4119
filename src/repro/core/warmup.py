"""The shared Scout + Explorer warm-up pipeline, with record/replay.

Both :class:`~repro.core.delorean.DeLorean` and
:class:`~repro.core.dse.DesignSpaceExploration` spend most of their work
in the same place: per detailed region, a Scout collects the key
cachelines and an Explorer chain collects their reuse distances plus the
vicinity distribution.  Everything those passes produce is
*microarchitecture-independent* (Section 3.3) — the cache hierarchy only
enters at the Analyst — so the warm-up products for a workload/plan/seed
are reusable across every LLC configuration of a sweep.

:class:`WarmupPipeline` is the one warm-up loop, for batch runs and
live feeds alike: :meth:`~WarmupPipeline.refine_many` runs the actual
passes over the next regions and records, per region, the key reuse
distances, the vicinity histogram state, the per-pass stage times and
the summary statistics.  A batch run knows its final plan, which
addresses a :class:`WarmupBundle` in the artifact store: on a miss the
pipeline publishes the whole bundle (including each pass's cost-ledger
breakdown) once it covers the plan; on a hit — the fingerprint
deliberately excludes the hierarchy — it never builds a machine at all.
Regions are then served from the bundle and the consumer's results are
bit-identical to a computed run's, because every float the passes
would have produced (stage times, ledger categories, sampler totals)
was recorded rather than remodeled.  A live feed has no final plan, so
it has no bundle address and never consults the store.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.explorer import ExplorerChain
from repro.core.scout import ScoutPass
from repro.core.vicinity import VicinitySampler
from repro.core.warming import DirectedCapacityPredictor
from repro.statmodel.histogram import ReuseHistogram
from repro.vff.costmodel import TimeLedger


@dataclass
class RegionWarmup:
    """Everything one region's warm-up passes produced.

    Arrays are stored in the Scout's key order (ascending line id), so a
    replayed predictor iterates identically to a live one.
    """

    #: Key cachelines (Scout order) and their backward reuse distances
    #: (-1 marks a cold line never found in the warm-up interval).
    key_lines: np.ndarray
    key_distances: np.ndarray
    #: Vicinity histogram state (sorted distances, weights, cold mass).
    vicinity_distances: np.ndarray
    vicinity_weights: np.ndarray
    vicinity_cold: float
    #: Summary statistics the strategies aggregate into result extras.
    n_warming_resolved: int
    n_unresolved: int
    engaged: int
    resolved_by: list
    true_stops: int
    false_stops: int
    #: Modeled seconds each warm-up pass (Scout, Explorer-1..N) spent on
    #: this region — the pipeline-schedule stage times.
    stage_seconds: list = field(default_factory=list)

    @property
    def n_key_lines(self):
        return int(self.key_lines.shape[0])

    @property
    def n_key_collected(self):
        """Key lines whose reuse distance was actually found."""
        return int((np.asarray(self.key_distances) >= 0).sum())

    def vicinity_histogram(self):
        return ReuseHistogram.from_state(
            self.vicinity_distances, self.vicinity_weights,
            self.vicinity_cold)

    def predictor(self):
        """The region's DSW capacity predictor, rebuilt from the record.

        Both live and replayed runs construct the predictor from the
        recorded arrays, so the two paths cannot diverge.
        """
        distances = {
            int(line): int(distance)
            for line, distance in zip(self.key_lines.tolist(),
                                      np.asarray(self.key_distances).tolist())
        }
        return DirectedCapacityPredictor(distances,
                                         self.vicinity_histogram())


@dataclass
class WarmupBundle:
    """A full warm-up record: every region plus per-pass cost ledgers."""

    regions: list
    #: Final ``{category: seconds}`` ledger of each warm-up pass, in pass
    #: order (Scout first).
    pass_categories: list
    #: Per-Explorer vicinity sampler totals (sampler order).
    sampler_paper: list
    sampler_model: list


class WarmupPipeline:
    """Run — or replay — the Scout/Explorer warm-up, region by region.

    The pipeline executes on an
    :class:`~repro.core.context.ExecutionContext`: the context supplies
    the trace (possibly memory-mapped), the (possibly spilled) index,
    the artifact store and the seed, so one context threads identically
    through DeLorean, DSE and the warm-up machinery.

    ``plan`` is the final plan of a batch run; it addresses the bundle
    in the store, so the lookup happens here and sets :attr:`replayed`.
    A live feed passes none: its plan grows one region per watermark.
    """

    def __init__(self, rng_label, context, explorer_specs, vicinity_density,
                 vicinity_boost, base_meter, footprint_scale, plan=None):
        self.plan = plan
        self.store = context.store if plan is not None else None
        self.explorer_specs = tuple(explorer_specs)
        self.n_passes = 1 + len(self.explorer_specs)
        self.regions = []
        self._recorded = None
        if self.store is not None:
            # The address excludes the cache hierarchy on purpose:
            # warm-up products are microarchitecture-independent, so
            # every LLC configuration of a sweep shares one bundle.
            self.key = {
                "artifact": "warmup-bundle",
                "pipeline": rng_label,
                "plan": plan,
                "explorers": list(self.explorer_specs),
                "vicinity_density": float(vicinity_density),
                "vicinity_boost": float(vicinity_boost),
                "seed": context.seed,
            }
            # Imported traces are addressed purely by content — the
            # registry name is a label, so a rename replays the same
            # bundle.  Synthetic keys keep their historical name/seed
            # identity.
            workload = context.workload
            trace_fp = getattr(workload, "trace_fingerprint", None)
            if trace_fp is not None:
                self.key["trace_fingerprint"] = trace_fp
            else:
                self.key["workload"] = workload.name
                self.key["workload_seed"] = workload.seed
            self._recorded = self.store.load(self.key, label="warmup")
        self.replayed = self._recorded is not None
        if self.replayed:
            return

        self.scout_machine = context.machine(base_meter.fork())
        self.explorer_machines = [context.machine(base_meter.fork())
                                  for _ in self.explorer_specs]
        self.machines = [self.scout_machine] + self.explorer_machines
        rng = context.rng(rng_label)
        self.samplers = [
            VicinitySampler(machine, density=float(vicinity_density),
                            density_boost=float(vicinity_boost), rng=rng,
                            footprint_scale=footprint_scale)
            for machine in self.explorer_machines]
        self.scout = ScoutPass(self.scout_machine)
        self.chain = ExplorerChain(self.explorer_machines,
                                   self.explorer_specs,
                                   vicinity_samplers=self.samplers,
                                   footprint_scale=footprint_scale)

    # -- execution -----------------------------------------------------------

    def run_all(self):
        """The batch entry point: every region of the plan, replayed
        from the store or computed and published."""
        return self.refine_many(self.plan.regions())

    def refine(self, spec):
        """Scout + explore one region; returns its :class:`RegionWarmup`."""
        return self.refine_many([spec])[0]

    def refine_many(self, specs):
        """Scout + explore the regions after those refined so far.

        Returns their :class:`RegionWarmup` records.  A replayed
        pipeline serves them from the stored bundle; a batch pipeline
        publishes its bundle once it covers the final plan.
        """
        specs = list(specs)
        start = len(self.regions)
        if self.replayed:
            self.regions.extend(
                self._recorded.regions[start:start + len(specs)])
            return self.regions[start:]

        # Scouts first: the Scout pass is RNG-free and touches only its
        # own machine, so every region's key set is known before any
        # Explorer runs — which lets the chain batch each Explorer
        # level's window profiles across all regions in one index pass.
        # Explorer execution below keeps region-major order (the
        # vicinity samplers share one RNG), consuming the precomputed
        # profiles; any split of the regions across calls is
        # bit-identical.
        reports = []
        scout_seconds = []
        for spec in specs:
            mark = self.scout_machine.meter.ledger.total_seconds
            reports.append(self.scout.run_region(spec))
            scout_seconds.append(
                self.scout_machine.meter.ledger.total_seconds - mark)
        planned = self.chain.plan_regions(specs, reports)

        for spec, report, region_planned, scout_delta in zip(
                specs, reports, planned, scout_seconds):
            marks = [m.meter.ledger.total_seconds
                     for m in self.explorer_machines]
            vicinity = ReuseHistogram()
            exploration = self.chain.run_region(spec, report, vicinity,
                                                planned=region_planned)
            key_distances = self.chain.key_reuse_distances(report,
                                                           exploration)
            stage_seconds = [scout_delta] + [
                machine.meter.ledger.total_seconds - marks[k]
                for k, machine in enumerate(self.explorer_machines)]

            n_keys = len(key_distances)
            vicinity_distances, vicinity_weights, vicinity_cold = \
                vicinity.state()
            self.regions.append(RegionWarmup(
                key_lines=np.fromiter(
                    key_distances.keys(), np.int64, count=n_keys),
                key_distances=np.fromiter(
                    key_distances.values(), np.int64, count=n_keys),
                vicinity_distances=vicinity_distances,
                vicinity_weights=vicinity_weights,
                vicinity_cold=vicinity_cold,
                n_warming_resolved=len(report.warming_resolved),
                n_unresolved=len(exploration.unresolved),
                engaged=exploration.engaged,
                resolved_by=list(exploration.resolved_by),
                true_stops=exploration.true_stops,
                false_stops=exploration.false_stops,
                stage_seconds=stage_seconds,
            ))

        if (self.store is not None
                and len(self.regions) == len(self.plan.regions())):
            self.store.save(self.key, self.bundle(), label="warmup")
        return self.regions[start:]

    # -- post-run accessors ---------------------------------------------------

    def bundle(self):
        """The bundle replayed from the store, or a snapshot of the
        state so far (watermark-publishable)."""
        if self.replayed:
            return self._recorded
        return WarmupBundle(
            regions=list(self.regions),
            pass_categories=[dict(m.meter.ledger.seconds_by_category)
                             for m in self.machines],
            sampler_paper=[s.collected_paper_equivalent
                           for s in self.samplers],
            sampler_model=[s.collected_model for s in self.samplers],
        )

    def stage_times(self):
        """Per-pass lists of per-region stage seconds (Scout first)."""
        regions = self.bundle().regions
        return [[region.stage_seconds[k] for region in regions]
                for k in range(self.n_passes)]

    def pass_ledgers(self):
        """One :class:`TimeLedger` per warm-up pass, in pass order."""
        ledgers = []
        for categories in self.bundle().pass_categories:
            ledger = TimeLedger()
            ledger.seconds_by_category = dict(categories)
            ledgers.append(ledger)
        return ledgers

    @property
    def vicinity_paper(self):
        return sum(self.bundle().sampler_paper)

    @property
    def vicinity_model(self):
        return sum(self.bundle().sampler_model)
