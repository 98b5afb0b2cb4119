"""Per-layer attribution: spans around the program's public entry points.

The wrappers live here, in the benchmark, not in the program: a traced
pass calls :func:`install`, which replaces each entry point named in
:data:`LAYERS` (module functions, methods, class methods and
generators) with a timing wrapper, and :func:`Patches.restore` puts the
originals back.  A wrapper only times and counts; arguments and return
values pass through untouched, so traced outputs are bit-identical.

A :class:`Tracer` keeps its spans in memory as running aggregates
rather than a span list (the statistical models are called hundreds of
thousands of times per pass).  For every layer it records

* ``calls`` — spans opened;
* ``busy_s`` — time inside at least one span of the layer (a span
  nested in a span of the same layer adds nothing);
* ``self_s`` — span time not covered by a child span of any layer.

Summed over all layers, self time equals the time covered by root
spans, so ``1 - sum(self) / wall`` is the share of a pass no layer
claims (the residue).  Anonymous and file-mapped resident memory are
read from ``/proc/self/smaps_rollup`` at every root-span boundary.
"""

import functools
import importlib
import inspect
import os
import re
import sys
import time

#: Layer name -> public entry points, as ``"module:qualname"``.
LAYERS = {
    "trace.build_trace": ["repro.trace.phases:build_trace"],
    "trace.generate_chunks": ["repro.trace.stream:generate_chunks"],
    "vff.index.build": [
        "repro.vff.index:TraceIndex.__init__",
        "repro.vff.index:TraceIndex.build_chunked",
        "repro.vff.index:TraceIndex.build_spilled",
        "repro.vff.index:build_index_tables",
    ],
    "vff.index.open": [
        "repro.vff.index:TraceIndex.open",
        "repro.vff.index:TraceIndex.from_tables",
    ],
    "vff.index.append": ["repro.vff.index:LiveIndexBuilder.append"],
    "vff.index.seal": ["repro.vff.index:LiveIndexBuilder.seal"],
    "vff.watchpoint": [
        "repro.vff.watchpoint:WatchpointEngine.profile_window",
        "repro.vff.watchpoint:WatchpointEngine.profile_windows",
        "repro.vff.watchpoint:WatchpointEngine.await_next_reuse",
        "repro.vff.watchpoint:WatchpointEngine.await_next_reuse_many",
    ],
    "core.scout": ["repro.core.scout:ScoutPass.run_region"],
    "core.explorer": [
        "repro.core.explorer:ExplorerChain.plan_regions",
        "repro.core.explorer:ExplorerChain.run_region",
        "repro.core.explorer:ExplorerChain.key_reuse_distances",
    ],
    "core.analyst": ["repro.core.analyst:AnalystPass.run_region"],
    "core.delorean": [
        "repro.core.delorean:DeLorean.run",
        "repro.core.delorean:DeLorean.begin",
        "repro.core.delorean:DeLoreanRun.refine",
        "repro.core.delorean:DeLoreanRun.result",
    ],
    "core.naive": [
        "repro.core.naive:NaiveDirectedWarming.run",
        "repro.core.naive:NaiveDirectedWarming.begin",
        "repro.core.naive:NaiveDirectedWarmingRun.refine",
        "repro.core.naive:NaiveDirectedWarmingRun.result",
    ],
    "caches.warm": [
        "repro.caches.hierarchy:CacheHierarchy.warm",
        "repro.caches.cache:SetAssocCache.warm",
        "repro.caches.cache:SetAssocCache.warm_profile",
    ],
    "kernels": [
        "repro.kernels.lru:warm_lru_sets",
        "repro.kernels.stackdist:reuse_and_stack_distances_vector",
        "repro.kernels.native:warm_lru",
        "repro.kernels.native:warm_hierarchy",
        "repro.kernels.native:reuse_and_stack_distances_native",
    ],
    "sampling.smarts": [
        "repro.sampling.smarts:Smarts.run",
        "repro.sampling.smarts:Smarts.begin",
        "repro.sampling.smarts:SmartsRun.refine",
        "repro.sampling.smarts:SmartsRun.result",
    ],
    "sampling.coolsim": [
        "repro.sampling.coolsim:CoolSim.run",
        "repro.sampling.coolsim:CoolSim.begin",
        "repro.sampling.coolsim:CoolSimRun.refine",
        "repro.sampling.coolsim:CoolSimRun.result",
    ],
    "sampling.classify": [
        "repro.sampling.classify:WarmingClassifier.warm_detailed",
        "repro.sampling.classify:WarmingClassifier.classify_region",
    ],
    "statmodel.assoc": [
        "repro.statmodel.assoc:StrideDetector.observe",
        "repro.statmodel.assoc:StrideDetector.observe_many",
        "repro.statmodel.assoc:StrideDetector.effective_lines_for",
    ],
    "statmodel.histogram": [
        "repro.statmodel.histogram:ReuseHistogram.add",
        "repro.statmodel.histogram:ReuseHistogram.add_cold",
        "repro.statmodel.histogram:ReuseHistogram.add_many",
        "repro.statmodel.histogram:ReuseHistogram.merge",
        "repro.statmodel.histogram:ReuseHistogram.ccdf",
    ],
    "statmodel.perpc": [
        "repro.statmodel.perpc:PerPCReuseStats.add",
        "repro.statmodel.perpc:PerPCReuseStats.miss_probability",
    ],
    "statmodel.statstack": [
        "repro.statmodel.statstack:StatStack.__init__",
        "repro.statmodel.statstack:StatStack.is_miss",
        "repro.statmodel.statstack:StatStack.miss_ratio",
    ],
    "cpu.timing": ["repro.cpu.interval:IntervalCoreModel.region_timing"],
    "live": ["repro.live.runner:LiveRunner.feed"],
}

#: Store labels the benchmark reports; anything else lands in "other".
STORE_LABELS = ("strategy-result", "trace-index", "warmup",
                "live-index", "live-result", "live-warmup")

_LIVE_LABEL = re.compile(r"^live:(?P<kind>[a-z]+):[0-9a-f]+#\d+$")


def normalize_label(label):
    """A store label with its content hash and watermark removed.

    Live watermark labels (``live:index:25aee8dd13d6#3``) carry the feed
    lineage and watermark, which change with the feed's content; the
    metric name keeps only the kind (``live-index``).
    """
    label = label or ""
    match = _LIVE_LABEL.match(label)
    if match is not None:
        return f"live-{match.group('kind')}"
    return label if label in STORE_LABELS else "other"


def read_smaps_rollup(path="/proc/self/smaps_rollup"):
    """``(anonymous_kb, file_mapped_kb)`` resident, or None if unreadable."""
    try:
        with open(path) as handle:
            fields = {}
            for line in handle:
                name, _, rest = line.partition(":")
                parts = rest.split()
                if parts and parts[0].isdigit():
                    fields[name] = int(parts[0])
    except OSError:
        return None
    rss = fields.get("Rss", 0)
    anon = fields.get("Anonymous", 0)
    return anon, max(0, rss - anon)


class LayerStats:
    __slots__ = ("calls", "busy", "self")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0


class Tracer:
    """In-memory span aggregation with per-layer self time."""

    def __init__(self, clock=time.perf_counter, memory=read_smaps_rollup):
        self.clock = clock
        self.memory = memory
        self.layers = {}
        self.counts = {}
        self.store = {}
        self.anon_peak_kb = 0
        self.mapped_peak_kb = 0
        # Open spans: [layer, start, time covered by direct children].
        self._stack = []
        self._depth = {}

    def _sample_memory(self):
        sample = self.memory() if self.memory is not None else None
        if sample is not None:
            self.anon_peak_kb = max(self.anon_peak_kb, sample[0])
            self.mapped_peak_kb = max(self.mapped_peak_kb, sample[1])

    def enter(self, layer):
        if not self._stack:
            self._sample_memory()
        self._depth[layer] = self._depth.get(layer, 0) + 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        layer, start, children = self._stack.pop()
        duration = end - start
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        stats.calls += 1
        stats.self += duration - children
        if depth == 0:
            stats.busy += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self._sample_memory()
        return duration

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def store_op(self, op, label, hit, nbytes):
        """Record one store save/load outcome under its normalized label."""
        entry = self.store.setdefault((op, normalize_label(label)),
                                      {"calls": 0, "hits": 0, "bytes": 0})
        entry["calls"] += 1
        entry["hits"] += int(hit)
        entry["bytes"] += int(nbytes)

    def snapshot(self):
        """JSON-ready aggregates (merged across passes by :func:`merge`)."""
        return {
            "layers": {name: {"calls": s.calls, "busy_s": s.busy,
                              "self_s": s.self}
                       for name, s in self.layers.items()},
            "counts": dict(self.counts),
            "store": {f"{op}|{label}": dict(entry)
                      for (op, label), entry in self.store.items()},
            "anon_peak_kb": self.anon_peak_kb,
            "mapped_peak_kb": self.mapped_peak_kb,
        }


def merge(snapshots):
    """Sum :meth:`Tracer.snapshot` records of several passes."""
    out = {"layers": {}, "counts": {}, "store": {},
           "anon_peak_kb": 0, "mapped_peak_kb": 0}
    for snap in snapshots:
        for name, stats in snap["layers"].items():
            acc = out["layers"].setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for field, value in stats.items():
                acc[field] += value
        for name, value in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
        for key, entry in snap["store"].items():
            acc = out["store"].setdefault(
                key, {"calls": 0, "hits": 0, "bytes": 0})
            for field, value in entry.items():
                acc[field] += value
        for field in ("anon_peak_kb", "mapped_peak_kb"):
            out[field] = max(out[field], snap[field])
    return out


# -- wrappers ----------------------------------------------------------------


def _span_wrapper(fn, layer, tracer):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            # Each resumption is one span; time the consumer spends
            # between resumptions belongs to the consumer.
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item
            finally:
                inner.close()
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced


def _blob_bytes(store, digest):
    try:
        return os.path.getsize(store.disk.path_for(digest))
    except OSError:
        return 0


def _label_argument(op, args, kwargs):
    """The ``label`` of ``save(key, obj, label)`` / ``load(key, label)``."""
    if "label" in kwargs:
        return kwargs["label"]
    position = 1 if op == "save" else 0
    return args[position] if len(args) > position else ""


def _store_wrapper(fn, op, tracer, guard, by_digest=False):
    """Span + outcome recording for one ArtifactStore method.

    ``guard`` is shared by the store wrappers: ``load`` delegates to
    ``load_digest``, and only the outermost call is one operation.
    ``by_digest``: the method takes a digest rather than a key.
    """
    @functools.wraps(fn)
    def traced(store, key, *args, **kwargs):
        if guard[0]:
            return fn(store, key, *args, **kwargs)
        label = _label_argument(op, args, kwargs)
        layer = f"store.{op}.{normalize_label(label)}"
        guard[0] = True
        tracer.enter(layer)
        try:
            result = fn(store, key, *args, **kwargs)
        finally:
            tracer.exit()
            guard[0] = False
        if op == "save":
            digest = result
        elif result is None:
            digest = None
        elif by_digest:
            digest = key
        else:
            digest = store.digest(key)
        nbytes = _blob_bytes(store, digest) if digest is not None else 0
        tracer.store_op(op, label, digest is not None, nbytes)
        return result
    return traced


def _warmup_wrapper(fn, tracer):
    @functools.wraps(fn)
    def traced(pipeline, *args, **kwargs):
        fn(pipeline, *args, **kwargs)
        tracer.count("core.warmup.replayed" if pipeline.replayed
                     else "core.warmup.live")
    return traced


def _resolve(target):
    """``"module:Class.attr"`` -> ``(owner, attr)``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patches:
    """The replacements :func:`install` made, undone by :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, original, replacement):
        """Rebind ``original`` in every loaded ``repro`` module: call
        sites that imported the function by name hold their own
        reference."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _patch(patches, owner, name, make_wrapper):
    raw = owner.__dict__[name]
    if isinstance(raw, classmethod):
        patches.set(owner, name, classmethod(make_wrapper(raw.__func__)))
    elif inspect.isclass(owner):
        patches.set(owner, name, make_wrapper(raw))
    else:
        patches.replace_function(raw, make_wrapper(raw))


def install(tracer):
    """Wrap every entry point of :data:`LAYERS` plus the store and the
    warm-up pipeline; returns the :class:`Patches` to restore."""
    patches = Patches()
    try:
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, name = _resolve(target)
                _patch(patches, owner, name,
                       lambda fn, layer=layer: _span_wrapper(fn, layer,
                                                             tracer))
        from repro.core.warmup import WarmupPipeline
        from repro.store.store import ArtifactStore
        guard = [False]
        for name, op in (("save", "save"), ("save_arrays", "save"),
                         ("load", "load"), ("load_digest", "load"),
                         ("load_mapped", "load")):
            _patch(patches, ArtifactStore, name,
                   lambda fn, op=op, name=name: _store_wrapper(
                       fn, op, tracer, guard,
                       by_digest=name == "load_digest"))
        _patch(patches, WarmupPipeline, "__init__",
               lambda fn: _warmup_wrapper(fn, tracer))
    except BaseException:
        patches.restore()
        raise
    return patches
