"""One measured pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, one after another, so every
pass pays its own imports and store open (as a user's process does) and
reports a clean peak RSS.  Usage::

    python3 perfbench/passes.py exhibits --names perlbench,mcf,... \\
        [--store-root DIR] --launched T --out FILE [--trace]
    python3 perfbench/passes.py live --seed N --store-root DIR \\
        [--no-batch] --launched T --out FILE [--trace]

``--launched`` is the parent's ``time.time()`` just before it started
this process; ``setup_s`` runs from there to the first call into the
program.  Without ``--store-root`` the store is disabled.  The pass
writes one JSON record to ``--out``.
"""

import argparse
import hashlib
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

from repro import kernels  # noqa: E402
from repro.caches.hierarchy import paper_hierarchy  # noqa: E402
from repro.experiments import ExperimentConfig, SuiteRunner  # noqa: E402
from repro.experiments import figures  # noqa: E402
from repro.live import LiveRunner, PrefixWorkload  # noqa: E402
from repro.live.runner import default_strategies  # noqa: E402
from repro.sampling.plan import SamplingPlan  # noqa: E402
from repro.store import ArtifactStore, disabled_store  # noqa: E402
from repro.trace.engines import (  # noqa: E402
    MultiWorkingSetEngine,
    SequentialEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
# Called through their modules, so that a traced pass reaches the
# wrappers layers.install puts there.
from repro.trace import phases, stream  # noqa: E402

import layers  # noqa: E402

#: Trace length and regions per benchmark: the library's QUICK plan
#: (4 regions) over half its trace length, so that a run holds several
#: passes.
EXHIBIT_INSTRUCTIONS = 600_000
EXHIBIT_REGIONS = 4

#: The ``benchmarks/bench_live.py`` feed at its quick profile.
LIVE_ACCESSES = 200_000
LIVE_MEM_FRACTION = 0.4
LIVE_INSTRUCTIONS = int(LIVE_ACCESSES / LIVE_MEM_FRACTION)
LIVE_WATERMARKS = 4
LIVE_GAP = LIVE_INSTRUCTIONS // LIVE_WATERMARKS
LIVE_CHUNK_INSTRUCTIONS = 1 << 17
LIVE_NAME = "bench-live"


def peak_rss_mb():
    """This process's VmHWM in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def open_store(root):
    return (ArtifactStore(root=root, enabled=True) if root is not None
            else disabled_store())


def digest_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- exhibits ------------------------------------------------------------------


def exhibit_config(names):
    return ExperimentConfig(n_instructions=EXHIBIT_INSTRUCTIONS,
                            n_regions=EXHIBIT_REGIONS, names=tuple(names))


def run_exhibits(names, store):
    """Figures 5 and 9 (8 MB matrix), then figure 10 (512 MB matrix)."""
    runner = SuiteRunner(exhibit_config(names), store=store)
    try:
        fig5 = figures.figure5(runner)
        fig9 = figures.figure9(runner)
        fig10 = figures.figure10(runner)
    finally:
        runner.release()
    text = "\n\n".join(fig["text"] for fig in (fig5, fig9, fig10)) + "\n"
    return {
        "text": text,
        "cpi_err_8mb_pct": cpi_error_pct(fig9),
        "cpi_err_512mb_pct": cpi_error_pct(fig10),
    }


def cpi_error_pct(figure):
    """DeLorean's mean CPI error vs SMARTS: the exhibit's average row."""
    return float(figure["average"][figure["headers"].index("DeLorean err%")])


# -- live feed -----------------------------------------------------------------


def live_phases():
    arena = np.arange(1 << 15, dtype=np.int64) + (1 << 16)
    engine = MultiWorkingSetEngine([
        WorkingSetComponent(
            UniformWorkingSetEngine(arena[:2048], n_pcs=24), 0.7),
        WorkingSetComponent(
            SequentialEngine(arena[2048:], n_pcs=8), 0.3, pc_base=24),
    ])
    return [phases.PhaseSpec("big", LIVE_INSTRUCTIONS, engine,
                      mem_fraction=LIVE_MEM_FRACTION, branch_fraction=0.1)]


def run_live(seed, store):
    """Drain the feed through LiveRunner; closed loop (the producer
    makes the next chunk only when the runner pulls it)."""
    start = time.perf_counter()
    latencies = []
    results = None
    chunks = stream.generate_chunks(live_phases(), seed=seed, name=LIVE_NAME,
                             chunk_instructions=LIVE_CHUNK_INSTRUCTIONS)
    with LiveRunner(LIVE_GAP, paper_hierarchy(), name=LIVE_NAME, seed=seed,
                    store=store, spill="always") as runner:
        last = start
        for watermark in runner.feed(chunks):
            now = time.perf_counter()
            latencies.append(now - last)
            last = now
            results = watermark.results
    return {
        "wall_s": time.perf_counter() - start,
        "watermark_s": latencies,
        "cpi": {name: result.cpi for name, result in results.items()},
    }


def run_batch(seed):
    """The from-scratch batch reference over the same feed."""
    start = time.perf_counter()
    trace = phases.build_trace(live_phases(), seed=seed, name=LIVE_NAME)
    plan = SamplingPlan(n_instructions=LIVE_INSTRUCTIONS,
                        n_regions=LIVE_WATERMARKS)
    cpi = {}
    for name, strategy in default_strategies().items():
        cpi[name] = strategy.run(PrefixWorkload(trace, seed=seed), plan,
                                 paper_hierarchy(), seed=seed).cpi
    return {"wall_s": time.perf_counter() - start, "cpi": cpi}


# -- entry point ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("exhibits", "live"))
    parser.add_argument("--names", default="",
                        help="exhibits: comma-separated benchmarks, in order")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--store-root", default=None)
    parser.add_argument("--no-batch", action="store_true",
                        help="live: skip the batch leg")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    store = open_store(args.store_root)
    record = {"backend": kernels.get_backend(),
              "native_available": kernels.native_available()}
    record["setup_s"] = time.time() - args.launched
    tracer = patches = None
    if args.trace:
        tracer = layers.Tracer()
        patches = layers.install(tracer)
    try:
        if args.kind == "exhibits":
            start = time.perf_counter()
            out = run_exhibits(args.names.split(","), store)
            record["wall_s"] = time.perf_counter() - start
            record["peak_rss_mb"] = peak_rss_mb()
            record["digest"] = digest_of(out.pop("text"))
            record.update(out)
        else:
            live = run_live(args.seed, store)
            record["peak_rss_mb"] = peak_rss_mb()
            record["live"] = live
            record["wall_s"] = live["wall_s"]
            if tracer is not None:
                tracer.count("live.watermarks", len(live["watermark_s"]))
            if not args.no_batch:
                record["batch"] = run_batch(args.seed)
                record["wall_s"] += record["batch"]["wall_s"]
    finally:
        if patches is not None:
            patches.restore()
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
