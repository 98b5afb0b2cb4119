"""The repository's benchmark: paper exhibits and the live feed, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exhibit_store --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``exhibit_store`` — figures 5, 9 and 10 over the six ``--quick``
  benchmarks, cold into an empty store; then fresh processes replay
  them from the populated store (the warm pass);
* ``exhibit_nostore`` — the same exhibits with the store disabled;
* ``live_feed`` — ``LiveRunner`` over a generated feed, then a
  from-scratch batch run over the same feed.

Every pass runs in its own fresh interpreter (``passes.py``), one after
another: no pool, no concurrency.  Passes repeat until ``--seconds``
have been measured (with a per-workload minimum), and each metric is
the median over them.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced copy of each pass and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Outputs are checked in every run: all exhibit passes of a run (cold,
warm, traced) must print byte-identical text, and the live and batch
legs must agree on every strategy's CPI.  A mismatch, a crash or a
timeout is a failed operation.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PASSES = os.path.join(BENCH_DIR, "passes.py")
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402

WORKLOADS = ("exhibit_store", "exhibit_nostore", "live_feed")

#: The six benchmarks of ``python -m repro fig5 --quick``; the seed
#: picks the order in which the suite runner visits them.
EXHIBIT_NAMES = ("perlbench", "bwaves", "mcf", "povray", "GemsFDTD", "lbm")

#: Fewest main passes per run, whatever ``--seconds`` says.
MIN_PASSES = {"exhibit_store": 4, "exhibit_nostore": 5, "live_feed": 4}
#: Fresh-process reruns after each main pass, against the store it left.
WARM_PER_MAIN = {"exhibit_store": 3, "live_feed": 1}
#: Wall-clock budget of one run, below the 180 s a run may take.
RUN_BUDGET_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Workload-specific figures: printed on every run, reported as
#: per-layer metrics from the untraced passes of a ``--trace 1`` run.
WORKLOAD_FIGURES = {
    "store_mb": "MB",
    "batch_s": "s",
    "watermark_p50_s": "s",
    "cpi_err_8mb_pct": "%",
    "cpi_err_512mb_pct": "%",
}


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for label in layers.STORE_LABELS:
        units[f"store.save.{label}.self_s"] = "s"
        units[f"store.save.{label}.bytes"] = "B"
        units[f"store.load.{label}.self_s"] = "s"
        units[f"store.load.{label}.bytes"] = "B"
        units[f"store.load.{label}.hit_ratio"] = "ratio"
        units[f"store.{label}.readback_ratio"] = "ratio"
    units["core.warmup.replayed"] = "count"
    units["core.warmup.live"] = "count"
    units["live.watermarks"] = "count"
    units["mem.anon_peak_mb"] = "MB"
    units["mem.mapped_peak_mb"] = "MB"
    units["residue_share"] = "ratio"
    units["trace_overhead_s"] = "s"
    units.update(WORKLOAD_FIGURES)
    return units


def layer_metrics(snapshot, traced_wall_s, untraced_wall_s):
    """Per-layer values from merged tracer snapshots of traced passes.

    ``traced_wall_s``/``untraced_wall_s`` are the summed pass walls of
    the traced passes and of their untraced twins.
    """
    out = {}
    for layer in layers.LAYERS:
        stats = snapshot["layers"].get(
            layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for field in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{field}"] = stats[field]
    for label in layers.STORE_LABELS:
        save = snapshot["store"].get(f"save|{label}",
                                     {"calls": 0, "hits": 0, "bytes": 0})
        load = snapshot["store"].get(f"load|{label}",
                                     {"calls": 0, "hits": 0, "bytes": 0})
        for op in ("save", "load"):
            stats = snapshot["layers"].get(f"store.{op}.{label}")
            out[f"store.{op}.{label}.self_s"] = (
                stats["self_s"] if stats else 0.0)
        out[f"store.save.{label}.bytes"] = save["bytes"]
        out[f"store.load.{label}.bytes"] = load["bytes"]
        out[f"store.load.{label}.hit_ratio"] = (
            load["hits"] / load["calls"] if load["calls"] else 0.0)
        out[f"store.{label}.readback_ratio"] = (
            load["hits"] / save["calls"] if save["calls"] else 0.0)
    for name in ("core.warmup.replayed", "core.warmup.live",
                 "live.watermarks"):
        out[name] = snapshot["counts"].get(name, 0)
    out["mem.anon_peak_mb"] = snapshot["anon_peak_kb"] / 1024.0
    out["mem.mapped_peak_mb"] = snapshot["mapped_peak_kb"] / 1024.0
    covered = sum(stats["self_s"] for stats in snapshot["layers"].values())
    out["residue_share"] = (1.0 - covered / traced_wall_s
                            if traced_wall_s > 0 else 0.0)
    out["trace_overhead_s"] = traced_wall_s - untraced_wall_s
    return out


def exhibit_order(seed):
    return random.Random(seed).sample(EXHIBIT_NAMES, len(EXHIBIT_NAMES))


def dir_bytes(root):
    total = 0
    for base, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


class Ledger:
    """Operations attempted and failed; outputs that must agree."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reference = {}

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def same(self, kind, value, what=""):
        """Record one operation whose output ``value`` must equal the
        first ``value`` recorded under ``kind``."""
        reference = self._reference.setdefault(kind, value)
        return self.record(value == reference,
                           f"{what}: {kind} {value!r} != {reference!r}")


class Bench:
    """One benchmark run: spawns passes, checks outputs, keeps time."""

    def __init__(self, workload, seed, seconds, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.ledger = Ledger()
        self.started = time.perf_counter()
        self.labels = {}
        self._n = 0
        self._roots = 0
        # Hermetic children: no inherited REPRO_* knob changes what is
        # measured, and a default store root inside the run directory
        # keeps every write inside the checkout.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-store")

    def elapsed(self):
        return time.perf_counter() - self.started

    def remaining(self):
        return RUN_BUDGET_S - self.elapsed()

    def fresh_root(self):
        self._roots += 1
        return os.path.join(self.workdir, f"store-{self._roots}")

    def spawn(self, kind, *args, trace=False):
        """Run one pass; ``(record, whole_process_s)`` or ``(None, s)``."""
        self._n += 1
        out = os.path.join(self.workdir, f"pass-{self._n}.json")
        cmd = [sys.executable, PASSES, kind, "--out", out, *args]
        if trace:
            cmd.append("--trace")
        start = time.perf_counter()
        cmd += ["--launched", repr(time.time())]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.ledger.record(False, f"{kind} pass timed out")
            return None, time.perf_counter() - start
        whole = time.perf_counter() - start
        if proc.returncode != 0 or not os.path.exists(out):
            self.ledger.record(False,
                               f"{kind} pass exited {proc.returncode}")
            return None, whole
        with open(out) as handle:
            record = json.load(handle)
        self.labels.update(backend=record["backend"],
                           native_available=record["native_available"])
        return record, whole

    def keep_going(self, done, last_s):
        """Start another main pass?  Until the minimum is met, then while
        the next pass and its reruns (as long as the last) end within
        ``--seconds``; never past the run budget."""
        if self.remaining() < last_s * 1.5 + 25.0:
            return False
        return (done < MIN_PASSES[self.workload]
                or self.elapsed() + last_s <= self.seconds)

    # -- passes ----------------------------------------------------------------

    def one_pass(self, root, warm=False, trace=False):
        """Run one pass and check its outputs; ``(record, whole_s)``.

        ``root`` is the store root (None: store disabled).  A warm
        ``live_feed`` pass reruns the live leg alone.
        """
        if self.workload == "live_feed":
            warm_args = ["--no-batch"] if warm else []
            record, whole = self.spawn(
                "live", "--seed", str(self.seed), "--store-root", root,
                *warm_args, trace=trace)
            if record is not None:
                self.ledger.same("cpi", record["live"]["cpi"], "live leg")
                if "batch" in record:
                    self.ledger.same("cpi", record["batch"]["cpi"],
                                     "batch leg")
                self.labels["digest"] = cpi_digest(record["live"]["cpi"])
            return record, whole
        store = ["--store-root", root] if root else []
        record, whole = self.spawn(
            "exhibits", "--names", ",".join(exhibit_order(self.seed)),
            *store, trace=trace)
        if record is not None:
            self.ledger.same("exhibit text", record["digest"],
                             "traced exhibit pass" if trace
                             else "exhibit pass")
            self.labels["digest"] = record["digest"]
        return record, whole

    def uses_store(self):
        return self.workload != "exhibit_nostore"

    def extras(self, records, store_bytes):
        """The workload-specific figures (see WORKLOAD_FIGURES)."""
        out = dict.fromkeys(WORKLOAD_FIGURES, 0.0)
        out["store_mb"] = statistics.median(store_bytes) / 1e6
        if self.workload == "live_feed":
            out["batch_s"] = statistics.median(
                r["batch"]["wall_s"] for r in records)
            out["watermark_p50_s"] = statistics.median(
                s for r in records for s in r["live"]["watermark_s"])
        else:
            out["cpi_err_8mb_pct"] = records[0]["cpi_err_8mb_pct"]
            out["cpi_err_512mb_pct"] = records[0]["cpi_err_512mb_pct"]
        return out

    # -- the two kinds of run --------------------------------------------------

    def end_to_end(self):
        """Main passes, each followed by its warm reruns (spread over the
        run, so no one stretch of host load sets the warm median);
        medians of each metric."""
        main, warm, setups, store_bytes = [], [], [], []
        last = 0.0
        while self.keep_going(len(main), last):
            began = time.perf_counter()
            root = self.fresh_root() if self.uses_store() else None
            record, whole = self.one_pass(root)
            if record is not None:
                main.append(record)
                setups.append(record["setup_s"])
                store_bytes.append(dir_bytes(root) if root else 0)
                if not self.uses_store():
                    # Without a store every rerun recomputes: each main
                    # pass is also a rerun.
                    warm.append(whole)
                for _ in range(WARM_PER_MAIN.get(self.workload, 0)):
                    rerun, whole = self.one_pass(root, warm=True)
                    if rerun is not None:
                        warm.append(whole)
                        setups.append(rerun["setup_s"])
            last = time.perf_counter() - began
        if not main or not warm:
            return None
        live = self.workload == "live_feed"
        self.labels["passes"] = f"{len(main)} main, {len(warm)} warm"
        return {
            "wall_s": statistics.median(
                r["live"]["wall_s"] if live else r["wall_s"] for r in main),
            "warm_s": statistics.median(warm),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in main),
        }, self.extras(main, store_bytes)

    def traced(self):
        """One untraced and one traced copy of each pass: a cold pass
        (plus a warm one on ``exhibit_store``) or the live and batch
        legs."""
        walls = {False: 0.0, True: 0.0}
        snapshots = []
        extras = None
        for trace in (False, True):
            root = self.fresh_root() if self.uses_store() else None
            record, _ = self.one_pass(root, trace=trace)
            if record is None:
                return None
            if not trace:
                extras = self.extras(
                    [record], [dir_bytes(root) if root else 0])
            copies = [record]
            if self.workload == "exhibit_store":
                warm, _ = self.one_pass(root, warm=True, trace=trace)
                if warm is None:
                    return None
                copies.append(warm)
            for copy in copies:
                walls[trace] += copy["wall_s"]
                if trace:
                    snapshots.append(copy["trace"])
        return layer_metrics(layers.merge(snapshots), walls[True],
                             walls[False]), extras


def cpi_digest(cpi):
    return hashlib.sha256(
        json.dumps(cpi, sort_keys=True).encode()).hexdigest()


def build_parser():
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the exhibits and the live "
                    "feed (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "repro",
                                       "__init__.py")):
        print("error: run from the root of a checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    scratch = os.path.join(checkout, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir)
        outcome = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    values, extras = outcome
    if args.trace:
        units = per_layer_units()
        values = {**values, **extras}
    else:
        units = END_TO_END
    ledger = bench.ledger
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v}" for k, v in bench.labels.items()))
    for name, value in {**values, **extras}.items():
        unit = units.get(name, WORKLOAD_FIGURES.get(name, ""))
        print(f"  {name:<44s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
