"""Tests of the benchmark's own arithmetic, checks and wrappers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402

from repro.store import ArtifactStore, disabled_store  # noqa: E402

TINY_NAMES = ("mcf", "lbm")


@pytest.fixture
def tiny_exhibits(monkeypatch):
    monkeypatch.setattr(passes, "EXHIBIT_INSTRUCTIONS", 300_000)
    monkeypatch.setattr(passes, "EXHIBIT_REGIONS", 2)


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# -- label normalization -------------------------------------------------------


@pytest.mark.parametrize("label, expected", [
    ("live:index:25aee8dd13d6#3", "live-index"),
    ("live:warmup:0123456789ab#12", "live-warmup"),
    ("live:result:ffffffffffff#1", "live-result"),
    ("strategy-result", "strategy-result"),
    ("trace-index", "trace-index"),
    ("warmup", "warmup"),
    ("dse-report", "other"),
    ("", "other"),
    (None, "other"),
])
def test_normalize_label(label, expected):
    assert layers.normalize_label(label) == expected


def test_watermarks_of_one_kind_share_a_metric_name():
    names = {layers.normalize_label(f"live:index:{lineage}#{k}")
             for lineage in ("25aee8dd13d6", "0badc0ffee00")
             for k in range(1, 6)}
    assert names == {"live-index"}


# -- self time -----------------------------------------------------------------


def test_self_time_over_nested_spans():
    # A [0, 10) holds B [1, 5), which holds a nested A [2, 4).
    tracer = layers.Tracer(clock=FakeClock(0, 1, 2, 4, 5, 10), memory=None)
    tracer.enter("A")
    tracer.enter("B")
    tracer.enter("A")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    a, b = tracer.layers["A"], tracer.layers["B"]
    assert (a.calls, b.calls) == (2, 1)
    assert a.self == (10 - 4) + 2
    assert b.self == 4 - 2
    # The nested A adds no busy time: A was busy already.
    assert a.busy == 10
    assert b.busy == 4
    # Self times add up to the time the root span covers.
    assert a.self + b.self == 10


def test_siblings_and_residue():
    # Two root spans [0, 3) and [5, 6) in a 10 s pass: residue 0.6.
    tracer = layers.Tracer(clock=FakeClock(0, 1, 2, 3, 5, 6), memory=None)
    tracer.enter("A")
    tracer.enter("B")
    tracer.exit()
    tracer.exit()
    tracer.enter("B")
    tracer.exit()
    snapshot = layers.merge([tracer.snapshot()])
    metrics = run.layer_metrics(snapshot, traced_wall_s=10.0,
                                untraced_wall_s=9.0)
    assert snapshot["layers"]["A"]["self_s"] == 2
    assert snapshot["layers"]["B"]["self_s"] == 2
    assert metrics["residue_share"] == pytest.approx(0.6)
    assert metrics["trace_overhead_s"] == pytest.approx(1.0)


def test_memory_peaks_sampled_at_root_boundaries():
    samples = iter([(10, 1), (30, 5), (20, 9)])
    tracer = layers.Tracer(clock=FakeClock(0, 1, 2, 3),
                           memory=lambda: next(samples))
    tracer.enter("A")
    tracer.enter("B")           # nested: no sample
    tracer.exit()
    tracer.exit()
    assert (tracer.anon_peak_kb, tracer.mapped_peak_kb) == (30, 5)


def test_store_ratios():
    tracer = layers.Tracer(memory=None)
    for hit in (False, True, True):
        tracer.store_op("load", "trace-index", hit, 100 if hit else 0)
    tracer.store_op("save", "trace-index", True, 100)
    tracer.store_op("save", "trace-index", True, 100)
    metrics = run.layer_metrics(layers.merge([tracer.snapshot()]), 1.0, 1.0)
    assert metrics["store.load.trace-index.hit_ratio"] == pytest.approx(2 / 3)
    assert metrics["store.trace-index.readback_ratio"] == pytest.approx(1.0)
    assert metrics["store.save.trace-index.bytes"] == 200
    assert metrics["store.live-index.readback_ratio"] == 0.0


# -- correctness checks --------------------------------------------------------


def test_ledger_counts_a_mismatch_as_failed():
    ledger = run.Ledger()
    assert ledger.same("text", "abc")
    assert ledger.same("text", "abc")
    assert not ledger.same("text", "abd")
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_diverging_exhibit_pass_fails_the_run(tmp_path, monkeypatch):
    digests = iter(["d1", "d1", "d2"])

    def fake_spawn(kind, *args, trace=False):
        return {"digest": next(digests), "wall_s": 1.0, "setup_s": 0.1,
                "peak_rss_mb": 10.0, "cpi_err_8mb_pct": 1.0,
                "cpi_err_512mb_pct": 2.0, "backend": "vector",
                "native_available": False}, 1.2

    monkeypatch.setitem(run.MIN_PASSES, "exhibit_nostore", 3)
    bench = run.Bench("exhibit_nostore", seed=1, seconds=0.0,
                      workdir=str(tmp_path))
    monkeypatch.setattr(bench, "spawn", fake_spawn)
    assert bench.end_to_end() is not None
    assert (bench.ledger.attempted, bench.ledger.failed) == (3, 1)


def test_live_batch_divergence_fails(tmp_path, monkeypatch):
    def fake_spawn(kind, *args, trace=False):
        return {"live": {"cpi": {"SMARTS": 1.0}, "wall_s": 1.0,
                         "watermark_s": [0.5]},
                "batch": {"cpi": {"SMARTS": 1.5}, "wall_s": 1.0},
                "wall_s": 2.0, "setup_s": 0.1, "peak_rss_mb": 10.0,
                "backend": "vector", "native_available": False}, 2.2

    bench = run.Bench("live_feed", seed=1, seconds=0.0,
                      workdir=str(tmp_path))
    monkeypatch.setattr(bench, "spawn", fake_spawn)
    bench.end_to_end()
    assert bench.ledger.failed >= 1


def test_cpi_error_is_the_exhibit_average_row(tiny_exhibits):
    from repro.experiments import SuiteRunner, figures

    runner = SuiteRunner(passes.exhibit_config(TINY_NAMES),
                         store=disabled_store())
    try:
        fig9 = figures.figure9(runner)
    finally:
        runner.release()
    column = fig9["headers"].index("DeLorean err%")
    rows = [row[column] for row in fig9["rows"]]
    assert passes.cpi_error_pct(fig9) == pytest.approx(sum(rows) / len(rows))
    assert passes.cpi_error_pct(fig9) == fig9["average"][column]


def test_cold_warm_and_store_off_text_identical(tmp_path, tiny_exhibits):
    root = str(tmp_path / "store")
    cold = passes.run_exhibits(TINY_NAMES, ArtifactStore(root=root,
                                                         enabled=True))
    warm = passes.run_exhibits(TINY_NAMES, ArtifactStore(root=root,
                                                         enabled=True))
    off = passes.run_exhibits(TINY_NAMES, disabled_store())
    assert cold["text"] == warm["text"] == off["text"]


# -- wrappers ------------------------------------------------------------------


def _traced(fn, *args):
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        return fn(*args), tracer
    finally:
        patches.restore()


def test_wrappers_leave_exhibits_bit_identical(tmp_path, tiny_exhibits):
    plain = passes.run_exhibits(TINY_NAMES, disabled_store())
    traced, tracer = _traced(
        passes.run_exhibits, TINY_NAMES,
        ArtifactStore(root=str(tmp_path / "s"), enabled=True))
    assert traced["text"] == plain["text"]
    for layer in ("core.delorean", "sampling.smarts", "sampling.coolsim",
                  "sampling.classify", "trace.build_trace", "caches.warm",
                  "store.save.strategy-result"):
        assert tracer.layers[layer].calls > 0, layer
    assert tracer.counts["core.warmup.live"] == len(TINY_NAMES)


def test_wrappers_leave_live_feed_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(passes, "LIVE_INSTRUCTIONS", 200_000)
    monkeypatch.setattr(passes, "LIVE_GAP", 50_000)
    plain = passes.run_live(3, ArtifactStore(root=str(tmp_path / "a"),
                                             enabled=True))
    traced, tracer = _traced(
        passes.run_live, 3,
        ArtifactStore(root=str(tmp_path / "b"), enabled=True))
    assert traced["cpi"] == plain["cpi"]
    assert tracer.layers["live"].calls > 0
    assert tracer.layers["vff.index.seal"].calls == len(plain["watermark_s"])
    assert ("save", "live-index") in tracer.store


def test_restore_puts_every_original_back():
    from repro.caches import hierarchy
    from repro.kernels import lru
    from repro.store.store import ArtifactStore as Store
    from repro.trace import phases

    before = (lru.warm_lru_sets, hierarchy.warm_lru_sets,
              phases.build_trace, Store.__dict__["load"])
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    assert hierarchy.warm_lru_sets is not before[1]
    patches.restore()
    after = (lru.warm_lru_sets, hierarchy.warm_lru_sets,
             phases.build_trace, Store.__dict__["load"])
    assert after == before


# -- the declared metrics ------------------------------------------------------


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
