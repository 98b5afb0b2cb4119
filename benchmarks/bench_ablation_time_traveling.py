"""Ablation: DSW with and without Time Traveling (Section 3.3).

The paper argues DSW alone is not enough: keeping key-line watchpoints
armed across the whole warm-up interval in a single pass costs so many
page stops that it "negates the benefit from having to collect fewer
reuse distances".  This ablation quantifies that claim by running the
naive single-pass design against the pipelined Explorer chain on a slice
of the suite: accuracy is identical by construction, only speed differs.
"""

import numpy as np

from conftest import emit
from repro.caches.hierarchy import paper_hierarchy
from repro.core.delorean import DeLorean
from repro.core.naive import NaiveDirectedWarming
from repro.experiments.report import format_table
from repro.vff.index import TraceIndex

BENCHES = ("perlbench", "zeusmp", "GemsFDTD", "lbm")


def run_ablation(runner):
    rows = []
    plan = runner.config.plan()
    hierarchy = paper_hierarchy(runner.config.llc_paper_bytes,
                                scale=runner.config.footprint_scale)
    for name in BENCHES:
        if name not in runner.names:
            continue
        workload = runner._workload(name)
        index = runner._context(name).index
        naive = NaiveDirectedWarming().run(
            workload, plan, hierarchy, index=index, seed=runner.config.seed)
        delorean = runner.run(name, "DeLorean")
        rows.append([
            name,
            naive.mips,
            delorean.mips,
            naive.total_seconds / delorean.total_seconds,
            abs(naive.mpki - delorean.mpki),
        ])
    headers = ["benchmark", "naive-DSW MIPS", "DeLorean MIPS",
               "TT speedup", "|MPKI delta|"]
    text = format_table(headers, rows,
                        title="Ablation: time traveling vs naive "
                              "single-pass DSW")
    text += ("\npaper (Section 3.3): naive DSW's full-interval "
             "watchpoints negate DSW's sampling advantage")
    return {"rows": rows, "text": text}


def test_ablation_time_traveling(benchmark, suite_runner):
    out = benchmark.pedantic(run_ablation, args=(suite_runner,),
                             rounds=1, iterations=1)
    emit("ablation_time_traveling", out["text"])
    for row in out["rows"]:
        assert row[3] > 1.0, f"{row[0]}: TT must beat naive DSW"
        assert row[4] < 5.0, f"{row[0]}: accuracy must be preserved"
