"""Tests for the experiments layer: runner, figures, report rendering."""

import math

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ascii_chart, format_table
from repro.experiments.runner import SuiteRunner
from repro.experiments import figures


TINY = ExperimentConfig(
    n_instructions=360_000,
    n_regions=3,
    names=("bwaves", "mcf"),
)


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(TINY)


def test_runner_memoizes(runner):
    first = runner.run("bwaves", "SMARTS")
    second = runner.run("bwaves", "SMARTS")
    assert first is second


def test_runner_distinguishes_options(runner):
    base = runner.run("bwaves", "DeLorean")
    dense = runner.run("bwaves", "DeLorean", vicinity_density=1e-4)
    assert base is not dense


def test_run_matrix_shape(runner):
    matrix = runner.run_matrix(strategies=("SMARTS", "DeLorean"))
    assert set(matrix) == {"SMARTS", "DeLorean"}
    assert set(matrix["SMARTS"]) == {"bwaves", "mcf"}


def test_figure5_structure(runner):
    out = figures.figure5(runner)
    assert len(out["rows"]) == 2
    assert out["average"][0] == "average"
    assert "Figure 5" in out["text"]


def test_figure6_reduction_positive(runner):
    out = figures.figure6(runner)
    for row in out["rows"]:
        assert row[1] > 0 and row[2] > 0


def test_figure8_bounds(runner):
    out = figures.figure8(runner)
    for name, engaged in out["rows"]:
        assert 0.0 <= engaged <= 4.0


def test_figure9_has_errors(runner):
    out = figures.figure9(runner)
    assert all(len(row) == 6 for row in out["rows"])


def test_table1_text():
    out = figures.table1()
    assert "Table 1" in out["text"]


def test_headline_rows(runner):
    out = figures.headline(runner)
    names = [row[0] for row in out["rows"]]
    assert "DeLorean vs SMARTS speedup" in names
    assert "warm-up vs detailed time" in names


def test_lukewarm_stats(runner):
    out = figures.lukewarm_stats(runner)
    for row in out["rows"]:
        assert 0 <= row[1] <= 100
        assert row[1] <= row[2] <= 100


def test_config_plan_and_copy():
    config = ExperimentConfig(n_instructions=600_000, n_regions=3)
    plan = config.plan()
    assert plan.n_regions == 3
    other = config.with_options(n_regions=5)
    assert other.n_regions == 5 and config.n_regions == 3
    assert config.cache_key() != other.cache_key()


# -- report rendering -------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["name", "value"],
                        [["a", 1.5], ["bb", float("nan")]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.50" in text
    assert "-" in lines[-1]        # NaN rendered as '-'


def test_format_table_int_rendering():
    text = format_table(["n"], [[42]])
    assert "42" in text


def test_ascii_chart_renders_markers():
    text = ascii_chart([1, 2, 4], {"a": [1.0, 2.0, 3.0],
                                   "b": [3.0, 2.0, 1.0]})
    assert "*" in text and "o" in text
    assert "1 .. 4" in text


def test_ascii_chart_log_scale():
    text = ascii_chart([1, 2], {"a": [1.0, 1000.0]}, logy=True)
    assert "1e+03" in text or "1000" in text


def test_ascii_chart_empty():
    assert ascii_chart([1], {"a": [float("nan")]}) == "(no data)"


def test_smarts_builds_no_index(monkeypatch):
    """SMARTS never queries the trace index, so a SMARTS-only run builds
    none; the first strategy that needs it builds it once."""
    from repro.store import disabled_store
    from repro.vff import index as index_module

    builds = []
    real_build = index_module.build_index_tables

    def counting_build(*args, **kwargs):
        builds.append(1)
        return real_build(*args, **kwargs)

    def fingerprint(result):
        return (result.cpi, result.mpki, result.total_seconds,
                [region.stats.counts for region in result.regions])

    monkeypatch.setattr(index_module, "build_index_tables", counting_build)
    lazy = SuiteRunner(TINY, store=disabled_store())
    smarts = lazy.run("mcf", "SMARTS")
    assert len(builds) == 0
    delorean = lazy.run("mcf", "DeLorean")
    assert len(builds) == 1
    lazy.release()

    # The same runs with the index built before SMARTS starts.
    eager = SuiteRunner(TINY, store=disabled_store())
    eager._context("mcf").index
    assert fingerprint(eager.run("mcf", "SMARTS")) == fingerprint(smarts)
    assert fingerprint(eager.run("mcf", "DeLorean")) == \
        fingerprint(delorean)
    eager.release()
