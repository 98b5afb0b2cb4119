"""The native backend's first-use build: build once, load the build of
the current source only, and degrade to ``vector`` when it cannot be
built."""

import functools
import glob
import os
import subprocess
import sys

import pytest

from conftest import make_small_workload
from repro import kernels, telemetry
from repro.caches.hierarchy import paper_hierarchy
from repro.core.delorean import DeLorean
from repro.kernels import native
from repro.sampling.plan import SamplingPlan
from repro.sampling.smarts import Smarts

pytestmark = pytest.mark.skipif(
    not kernels.native_available(),
    reason=f"this host cannot build the native extension: "
           f"{native.load_error}")

SRC = os.path.dirname(os.path.dirname(os.path.dirname(native.__file__)))

#: Loads the extension from the build dir in argv[1]; prints whether it
#: loaded, how many compiles this process ran and the file it loaded.
CHILD = """
import sys
from repro.kernels import native
ok = native.load(sys.argv[1])
print(ok, native.compiles, native._native.__file__ if ok else None)
"""


@pytest.fixture
def isolated(monkeypatch):
    """Let a test load builds of its own without leaking them into the
    session's loaded extension."""
    monkeypatch.setattr(native, "_native", native._native)
    monkeypatch.setattr(native, "load_error", native.load_error)
    monkeypatch.setattr(native, "compiles", 0)
    monkeypatch.setitem(sys.modules, native.MODULE_NAME,
                        sys.modules.get(native.MODULE_NAME))


def spawn_loader(build_dir):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", CHILD, str(build_dir)],
                            stdout=subprocess.PIPE, text=True, env=env)


def child_result(process):
    out, _ = process.communicate(timeout=600)
    assert process.returncode == 0
    ok, compiles, path = out.split()
    return ok == "True", int(compiles), path


def current_build(build_dir):
    return os.path.join(build_dir, f"_native-{native.source_digest()}"
                                   f"{native.EXT_SUFFIX}")


def test_empty_dir_builds_once_then_loads(tmp_path, isolated):
    assert native.load(tmp_path)
    assert native.compiles == 1
    path = current_build(tmp_path)
    assert native._native.__file__ == path
    assert sys.modules[native.MODULE_NAME] is native._native
    stamp = os.stat(path).st_mtime_ns
    # Neither this process nor a fresh one compiles again.
    assert native.load(tmp_path)
    assert native.compiles == 1
    assert child_result(spawn_loader(tmp_path)) == (True, 0, path)
    assert os.stat(path).st_mtime_ns == stamp
    # Only the build and its lock remain: the temp dir is gone.
    assert sorted(os.listdir(tmp_path)) == sorted(
        [os.path.basename(path), "_native.lock"])


def test_racing_processes_compile_once(tmp_path):
    # More racers than the two cores CI runners have.
    racers = [spawn_loader(tmp_path) for _ in range(3)]
    results = [child_result(process) for process in racers]
    path = current_build(tmp_path)
    assert [ok for ok, _, _ in results] == [True] * 3
    assert sum(compiles for _, compiles, _ in results) == 1
    assert [loaded for _, _, loaded in results] == [path] * 3
    assert glob.glob(os.path.join(tmp_path, "_native-*")) == [path]


def test_build_of_other_source_never_loads(tmp_path, isolated,
                                           monkeypatch):
    # A file under another digest (another source, interpreter or
    # numpy) is not a valid extension here; loading it would fail.
    stale = tmp_path / f"_native-{'0' * 16}{native.EXT_SUFFIX}"
    stale.write_bytes(b"not an extension module")
    assert native.load(tmp_path)
    assert native.compiles == 1
    assert native._native.__file__ == current_build(tmp_path)
    # Editing the source moves the digest: the existing build is left
    # alone and the edited source is compiled.
    edited = tmp_path / "_native.c"
    with open(native.SOURCE, "rb") as handle:
        edited.write_bytes(handle.read() + b"\n/* edited */\n")
    old_build = current_build(tmp_path)
    monkeypatch.setattr(native, "SOURCE", str(edited))
    assert current_build(tmp_path) != old_build
    assert native.load(tmp_path)
    assert native.compiles == 2
    assert native._native.__file__ == current_build(tmp_path)


def small_results():
    workload = make_small_workload(n_instructions=80_000)
    plan = SamplingPlan(n_instructions=workload.trace.n_instructions,
                        n_regions=2)
    out = []
    for strategy in (Smarts(), DeLorean()):
        result = strategy.run(workload, plan, paper_hierarchy(8 << 20),
                              seed=1)
        out.append((result.cpi, result.mpki, result.total_seconds,
                    [region.stats.counts for region in result.regions]))
    return out


def failing_compiler(tmp_path, monkeypatch):
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\necho 'cc: simulated failure' >&2\n"
                        "exit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setenv("CC", str(compiler))
    return tmp_path / "build", "cc: simulated failure"


def unwritable_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    return blocker / "build", "NotADirectoryError|FileExistsError"


def compile_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "BUILD_TIMEOUT_S", 0.001)
    return tmp_path / "build", "timed out"


@pytest.mark.parametrize("cause", [failing_compiler, unwritable_dir,
                                   compile_timeout])
def test_unbuildable_falls_back_to_vector(tmp_path, isolated, monkeypatch,
                                          cause):
    with kernels.use_backend("native"):
        assert kernels.get_backend() == "native"
        reference = small_results()

    build_dir, reason = cause(tmp_path, monkeypatch)
    monkeypatch.setattr(native, "load",
                        functools.partial(native.load, build_dir=build_dir))
    monkeypatch.setattr(kernels, "_native_probe", None)
    monkeypatch.setattr(kernels, "_native_fallback_reported", False)
    session = telemetry.TelemetrySession("counters",
                                         sink_dir=str(tmp_path))
    monkeypatch.setattr(telemetry, "_session", session)
    with kernels.use_backend("native"):
        with pytest.warns(RuntimeWarning, match=reason) as caught:
            assert kernels.get_backend() == "vector"
            fallback = small_results()
    assert len(caught) == 1
    assert "falling back to 'vector'" in str(caught[0].message)
    assert session.counters.get("kernel.native.unavailable") == 1
    assert not glob.glob(os.path.join(build_dir, "_native-*"))
    assert fallback == reference
