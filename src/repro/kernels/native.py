"""Python face of the compiled ``native`` backend, built on first use.

:func:`load` compiles ``_native.c`` with the host's C compiler and
setuptools, in a child process, into
``__pycache__/_native-<digest><EXT_SUFFIX>`` beside the source (the way
CPython caches bytecode), then imports that file as
:mod:`repro.kernels._native`.  The digest covers the source bytes,
``EXT_SUFFIX`` and the numpy version, so an edited source, another
interpreter or another numpy never loads a stale build.  The compile
goes to a temporary directory and is renamed into place under a
:class:`~repro.reliability.locks.FileLock`: concurrent processes (pool
workers, parallel test sessions) compile once, the others wait and load.

The wrappers below normalize inputs and keep the call shapes of the
vector kernels, so the dispatch sites in :mod:`repro.caches` stay
three-way one-liners.  They need a successful :func:`load`; the registry
in :mod:`repro.kernels` runs it on the first ``native`` resolution and
resolves ``native`` to ``vector`` when it fails.
"""

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile

import numpy as np

from repro.reliability.locks import FileLock

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_native.c")
BUILD_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
MODULE_NAME = "repro.kernels._native"
#: A compile that takes longer than this counts as failed.
BUILD_TIMEOUT_S = 300.0

#: Run by ``sys.executable -c`` with ``SOURCE OUT_DIR``: setuptools'
#: ``build_ext`` with the interpreter's own compiler and flags.
_BUILD_SCRIPT = """
import sys
import numpy
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

source, out_dir = sys.argv[1:3]
command = build_ext(Distribution({"ext_modules": [Extension(
    "_native", [source], include_dirs=[numpy.get_include()])]}))
command.build_lib = command.build_temp = out_dir
command.ensure_finalized()
try:
    command.run()
except Exception as exc:          # the compiler's own stderr came first
    sys.exit(f"{type(exc).__name__}: {exc}")
"""

#: The loaded extension module, or None before a successful :func:`load`.
_native = None
#: Why the last :func:`load` failed (with the compiler's stderr tail).
load_error = None
#: Compiles this process has started.
compiles = 0


class BuildError(RuntimeError):
    """The compiler failed or timed out."""


def source_digest():
    """Hex digest naming the build of the current source."""
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as handle:
        digest.update(handle.read())
    for part in (EXT_SUFFIX, np.__version__):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:16]


def load(build_dir=None):
    """Build the extension if needed and import it; True on success.

    ``build_dir`` defaults to :data:`BUILD_DIR` (tests pass their own).
    On failure :data:`load_error` says why and nothing is raised.
    """
    global _native, load_error
    try:
        module = _import(_ensure_built(build_dir or BUILD_DIR))
    except (OSError, ImportError, BuildError) as exc:
        load_error = f"{type(exc).__name__}: {exc}"
        return False
    _native, load_error = module, None
    return True


def _ensure_built(build_dir):
    path = os.path.join(build_dir,
                        f"_native-{source_digest()}{EXT_SUFFIX}")
    if os.path.exists(path):
        return path
    os.makedirs(build_dir, exist_ok=True)
    lock = FileLock(os.path.join(build_dir, "_native.lock"))
    if not lock.acquire(exclusive=True, timeout=2 * BUILD_TIMEOUT_S):
        raise BuildError(f"timed out waiting for the build lock {lock.path}")
    try:
        if not os.path.exists(path):     # nobody built it while we waited
            _compile(path)
    finally:
        lock.release()
    return path


def _compile(path):
    global compiles
    compiles += 1
    scratch = tempfile.mkdtemp(prefix=".native-build-",
                               dir=os.path.dirname(path))
    try:
        try:
            done = subprocess.run(
                [sys.executable, "-c", _BUILD_SCRIPT, SOURCE, scratch],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BuildError(f"compile timed out after "
                             f"{BUILD_TIMEOUT_S:g} s") from None
        built = os.path.join(scratch, "_native" + EXT_SUFFIX)
        if done.returncode != 0 or not os.path.exists(built):
            tail = (done.stderr.strip() or done.stdout.strip()).splitlines()
            raise BuildError(f"compile failed (exit {done.returncode}): "
                             + "\n".join(tail[-8:]))
        os.replace(built, path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _import(path):
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, path)
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[MODULE_NAME] = module
    return module


def warm_lru(state_sets, lines, mask, assoc, want_access_info=False):
    """Batch-access an LRU cache; the compiled ``warm_lru_sets``.

    Same contract as :func:`repro.kernels.lru.warm_lru_sets` minus the
    bailout: the per-access C loop is exact in every regime, so there
    is no thrash heuristic and the result is never ``None``.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    if lines.shape[0] == 0:
        if want_access_info:
            return 0, np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        return 0, None, None
    return _native.warm_lru(state_sets, lines, int(mask), int(assoc),
                            bool(want_access_info))


def warm_hierarchy(l1_sets, llc_sets, lines, l1_mask, l1_assoc,
                   llc_mask, llc_assoc):
    """Fused L1+LLC LRU warm; returns ``(l1_hits, llc_hits)``.

    One interleaved C loop over both levels — the LLC sees exactly the
    L1-miss substream, matching the scalar reference loop in
    :meth:`repro.caches.hierarchy.CacheHierarchy.warm`.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    if lines.shape[0] == 0:
        return 0, 0
    return _native.warm_hierarchy(l1_sets, llc_sets, lines,
                                  int(l1_mask), int(l1_assoc),
                                  int(llc_mask), int(llc_assoc))


def reuse_and_stack_distances_native(lines, prev=None):
    """Exact ``(reuse, stack)`` distances via the compiled Fenwick loop.

    ``prev`` comes from the vectorized ``previous_access_index`` (one
    argsort); the Bennett-Kruskal walk itself — the part that is
    merge-bound in numpy — runs in C.  Bit-identical to the scalar
    reference.
    """
    from repro.caches.stack import previous_access_index

    lines = np.asarray(lines)
    n = lines.shape[0]
    if prev is None:
        prev = previous_access_index(lines)
    prev = np.ascontiguousarray(prev, dtype=np.int64)
    reuse = np.where(prev >= 0,
                     np.arange(n, dtype=np.int64) - prev - 1, -1)
    return reuse, _native.stack_from_prev(prev)
