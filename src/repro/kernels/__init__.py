"""Vectorized simulation kernels and backend selection.

The hot paths of the reproduction — bulk LRU warming, stack-distance
profiling, warming classification and watchpoint resolution — exist in
three equivalent implementations:

* ``scalar`` — the original per-access Python loops, kept as the
  reference semantics;
* ``vector`` — numpy batch kernels (this package) that produce
  bit-identical hits, misses, distances and final cache state;
* ``native`` — a compiled C extension (:mod:`repro.kernels._native`)
  running the per-access reference loops fused in C: exact in every
  regime, so the vector backend's thrash bailout does not exist there.
  It is the default.  The first resolution builds it with the host's
  C compiler into ``kernels/__pycache__`` and later processes load that
  build (:mod:`repro.kernels.native`).

The active backend is chosen per process: the ``REPRO_KERNEL_BACKEND``
environment variable seeds the default, :func:`set_backend` switches it,
and :func:`use_backend` scopes a switch.  Call sites dispatch through
:func:`get_backend`, so the scalar reference stays one flag away for
equivalence testing and for platforms where numpy batching misbehaves.

Selecting ``native`` never hard-fails: when the extension cannot be
built or loaded (no compiler, a failed or timed-out compile, an
unwritable build directory) the selection resolves to ``vector`` at
dispatch time — one :class:`RuntimeWarning` carrying the reason plus a
``kernel.native.unavailable`` telemetry counter on the first
resolution, never an import error.
"""

import contextlib
import os
import warnings

BACKENDS = ("scalar", "vector", "native")

_backend = os.environ.get("REPRO_KERNEL_BACKEND", "native")
if _backend not in BACKENDS:
    raise ValueError(
        f"REPRO_KERNEL_BACKEND must be one of {BACKENDS}, got {_backend!r}")

#: Lazy build-and-load probe of the compiled extension (None = unprobed).
_native_probe = None
#: True once the native->vector fallback has been reported.
_native_fallback_reported = False


def native_available():
    """True when the compiled extension loads on this host (cached).

    The first call builds it if no build of the current source exists.
    """
    global _native_probe
    if _native_probe is None:
        from repro.kernels import native
        _native_probe = native.load()
    return _native_probe


def _resolve(name):
    """Degrade ``native`` to ``vector`` when the extension is unusable."""
    global _native_fallback_reported
    if name != "native" or native_available():
        return name
    if not _native_fallback_reported:
        _native_fallback_reported = True
        from repro.kernels import native
        warnings.warn(
            "kernel backend 'native' requested but the compiled "
            "extension repro.kernels._native could not be built or "
            "loaded; falling back to 'vector' (REPRO_KERNEL_BACKEND="
            f"vector skips the build): {native.load_error}",
            RuntimeWarning, stacklevel=3)
        from repro import telemetry
        session = telemetry.session()
        if session is not None:
            session.count("kernel.native.unavailable")
    return "vector"


def get_backend():
    """The active kernel backend (``"scalar"``, ``"vector"`` or
    ``"native"``), after fallback resolution."""
    return _resolve(_backend)


def requested_backend():
    """The selected backend before fallback resolution."""
    return _backend


def set_backend(name):
    """Select the kernel backend process-wide; returns the previous one."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    previous = _backend
    _backend = name
    return previous


@contextlib.contextmanager
def use_backend(name):
    """Context manager scoping a backend switch."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
