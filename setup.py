"""Legacy setup shim: enables `pip install -e .` on hosts without the
`wheel` package (offline PEP 517 editable installs need bdist_wheel).
All metadata lives in pyproject.toml (PEP 621); setuptools reads it.

The compiled kernel extension (`repro.kernels._native`, the `native`
backend) is not built here.  `repro.kernels.native` compiles
`_native.c` on first use with the host's C compiler into
`src/repro/kernels/__pycache__/`, and falls back to the `vector`
backend with one warning when it cannot; pyproject.toml ships the C
source with the package for that.
"""
from setuptools import setup

setup()
