"""Backend selection for the integer linear-algebra kernels.

The compiled extension (``bftorus._kernels_cy``) is used when present;
otherwise the pure-Python reference implementation takes over.  Set
``BFTORUS_PURE=1`` to force the pure backend even when the extension is
installed (useful for benchmarking and for the bit-exactness tests).
``snf_diag`` has no compiled twin and is the pure version on either
backend.
"""

import importlib
import os

from . import _kernels_py


def load_backend(name):
    """Return the kernel module for ``name`` ('python' or 'compiled')."""
    if name == "python":
        return _kernels_py
    if name == "compiled":
        return importlib.import_module("bftorus._kernels_cy")
    raise ValueError(f"unknown kernel backend: {name!r}")


if os.environ.get("BFTORUS_PURE") == "1":
    _impl = _kernels_py
else:
    try:
        _impl = load_backend("compiled")
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND
hnf_cols = _impl.hnf_cols
snf_rows = _impl.snf_rows
det_bareiss = _impl.det_bareiss
solve_upper_cols = _impl.solve_upper_cols
mat_mul_rows = _impl.mat_mul_rows
snf_diag = _kernels_py.snf_diag
