"""Global compute precision for the numpy DL substrate.

Training runs in float32 by default (about 2x faster on this substrate's
matmul-bound workloads). Gradient-checking tests switch to float64, where
central differences are meaningful.

:func:`numeric_environment` names what else decides the bits of a
forward pass, so a golden fixture can record it next to its outputs.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

_DTYPE = np.float32


def dtype() -> type:
    """The current compute dtype for parameters and activations."""
    return _DTYPE


def set_dtype(new_dtype) -> None:
    """Set the global compute dtype (float32 or float64)."""
    global _DTYPE
    if new_dtype not in (np.float32, np.float64):
        raise ValueError("dtype must be numpy float32 or float64")
    _DTYPE = new_dtype


#: Thread-count getters exported by the OpenBLAS builds numpy ships.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy uses, or None if unknown."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*blas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def numeric_environment() -> dict:
    """numpy version, BLAS vendor/version/threads and the compute dtype.

    A multi-threaded BLAS splits GEMMs differently from a single-threaded
    one, which moves float32 results by an ulp or two; these keys are what
    a bitwise fixture depends on beyond the code itself.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "dtype": np.dtype(_DTYPE).name,
    }
