"""Global compute precision for the numpy DL substrate.

Training runs in float32 by default (about 2x faster on this substrate's
matmul-bound workloads). Gradient-checking tests switch to float64, where
central differences are meaningful.

:func:`numeric_environment` names what else decides the bits of a
forward pass, so a golden fixture can record it next to its outputs.
:func:`pin_blas_threads` fixes the one part of it that varies by host,
the BLAS thread count; ``import repro`` calls it.
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


#: The matching setters, in the same order.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _blas_function(symbols: tuple[str, ...]):
    """The first of ``symbols`` numpy's bundled OpenBLAS exports, or None."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*blas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(library, symbol, None)
            if function is not None:
                return function
    return None


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy uses, or None if unknown."""
    getter = _blas_function(_BLAS_THREAD_GETTERS)
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread (no-op without one).

    A GEMM split over several BLAS threads rounds differently from a
    single-threaded one, so the bitwise contracts (batched == sequential,
    workers=N == workers=1, golden fixtures) hold only at a fixed thread
    count. One thread is also the faster setting wherever it was
    measured (DESIGN §5, item 11): a process pool already spreads work
    over the cores, and extra BLAS threads only contend with it. Forked
    pool workers inherit the setting.
    """
    setter = _blas_function(_BLAS_THREAD_SETTERS)
    if setter is None:
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


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
