"""The numeric environment every workload runs in.

Unpinned, three identical ``workers=2`` deploy runs on a 2-core host took
10.6, 13.7 and 3.9 s: two processes with two OpenBLAS threads each fought
over two cores. With one BLAS thread per process they took 3.0-3.3 s. So
every workload runs with the BLAS thread count fixed in its environment,
and every result is printed next to a record of that environment.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

#: BLAS threads per process; forked pool workers inherit the setting.
BLAS_THREADS = 1

_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Thread-count getters exported by the OpenBLAS builds numpy ships.
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; BLAS reads it once, when numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy loads")
    for name in _THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)


def _blas_threads(numpy) -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot say."""
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*blas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint() -> dict:
    """Python, numpy, BLAS vendor/version/threads and the core count."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {
            name: os.environ.get(name) for name in _THREAD_VARIABLES
        },
        "nproc": os.cpu_count(),
    }
