"""The loaded OpenBLAS, found once: its thread-count calls and ``zgeru``.

numpy has no call for either, so the libraries are found in
``/proc/self/maps`` on first use and opened with ``ctypes``.  Where that
file is missing, or numpy is built on another BLAS (MKL, Accelerate),
nothing is found: the thread calls are empty and the rank-1 update falls
back to numpy.
"""
from __future__ import annotations

import ctypes
from functools import lru_cache
from typing import Callable

import numpy as np

# CBLAS names of zgeru, with the C type of their integer arguments; the
# unsuffixed name takes 32- or 64-bit ones as the library was built
_ZGERU_NAMES = (("scipy_cblas_zgeru64_", ctypes.c_int64),
                ("cblas_zgeru64_", ctypes.c_int64),
                ("cblas_zgeru", None))
_ROW_MAJOR = 101                # CblasRowMajor
_MINUS_ONE = (ctypes.c_double * 2)(-1.0, 0.0)


@lru_cache(maxsize=None)
def _libraries() -> tuple:
    """Every loaded OpenBLAS, in path order."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return ()
    return tuple(map(ctypes.CDLL, sorted(paths)))


@lru_cache(maxsize=None)
def thread_calls() -> tuple:
    """(get, set) thread-count calls of each loaded OpenBLAS."""
    names = ("openblas_%s_num_threads", "openblas_%s_num_threads64_",
             "scipy_openblas_%s_num_threads64_")
    return tuple((getattr(lib, n % "get"), getattr(lib, n % "set"))
                 for lib in _libraries() for n in names
                 if hasattr(lib, n % "get"))


def _built_int(lib):
    """C type of the integer arguments of ``lib``'s unsuffixed CBLAS
    calls, read from its build configuration, or None where it has none."""
    if not hasattr(lib, "openblas_get_config"):
        return None
    config = lib.openblas_get_config
    config.restype = ctypes.c_char_p
    wide = b"USE64BITINT" in config().split()
    return ctypes.c_int64 if wide else ctypes.c_int


@lru_cache(maxsize=None)
def _zgeru():
    """The first CBLAS ``zgeru`` of the loaded OpenBLAS, typed, or None.

    An unsuffixed ``cblas_zgeru`` is taken only from a library whose build
    configuration gives the width of its integers: a wrong width would
    pass a wrong leading dimension, and the update would write outside
    the array.
    """
    for name, blasint in _ZGERU_NAMES:
        for lib in _libraries():
            if not hasattr(lib, name):
                continue
            bi = blasint or _built_int(lib)
            if bi is not None:
                fn = getattr(lib, name)
                ptr = ctypes.c_void_p
                fn.argtypes = (ctypes.c_int, bi, bi, ptr, ptr, bi, ptr, bi,
                               ptr, bi)
                fn.restype = None
                return fn
    return None


def rank1_update(a: np.ndarray, rows: np.ndarray) -> Callable:
    """``update(i, v)``: ``a -= outer(rows[i], v)`` in place.

    ``a`` is a C-contiguous complex128 (M, N) array and ``rows`` a
    C-contiguous complex128 (K, M) one; ``v`` is converted to a contiguous
    complex128 (N,) vector.  Each update is one BLAS ``zgeru`` call, which
    reads and writes ``a`` once.  Without ``zgeru`` it is
    ``a -= np.multiply.outer(rows[i], v)``, the same algebra, whose last
    bits may differ from the BLAS kernel's.
    """
    for arr, name in ((a, "a"), (rows, "rows")):
        if (arr.dtype != np.complex128 or arr.ndim != 2
                or not arr.flags.c_contiguous):
            raise ValueError(f"{name}: need a C-contiguous complex128 matrix")
    if not a.flags.writeable:
        raise ValueError("a: need a writeable array")
    (m, n), k = a.shape, rows.shape[0]
    if rows.shape[1] != m:
        raise ValueError("rows: need one entry per row of a")
    zgeru = _zgeru()
    a_ptr, rows_ptr = a.ctypes.data, rows.ctypes.data

    def update(i, v):
        if not 0 <= i < k:
            raise IndexError(f"row {i} of {k}")
        v = np.ascontiguousarray(v, dtype=np.complex128)
        if v.shape != (n,):
            raise ValueError(f"v: need shape ({n},)")
        if zgeru is None:
            np.subtract(a, np.multiply.outer(rows[i], v), out=a)
        else:    # the closure holds a and rows, so their pointers stay valid
            zgeru(_ROW_MAJOR, m, n, _MINUS_ONE, rows_ptr + i * rows.strides[0],
                  1, v.ctypes.data, 1, a_ptr, max(n, 1))
    return update
