"""The loaded OpenBLAS: thread calls, zgeru and the rank-1 update."""
import ctypes
from types import SimpleNamespace

import numpy as np
import pytest

from mimodsp import _openblas
from mimodsp.link import sim


def _integer_problem(rng, m=7, n=5, k=3):
    # small whole numbers: every product and sum is exact, so both update
    # paths must give the outer product's result bit for bit
    def draw(*shape):
        return (rng.integers(-9, 10, shape)
                + 1j * rng.integers(-9, 10, shape)).astype(complex)
    return draw(m, n), draw(k, m), draw(n)


def test_zgeru_found_wherever_thread_calls_are():
    # the same libraries serve both, so a host that pins the BLAS threads
    # runs cd's update in that BLAS, not in the numpy fallback
    assert sim._openblas_thread_calls() == _openblas.thread_calls()
    if _openblas.thread_calls():
        assert _openblas._zgeru() is not None


def _fake_library(config=None, **symbols):
    lib = SimpleNamespace(**{name: (lambda *args: None) for name in symbols})
    if config is not None:
        lib.openblas_get_config = lambda: config
    return lib


@pytest.mark.parametrize("config, blasint", [
    (b"OpenBLAS 0.3.26  DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
     ctypes.c_int),
    (b"OpenBLAS 0.3.26  USE64BITINT DYNAMIC_ARCH Haswell MAX_THREADS=64",
     ctypes.c_int64),
    (None, None),
], ids=["lp64", "ilp64", "no config"])
def test_unsuffixed_zgeru_takes_the_built_integer_width(monkeypatch, config,
                                                        blasint):
    # an ILP64 build may export unsuffixed names; without its config the
    # width is unknown, and cd's update stays in numpy
    lib = _fake_library(config, cblas_zgeru=True)
    monkeypatch.setattr(_openblas, "_libraries", lambda: (lib,))
    fn = _openblas._zgeru.__wrapped__()
    if blasint is None:
        assert fn is None
    else:
        assert fn is lib.cblas_zgeru
        assert fn.argtypes[1:3] == (blasint, blasint)
        assert fn.argtypes[5::2] == (blasint,) * 3


def test_suffixed_zgeru_is_preferred_and_64_bit(monkeypatch):
    lib = _fake_library(b"OpenBLAS", cblas_zgeru=True, cblas_zgeru64_=True)
    monkeypatch.setattr(_openblas, "_libraries", lambda: (lib,))
    fn = _openblas._zgeru.__wrapped__()
    assert fn is lib.cblas_zgeru64_
    assert fn.argtypes[1] is ctypes.c_int64


@pytest.mark.parametrize("blas", [True, False], ids=["zgeru", "numpy"])
def test_rank1_update_subtracts_the_outer_product(rng, monkeypatch, blas):
    if not blas:
        monkeypatch.setattr(_openblas, "_zgeru", lambda: None)
    a, rows, v = _integer_problem(rng)
    want = a.copy()
    update = _openblas.rank1_update(a, rows)
    for i in (2, 0, 2):
        want -= np.outer(rows[i], v)
        update(i, v)
        assert np.array_equal(a, want)
    update(1, v.real.tolist())           # converted to complex128
    assert np.array_equal(a, want - np.outer(rows[1], v.real))


@pytest.mark.parametrize("blas", [True, False], ids=["zgeru", "numpy"])
def test_rank1_update_of_an_empty_matrix(monkeypatch, capfd, blas):
    # BLAS reports a leading dimension of 0 as an illegal argument
    if not blas:
        monkeypatch.setattr(_openblas, "_zgeru", lambda: None)
    for a, rows, v in ((np.zeros((3, 0), complex), np.ones((2, 3), complex),
                        np.zeros(0)),
                       (np.zeros((0, 4), complex), np.ones((2, 0), complex),
                        np.ones(4))):
        _openblas.rank1_update(a, rows)(1, v)
        assert a.size == 0
    assert capfd.readouterr() == ("", "")


def test_rank1_update_checks_its_arrays(rng):
    a, rows, v = _integer_problem(rng)
    with pytest.raises(ValueError, match="a: need a C-contiguous"):
        _openblas.rank1_update(np.asfortranarray(a), rows)
    with pytest.raises(ValueError, match="a: need a C-contiguous"):
        _openblas.rank1_update(a.real.copy(), rows)
    with pytest.raises(ValueError, match="rows: need a C-contiguous"):
        _openblas.rank1_update(a, rows[:, ::2])
    with pytest.raises(ValueError, match="rows: need one entry"):
        _openblas.rank1_update(a, rows[:, 1:].copy())
    frozen = a.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        _openblas.rank1_update(frozen, rows)
    before = a.copy()
    update = _openblas.rank1_update(a, rows)
    with pytest.raises(IndexError):
        update(3, v)
    with pytest.raises(IndexError):
        update(-1, v)
    with pytest.raises(ValueError, match=r"v: need shape \(5,\)"):
        update(0, v[:4])
    assert np.array_equal(a, before)
