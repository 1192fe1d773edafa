import numpy as np
import pytest

from mimodsp.numerics import (FixedPointFormat, FxpOverlay, GivensRotation,
                              NonPositivePivotError, ZeroDiagonalError,
                              back_substitute, cholesky, forward_substitute,
                              fxp_quantize, givens_exact, givens_modified, qrd)


class TestFixedPointFormat:
    def test_step_and_range(self):
        fmt = FixedPointFormat(total_bits=8, fraction_bits=4)
        assert fmt.step == 2.0 ** -4
        assert fmt.max_value == (2 ** 7 - 1) * fmt.step

    def test_for_unit_range_layout(self):
        # sign + 3 integer bits + n fraction bits
        fmt = FixedPointFormat.for_unit_range(8)
        assert fmt.total_bits == 12
        assert fmt.fraction_bits == 8
        assert fmt.max_value == 8.0 - 2.0 ** -8

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=0, fraction_bits=0)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=4, fraction_bits=5)


class TestFxpQuantize:
    def test_grid_membership(self, rng):
        fmt = FixedPointFormat(total_bits=10, fraction_bits=6)
        x = rng.uniform(-5, 5, 200)
        q = fxp_quantize(x, fmt)
        assert np.allclose(np.round(q / fmt.step), q / fmt.step)

    def test_half_step_error_bound(self, rng):
        fmt = FixedPointFormat(total_bits=12, fraction_bits=8)
        x = rng.uniform(-fmt.max_value, fmt.max_value, 500)
        q = fxp_quantize(x, fmt)
        assert np.max(np.abs(q - x)) <= fmt.step / 2 + 1e-15

    def test_round_half_even(self):
        fmt = FixedPointFormat(total_bits=8, fraction_bits=2)
        step = fmt.step
        # midpoints resolve toward the even multiple of the step
        assert fxp_quantize(1.5 * step, fmt) == 2 * step
        assert fxp_quantize(2.5 * step, fmt) == 2 * step
        assert fxp_quantize(-1.5 * step, fmt) == -2 * step

    def test_saturation(self):
        fmt = FixedPointFormat(total_bits=6, fraction_bits=2)
        # the range is symmetric: -2^(T-1) is never produced
        assert fxp_quantize(1e9, fmt) == fmt.max_value
        assert fxp_quantize(-1e9, fmt) == -fmt.max_value

    def test_complex_per_axis(self):
        fmt = FixedPointFormat(total_bits=8, fraction_bits=4)
        z = 1.03 + 1j * (-2.71)
        q = fxp_quantize(z, fmt)
        assert q.real == fxp_quantize(1.03, fmt)
        assert q.imag == fxp_quantize(-2.71, fmt)

    def test_idempotent(self, rng):
        fmt = FixedPointFormat(total_bits=9, fraction_bits=5)
        x = rng.uniform(-8, 8, 100) + 1j * rng.uniform(-8, 8, 100)
        q = fxp_quantize(x, fmt)
        assert np.array_equal(fxp_quantize(q, fmt), q)

    def test_monotone(self, rng):
        fmt = FixedPointFormat(total_bits=8, fraction_bits=3)
        x = np.sort(rng.uniform(-20, 20, 300))
        q = fxp_quantize(x, fmt)
        assert np.all(np.diff(q) >= 0)


def _out_of_place_quantize(x, fmt):
    """The quantizer as it was before the in-place kernel: each axis
    rounded out of place, then recombined as ``re + 1j * im``."""
    def axis(v):
        ints = np.round(np.asarray(v, dtype=float) * 2.0 ** fmt.fraction_bits)
        lim = 2 ** (fmt.total_bits - 1)
        ints = np.clip(ints, -(lim - 1), lim - 1)
        return ints * fmt.step

    x = np.asarray(x)
    if np.iscomplexobj(x):
        return axis(x.real) + 1j * axis(x.imag)
    return axis(x)


def _awkward_values(rng, fmt, shape):
    """Values past the format's range (so it saturates), exact
    ties, zeros of both signs and small negatives that round to -0.0."""
    v = rng.uniform(-3.0, 3.0, shape) * (fmt.max_value + fmt.step)
    flat = v.reshape(-1)
    flat[0::6] = (rng.integers(-300, 300, flat[0::6].size) + 0.5) * fmt.step
    flat[1::6] = 0.0
    flat[2::6] = -0.0
    flat[3::6] = -rng.uniform(0.0, fmt.step / 4, flat[3::6].size)
    return v


def _complex_values(rng, fmt, shape):
    # independent axes, so every pairing of zero signs occurs
    return _awkward_values(rng, fmt, shape) + 1j * _awkward_values(
        rng, fmt, shape)[..., ::-1]


_QUANTIZER_INPUTS = {
    "real": lambda r, f: _awkward_values(r, f, (6, 12)),
    "complex": lambda r, f: _complex_values(r, f, (6, 12)),
    "real 0-d": lambda r, f: np.array(-f.step / 8),
    "complex 0-d": lambda r, f: np.array(complex(-0.0, 2.5 * f.step)),
    "python float": lambda r, f: 1e9,
    "python complex": lambda r, f: complex(-f.step / 8, 1.5 * f.step),
    "python int": lambda r, f: -3,
    "F-ordered": lambda r, f: _complex_values(r, f, (12, 6)).T,
    "F-ordered real": lambda r, f: _awkward_values(r, f, (12, 6)).T,
    "strided": lambda r, f: _complex_values(r, f, (6, 24))[:, ::2],
    "complex64": lambda r, f: _complex_values(r, f, (6, 12)).astype(np.complex64),
    "int": lambda r, f: r.integers(-300, 300, (4, 5)),
}

_QUANTIZER_FORMATS = {
    "sat 8.4": FixedPointFormat(8, 4),
    "sat unit 8": FixedPointFormat.for_unit_range(8),
    "sat 3.1": FixedPointFormat(3, 1),
}


def _raw(x):
    """The bits of ``x``, and of the array it views, for change checks."""
    a = np.asarray(x)
    return a.tobytes(), None if a.base is None else np.asarray(a.base).tobytes()


class TestFxpQuantizeMatchesOutOfPlace:
    """``fxp_quantize`` against the out-of-place formula it replaced.

    Every value is equal.  Real inputs match bit for bit, zero signs
    included.  A complex input may differ from the formula in one way
    only, the sign of a zero: ``fxp_quantize`` keeps on each axis the
    sign that rounding gives, exactly as for a real input, while
    ``re + 1j * im`` turns a -0.0 imaginary part into +0.0 and keeps a
    -0.0 real part only where the imaginary part is negative.
    """

    @pytest.mark.parametrize("fmt", _QUANTIZER_FORMATS.values(),
                             ids=_QUANTIZER_FORMATS.keys())
    @pytest.mark.parametrize("make", _QUANTIZER_INPUTS.values(),
                             ids=_QUANTIZER_INPUTS.keys())
    def test_values_equal(self, rng, make, fmt):
        x = make(rng, fmt)
        before = _raw(x)
        q = fxp_quantize(x, fmt)
        ref = _out_of_place_quantize(x, fmt)
        assert _raw(x) == before                    # the caller's array
        assert type(q) is type(ref)                 # an array, or a scalar
        assert np.shape(q) == np.shape(ref)
        assert np.asarray(q).dtype == np.asarray(ref).dtype
        assert np.array_equal(q, ref)               # -0.0 == +0.0 here
        assert not np.shares_memory(q, x)
        q = np.asarray(q)
        if np.iscomplexobj(q):
            for part in (np.real, np.imag):
                axis = _out_of_place_quantize(part(np.asarray(x)), fmt)
                assert np.array_equal(part(q).view(np.uint64),
                                      np.asarray(axis).view(np.uint64))
        else:
            assert np.array_equal(q.view(np.uint64),
                                  np.asarray(ref).view(np.uint64))

    def test_zero_signs_follow_rounding(self):
        fmt = FixedPointFormat(8, 4)
        tiny = fmt.step / 8
        q = fxp_quantize(np.array([complex(-tiny, -tiny), complex(-tiny, tiny),
                                   complex(tiny, -tiny)]), fmt)
        assert np.array_equal(np.signbit(q.real), [True, True, False])
        assert np.array_equal(np.signbit(q.imag), [True, False, True])
        ref = _out_of_place_quantize(np.array([complex(-tiny, -tiny),
                                               complex(-tiny, tiny)]), fmt)
        # the out-of-place form: -0.0 real kept only beside a negative imag
        assert np.array_equal(np.signbit(ref.real), [True, False])
        assert not np.any(np.signbit(ref.imag))


class TestOverlay:
    def test_from_fraction_bits(self):
        ov = FxpOverlay.from_fraction_bits(8, 10)
        assert ov.signal.fraction_bits == 8
        assert ov.operator.fraction_bits == 10

    def test_identity_passthrough(self, rng):
        ov = FxpOverlay(signal=None, operator=None)
        x = rng.standard_normal(10)
        assert np.array_equal(ov.q_signal(x), x)
        assert np.array_equal(ov.q_operator(x), x)


class TestGivensExact:
    def test_annihilation_and_unitarity(self, rng):
        for _ in range(20):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rot = givens_exact(a, b)
            lo, hi = rot.apply(a, b)
            assert abs(hi) < 1e-12
            assert abs(lo - rot.r) < 1e-12
            assert rot.r >= 0 and abs(rot.r.imag) == 0
            q = rot.as_matrix()
            assert np.allclose(np.conj(q.T) @ q, np.eye(2), atol=1e-13)

    def test_zero_second_element(self):
        rot = givens_exact(3.0 + 4.0j, 0.0)
        assert rot.r == pytest.approx(5.0)
        lo, hi = rot.apply(3.0 + 4.0j, 0.0)
        assert hi == 0

    def test_zero_first_element(self):
        rot = givens_exact(0.0, 2.0)
        lo, hi = rot.apply(0.0, 2.0)
        assert abs(hi) < 1e-12
        assert abs(lo) == pytest.approx(2.0)


class TestGivensModified:
    def test_real_pivot_annihilates_exactly(self, rng):
        for _ in range(20):
            a = float(rng.uniform(0.5, 2.0))
            b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.05
            rot = givens_modified(a, b)
            _, hi = rot.apply(a, b)
            assert abs(hi) < 1e-14

    def test_r_proxy(self):
        rot = givens_modified(2.0, 0.1 + 0.1j, c_const=0.96)
        assert rot.r == pytest.approx(0.96 * 2.0)

    def test_nonunitarity_second_order(self):
        # shrinking |b|/|a| by 10x should shrink the unitarity defect ~100x
        defects = []
        for eps in (1e-2, 1e-3):
            rot = givens_modified(1.0, eps * (0.6 + 0.8j))
            q = rot.as_matrix()
            defects.append(np.linalg.norm(np.conj(q.T) @ q - np.eye(2)))
        ratio = defects[0] / defects[1]
        assert 30 < ratio < 300

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            givens_modified(0.0, 1.0)


def _random_gram(rng, m, k):
    g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
    g /= np.sqrt(2.0)
    return np.conj(g.T) @ g / m


class TestQrd:
    def test_exact_reconstruction(self, rng):
        z = _random_gram(rng, 64, 8)
        res = qrd(z, mode="exact")
        assert res.reconstruction_error < 1e-12
        assert np.allclose(res.q @ res.r, z, atol=1e-12)
        assert np.allclose(np.conj(res.q.T) @ res.q, np.eye(8), atol=1e-12)
        assert np.allclose(res.r, np.triu(res.r))

    def test_exact_on_general_matrix(self, rng):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        res = qrd(z, mode="exact")
        assert res.reconstruction_error < 1e-12

    def test_modified_small_error_on_dominant_input(self, rng):
        # diagonally dominant Gram: off-diagonals ~1/sqrt(M) of the pivots
        z = _random_gram(rng, 256, 8)
        res = qrd(z, mode="modified", c_const=1.0)
        assert res.reconstruction_error < 0.05

    def test_modified_worse_than_exact(self, rng):
        z = _random_gram(rng, 128, 8)
        exact = qrd(z, mode="exact").reconstruction_error
        approx = qrd(z, mode="modified").reconstruction_error
        assert exact < 1e-12 < approx

    def test_modified_fallback_keeps_result_finite(self, rng):
        # not diagonally dominant at all: fallback rotations keep it sane
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        res = qrd(z, mode="modified")
        assert np.all(np.isfinite(res.r))
        assert res.reconstruction_error < 1.0

    def test_bad_mode(self, rng):
        with pytest.raises(ValueError):
            qrd(np.eye(3), mode="fast")


class TestCholesky:
    def test_reconstruction(self, rng):
        z = _random_gram(rng, 64, 12)
        low = cholesky(z)
        assert np.allclose(low @ np.conj(low.T), z, atol=1e-12)
        assert np.allclose(low, np.tril(low))
        assert np.all(np.diag(low).real > 0)
        assert np.allclose(np.diag(low).imag, 0)

    def test_matches_numpy(self, rng):
        z = _random_gram(rng, 32, 6)
        assert np.allclose(cholesky(z), np.linalg.cholesky(z), atol=1e-12)

    def test_non_positive_definite(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(NonPositivePivotError) as exc:
            cholesky(z)
        assert exc.value.index == 1

    def test_quantized_pivot_failure(self):
        # a pivot that becomes non-positive only after coarse rounding
        z = np.diag([1.0, 0.01]).astype(complex)
        fmt = FixedPointFormat(total_bits=6, fraction_bits=2)
        with pytest.raises(NonPositivePivotError):
            cholesky(z, quantize=lambda v: fxp_quantize(v, fmt))


class TestSubstitution:
    def test_forward_back_solve(self, rng):
        z = _random_gram(rng, 64, 10)
        low = cholesky(z)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        t = forward_substitute(low, b)
        x = back_substitute(np.conj(low.T), t)
        assert np.allclose(z @ x, b, atol=1e-10)

    def test_batch_rhs(self, rng):
        z = _random_gram(rng, 64, 6)
        low = cholesky(z)
        b = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        t = forward_substitute(low, b)
        cols = np.stack([forward_substitute(low, b[:, j]) for j in range(5)],
                        axis=1)
        assert np.allclose(t, cols, atol=1e-13)

    def test_zero_diagonal(self):
        low = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex)
        with pytest.raises(ZeroDiagonalError) as exc:
            forward_substitute(low, np.ones(2, dtype=complex))
        assert exc.value.index == 1
