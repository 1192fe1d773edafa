"""Dense kernels for small Hermitian systems, written for word-length studies.

The factorizations are explicit loops rather than LAPACK calls on purpose:
the systems are K x K with K of a few tens, and every stored intermediate
must be exposed so that reduced-precision arithmetic can be emulated.  Each
kernel takes a ``quantize`` hook that is applied to results as they are
stored; the default hook keeps every value, so the kernels run in plain
double precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NonPositivePivotError",
    "ZeroDiagonalError",
    "FixedPointFormat",
    "FxpOverlay",
    "fxp_quantize",
    "GivensRotation",
    "givens_exact",
    "givens_modified",
    "QrdResult",
    "qrd",
    "cholesky",
    "forward_substitute",
    "back_substitute",
]


def _keep(x):
    return x


class NonPositivePivotError(ValueError):
    """Raised when a factorization hits a pivot that is not positive."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"non-positive pivot {value:.3e} at index {index}")


class ZeroDiagonalError(ValueError):
    """Raised when a triangular solve divides by a zero diagonal entry."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero diagonal at index {index}")


# ---------------------------------------------------------------------------
# fixed-point formats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point format with ``fraction_bits`` of resolution.

    ``total_bits`` counts the sign bit.  Rounding is half-to-even, and
    values outside the symmetric range
    ``+-(2**(total_bits - 1 - fraction_bits) - 2**-fraction_bits)``
    saturate.
    """

    total_bits: int
    fraction_bits: int

    def __post_init__(self):
        if self.total_bits <= self.fraction_bits:
            raise ValueError("total_bits must exceed fraction_bits")
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be nonnegative")

    @property
    def step(self) -> float:
        return 2.0 ** -self.fraction_bits

    @classmethod
    def for_unit_range(cls, fraction_bits: int) -> "FixedPointFormat":
        """Format for values normalized to O(1): sign + 3 + fraction."""
        return cls(4 + fraction_bits, fraction_bits)


def _round_steps(v: np.ndarray, fmt: FixedPointFormat) -> None:
    """Round the float64 array ``v``, held in units of ``fmt.step``, to
    whole steps in ``fmt``'s range, in place."""
    np.rint(v, out=v)
    lim = 2 ** (fmt.total_bits - 1) - 1
    np.clip(v, -lim, lim, out=v)


def _quantize_real(v: np.ndarray, fmt: FixedPointFormat) -> None:
    """Round the float64 array ``v`` onto the grid of ``fmt``, in place."""
    v *= 2.0 ** fmt.fraction_bits
    _round_steps(v, fmt)
    v *= fmt.step


def fxp_quantize(x, fmt: FixedPointFormat):
    """Round ``x`` onto the fixed-point grid of ``fmt``.

    Complex inputs are quantized per axis.  Idempotent: applying the same
    format twice returns the first result exactly.  Each axis keeps the
    -0.0 that rounding gives, which ``q(re) + 1j * q(im)`` may not.
    """
    out = np.array(x, dtype=complex if np.iscomplexobj(x) else float,
                   order="C", copy=True)
    _quantize_real(out.reshape(-1).view(np.float64), fmt)
    return out[()]


@dataclass(frozen=True)
class FxpOverlay:
    """Pair of formats for emulated hardware arithmetic.

    ``operator`` applies to values stored once per channel realization
    (Gram entries, factors, inverses); ``signal`` applies to per-use
    vectors.  Multiply-accumulate chains run wide and only stored results
    are rounded.  Either side may be ``None`` to stay in double precision.
    """

    signal: Optional[FixedPointFormat] = None
    operator: Optional[FixedPointFormat] = None

    @classmethod
    def from_fraction_bits(cls, signal_bits: int,
                           operator_bits: Optional[int] = None) -> "FxpOverlay":
        """Unit-range formats; the operator side defaults to ``signal_bits``."""
        op_bits = signal_bits if operator_bits is None else operator_bits
        return cls(signal=FixedPointFormat.for_unit_range(signal_bits),
                   operator=FixedPointFormat.for_unit_range(op_bits))

    def q_signal(self, x):
        return x if self.signal is None else fxp_quantize(x, self.signal)

    def q_operator(self, x):
        return x if self.operator is None else fxp_quantize(x, self.operator)


# ---------------------------------------------------------------------------
# Givens rotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GivensRotation:
    """Plane rotation annihilating the second entry of a pair.

    Acting on a row pair (x, y) it produces
    ``(conj(c) * x + s * y, -conj(s) * x + c * y)``; for the defining pair
    (a, b) the second output is (near) zero and the first is the retained
    pivot ``r``.  The exact construction is unitary; the modified one
    trades exactness for a division-free ``c``.
    """

    c: complex
    s: complex
    r: float

    def apply(self, x, y):
        xn = np.conj(self.c) * x + self.s * y
        yn = -np.conj(self.s) * x + self.c * y
        return xn, yn

    def as_matrix(self) -> np.ndarray:
        return np.array([[np.conj(self.c), self.s],
                         [-np.conj(self.s), self.c]])


def givens_exact(a: complex, b: complex) -> GivensRotation:
    """Unitary rotation with ``c = a / r``, ``s = conj(b) / r``.

    The retained pivot ``r = sqrt(|a|^2 + |b|^2)`` is real and nonnegative
    for any complex pair; for real inputs the rotation is the familiar
    cosine/sine pair.
    """
    r = float(np.hypot(abs(a), abs(b)))
    if r == 0.0:
        return GivensRotation(c=1.0, s=0.0, r=0.0)
    return GivensRotation(c=a / r, s=np.conj(b) / r, r=r)


def givens_modified(a: complex, b: complex, c_const: float = 1.0) -> GivensRotation:
    """Division-light rotation: ``c`` pinned to a constant, ``s = conj(b) / a``.

    Skips the square root; the reported pivot is the proxy
    ``c_const * |a|``.  Annihilation is exact for real ``a`` and the
    departure from unitarity is second order in ``|b| / |a|``, which is the
    regime a diagonally dominant system lives in.
    """
    if a == 0:
        raise ZeroDivisionError("modified rotation needs a nonzero pivot")
    return GivensRotation(c=complex(c_const), s=np.conj(b) / a,
                          r=float(c_const * abs(a)))


@dataclass(frozen=True)
class QrdResult:
    """Triangularization ``R = T @ Z`` with ``Q = T^H``.

    In exact mode ``T`` is unitary so ``Q @ R == Z`` holds to roundoff.
    In modified mode ``T`` is only approximately unitary and
    ``reconstruction_error`` reports ``||Q @ R - Z||_F / ||Z||_F``.
    """

    q: np.ndarray
    r: np.ndarray
    reconstruction_error: float


def qrd(z: np.ndarray, mode: str = "exact", c_const: float = 1.0,
        quantize: Callable = _keep) -> QrdResult:
    """QR decomposition by column-wise Givens elimination.

    Parameters
    ----------
    z : (K, K) array
        Matrix to triangularize.
    mode : {"exact", "modified"}
        "exact" uses unitary rotations throughout.  "modified" uses the
        division-light rotation, falling back to an exact rotation whenever
        ``|pivot| < 2 |target|`` so that poorly dominated steps do not blow
        up the error.
    c_const : float
        Constant cosine used by the modified rotation.
    quantize : callable, optional
        Rounding hook applied to rows of R and T after each rotation; the
        default keeps every value.
    """
    if mode not in ("exact", "modified"):
        raise ValueError(f"unknown mode {mode!r}")
    z = np.asarray(z)
    k = z.shape[0]
    if z.shape != (k, k):
        raise ValueError("qrd expects a square matrix")
    rt = np.hstack([z.astype(complex), np.eye(k, dtype=complex)])  # [R | T]
    for col in range(k - 1):
        for row in range(col + 1, k):
            b = rt[row, col]
            if b == 0:
                continue
            a = rt[col, col]
            if mode == "exact" or abs(a) < 2.0 * abs(b):
                rot = givens_exact(a, b)
            else:
                rot = givens_modified(a, b, c_const)
            rt[col], rt[row] = rot.apply(rt[col], rt[row])
            # the annihilated slot is declared zero; anything left there is
            # rotation error and lands in reconstruction_error instead
            rt[row, col] = 0.0
            rt[col] = quantize(rt[col])
            rt[row] = quantize(rt[row])
    r = rt[:, :k].copy()
    q = np.conj(rt[:, k:].T)
    err = float(np.linalg.norm(q @ r - z) / max(np.linalg.norm(z), np.finfo(float).tiny))
    return QrdResult(q=q, r=r, reconstruction_error=err)


# ---------------------------------------------------------------------------
# Cholesky and triangular solves
# ---------------------------------------------------------------------------


def cholesky(z: np.ndarray, quantize: Callable = _keep) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive definite matrix.

    Left-looking column algorithm; each stored column passes through the
    ``quantize`` hook.  Raises :class:`NonPositivePivotError` when the
    matrix is not positive definite, naming the failing pivot.
    """
    z = np.asarray(z)
    k = z.shape[0]
    if z.shape != (k, k):
        raise ValueError("cholesky expects a square matrix")
    low = np.zeros((k, k), dtype=complex)
    for j in range(k):
        v = z[j:, j] - low[j:, :j] @ np.conj(low[j, :j])
        d = float(v[0].real)
        if d <= 0.0:
            raise NonPositivePivotError(j, d)
        piv = quantize(np.sqrt(d))
        piv = float(np.real(piv))
        if piv <= 0.0:
            raise NonPositivePivotError(j, piv)
        low[j, j] = piv
        if j + 1 < k:
            low[j + 1:, j] = quantize(v[1:] / piv)
    return low


def forward_substitute(low: np.ndarray, v: np.ndarray,
                       quantize: Callable = _keep) -> np.ndarray:
    """Solve ``low @ x = v`` with ``low`` lower triangular.

    ``v`` may be a vector or a (K, N) batch of right-hand sides.
    """
    low = np.asarray(low)
    k = low.shape[0]
    x = np.zeros(np.asarray(v).shape, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for i in range(k):
        if low[i, i] == 0:
            raise ZeroDiagonalError(i)
        x[i] = quantize((v[i] - low[i, :i] @ x[:i]) / low[i, i])
    return x


def back_substitute(upper: np.ndarray, v: np.ndarray,
                    quantize: Callable = _keep) -> np.ndarray:
    """Solve ``upper @ x = v`` with ``upper`` upper triangular."""
    upper = np.asarray(upper)
    k = upper.shape[0]
    x = np.zeros(np.asarray(v).shape, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for i in range(k - 1, -1, -1):
        if upper[i, i] == 0:
            raise ZeroDiagonalError(i)
        x[i] = quantize((v[i] - upper[i, i + 1:] @ x[i + 1:]) / upper[i, i])
    return x
