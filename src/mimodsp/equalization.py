"""Uplink detectors and downlink precoders, exact and hardware-friendly.

Exact linear processing (MR / ZF / MMSE) is one regularized inverse
of the channel estimate, returned as an (M, K) array.  The remaining
methods avoid the explicit Gram inverse: truncated and weighted Neumann
series, coordinate descent on the regularized least-squares objective,
and Cholesky or modified-QR factorizations with triangular solves.  All of the approximate paths run
through :class:`~mimodsp.numerics.FxpOverlay` hooks so the same code
serves word-length studies.

Normalization conventions: detectors are unit-gain per user
(``a_k^H g_k = 1``); precoders are scaled to unit total transmit power
under unit-power symbols.  The MMSE regularizer is the noise variance
``N0`` for unit-power symbols; the textbook "+ I" form corresponds to
``N0 = 1``, i.e. a pre-whitened receive path.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import (
    FxpOverlay,
    _quantize_real,
    back_substitute,
    cholesky,
    forward_substitute,
    qrd,
)

__all__ = [
    "NsaDivergenceWarning",
    "combiner_exact",
    "PRECODERS",
    "precode",
    "post_combining_sinr",
    "nsa_inverse",
    "wnsa_inverse",
    "fit_wnsa_weights",
    "MAX_SERIES_ORDER",
    "DETECTORS",
    "N0_FREE_DETECTORS",
    "UplinkDetector",
    "build_uplink_detector",
]

_IDENTITY = FxpOverlay()


class NsaDivergenceWarning(UserWarning):
    """Spectral-radius precondition of the Neumann series failed."""


MAX_SERIES_ORDER = 10


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"series order must be within 0..{MAX_SERIES_ORDER}")


def _validate_channel(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[1] < 1:
        raise ValueError("channel must be (M, K) with K >= 1")
    return g


# ---------------------------------------------------------------------------
# exact linear processing
# ---------------------------------------------------------------------------


def _channel_inverse(g_hat, method, nus, kind):
    """Columns ``G (G^H G + nu I)^-1`` and their gains ``a_k^H g_k``.

    ``nus`` maps each method to its ``nu``; ``None`` gives the MR columns G.
    """
    g = _validate_channel(g_hat)
    method = method.lower()
    if method not in nus:
        raise ValueError(f"unknown {kind} method {method!r}")
    nu = nus[method]
    if nu is None:
        a = g
    else:
        z = np.conj(g.T) @ g + float(nu) * np.eye(g.shape[1])
        a = g @ np.linalg.inv(z)
    gains = np.einsum("mk,mk->k", np.conj(a), g)
    if np.any(gains.real <= 0):
        raise np.linalg.LinAlgError(f"{kind} gain collapsed; channel rank deficient?")
    return a, gains


def combiner_exact(g_hat: np.ndarray, method: str,
                   noise_var: float = 0.0) -> np.ndarray:
    """(M, K) MR, ZF, or MMSE receive combiner with unit per-user gain.

    MMSE solves ``(G^H G + N0 I)`` with ``N0 = noise_var``; ZF is the
    ``N0 = 0`` special case and requires full column rank.  The symbol
    estimates are ``np.conj(A.T) @ y``.
    """
    a, gains = _channel_inverse(
        g_hat, method, {"mr": None, "zf": 0.0, "mmse": noise_var}, "combiner")
    return a * (1.0 / gains.real)[None, :]


PRECODERS = {"mr": None, "zf": 0.0}     # name -> nu; None gives MR columns


def precode(g_hat: np.ndarray, method: str) -> np.ndarray:
    """(M, K) MR or ZF transmit precoder under a unit sum-power constraint.

    Columns, conjugates of the combiner's, are first normalized to unit
    downlink gain (``g_k^T a_k = 1``), then scaled by a common factor so
    that ``E||A x||^2 = 1`` for unit-power symbols.  With equal per-user
    gains this radiates equal received signal strength to every user.
    """
    a, gains = _channel_inverse(g_hat, method, PRECODERS, "precoder")
    unit = np.conj(a) / gains[None, :]
    # times the reciprocal, not a division: the recorded results' rounding
    return unit * (1.0 / np.linalg.norm(unit))


def post_combining_sinr(a: np.ndarray, g: np.ndarray,
                        noise_var: float) -> np.ndarray:
    """Per-user SINR of an (M, K) combiner ``a`` against the true channel."""
    cross = np.conj(a.T) @ g     # (K, K): row k = user k's gains
    sig = np.abs(np.diag(cross)) ** 2
    interf = np.sum(np.abs(cross) ** 2, axis=1) - sig
    noise = noise_var * np.sum(np.abs(a) ** 2, axis=0)
    return sig / (interf + noise)


# ---------------------------------------------------------------------------
# Neumann series
# ---------------------------------------------------------------------------


def _whitened_offdiag(z: np.ndarray) -> np.ndarray:
    zd = np.diag(z).real
    if np.any(zd <= 0):
        raise ValueError("Gram diagonal must be positive")
    dinv_sqrt = 1.0 / np.sqrt(zd)
    return -(dinv_sqrt[:, None] * (z - np.diag(np.diag(z))) * dinv_sqrt[None, :])


def _check_radius(z: np.ndarray) -> None:
    rho = float(np.max(np.abs(np.linalg.eigvals(_whitened_offdiag(z)))))
    if rho >= 1.0:
        warnings.warn(
            f"series iteration radius {rho:.3f} >= 1; truncated inverse may diverge",
            NsaDivergenceWarning, stacklevel=3)


# The two series kernels below are the only implementation of NSA and
# WNSA: the detector runs them under its overlay, and the public
# inverses run them under the identity overlay, which rounds nothing.


def _nsa_inverse_quantized(zbar, order, ov: FxpOverlay):
    k = zbar.shape[0]
    zd = np.diag(zbar).real
    dinv = ov.q_operator(1.0 / zd)
    x = ov.q_operator(np.eye(k) - dinv[:, None] * zbar)
    acc = np.diag(dinv).astype(complex)
    term = np.diag(dinv).astype(complex)
    for _ in range(order):
        term = ov.q_operator(x @ term)
        acc = ov.q_operator(acc + term)
    return acc


def _wnsa_inverse_quantized(zbar, weights, ov: FxpOverlay):
    k = zbar.shape[0]
    dinv_sqrt = 1.0 / np.sqrt(np.diag(zbar).real)
    b = ov.q_operator(_whitened_offdiag(zbar))
    acc = np.zeros((k, k), dtype=complex)
    power = np.eye(k, dtype=complex)
    for alpha in weights:
        acc = ov.q_operator(acc + alpha * power)
        power = ov.q_operator(power @ b)
    return dinv_sqrt[:, None] * acc * dinv_sqrt[None, :]


def nsa_inverse(z: np.ndarray, order: int) -> np.ndarray:
    """Truncated Neumann inverse ``sum_n (I - Zd^-1 Z)^n Zd^-1``.

    ``Zd`` is the diagonal of ``Z``.  The series converges when the
    spectral radius of the iteration matrix is below one, which holds when
    the system is diagonally dominant; the exact radius is checked and
    :class:`NsaDivergenceWarning` is emitted when it is at least one (the
    truncated sum is still returned).  ``order`` must lie within 0..10.
    """
    _check_order(order)
    z = np.asarray(z)
    _check_radius(z)
    return _nsa_inverse_quantized(z, order, _IDENTITY)


def fit_wnsa_weights(z: np.ndarray, order: int) -> tuple:
    """Least-squares weights making the truncated series track ``1/(1-t)``.

    The weighted series replaces ``sum B^n`` by ``sum alpha_n B^n`` in the
    diagonally whitened domain.  On B's spectrum that is a scalar
    polynomial approximation of ``1/(1-t)``, so the weights are fitted on
    31 uniform samples spanning the realization's eigenvalue range.  Falls
    back to all-ones weights when the range collapses to a point.
    Returns the ``order + 1`` weights, ``order`` within 0..10.
    """
    _check_order(order)
    ev = np.linalg.eigvalsh(_whitened_offdiag(np.asarray(z)))
    lo, hi = float(ev.min()), float(ev.max())
    if hi - lo < 1e-12:
        return (1.0,) * (order + 1)
    t = np.linspace(lo, hi, 31)
    if np.any(np.abs(1.0 - t) < 1e-9):
        t = t + 1e-6
    v = np.vander(t, order + 1, increasing=True)
    alpha, *_ = np.linalg.lstsq(v, 1.0 / (1.0 - t), rcond=None)
    return tuple(float(a) for a in alpha)


def wnsa_inverse(z: np.ndarray, weights: tuple) -> np.ndarray:
    """Weighted Neumann inverse ``Zd^-1/2 (sum alpha_n B^n) Zd^-1/2``.

    ``weights`` are ``alpha_0 .. alpha_n`` as :func:`fit_wnsa_weights`
    returns them; the order ``n`` must lie within 0..10.  With all weights
    equal to one this reproduces :func:`nsa_inverse` exactly; fitted
    weights extend the usable load range to Gram matrices whose
    unweighted series diverges.
    """
    _check_order(len(weights) - 1)
    z = np.asarray(z)
    _check_radius(z)
    return _wnsa_inverse_quantized(z, weights, _IDENTITY)


# ---------------------------------------------------------------------------
# per-coherence-block detectors
# ---------------------------------------------------------------------------


def _columns(y):
    """Receive vectors as complex columns, and whether ``y`` was one vector."""
    y = np.asarray(y, dtype=complex)
    return (y[:, None], True) if y.ndim == 1 else (y, False)


def _regularized_gram(g, noise_var, ov):
    m = g.shape[0]
    k = g.shape[1]
    zbar = (np.conj(g.T) @ g + noise_var * np.eye(k)) / m
    return ov.q_operator(zbar)


def _matched_filter(g, y, ov):
    return ov.q_signal(np.conj(g.T) @ y / g.shape[0])


DETECTORS = ("mr", "zf", "mmse", "chd", "cd", "nsa", "wnsa", "mqrd")
# Their build never reads noise_var, and their detect is the one product
# C^H y, which distributes over y = G x + sqrt(N0) w.
N0_FREE_DETECTORS = ("mr", "zf")


@dataclass
class UplinkDetector:
    """Detector with per-realization state factored out.

    Built once per coherence block and then applied to every channel use
    in it; construction covers the per-realization hardware cost
    (Gram, factorization, inverse) and :meth:`detect` the per-use cost.
    This class, built through :func:`build_uplink_detector`, is the one
    way to run every method in :data:`DETECTORS`; ``method`` is
    case-insensitive.  An ``overlay`` of None is replaced by the identity
    overlay, which rounds nothing.  "mr", "zf" and "mmse" ignore the
    overlay: their combiner is built and applied in double precision.

    "chd" and "mqrd" solve the normal equations ``(G^H G + N0 I) x = G^H y``
    (ZF at ``noise_var = 0``), scaled by 1/M so that the factor's entries
    are O(1), which is the frame the overlay formats assume; "chd" by
    Cholesky and two triangular sweeps, "mqrd" by the modified-QR row
    transform and back substitution.  Factorization failures propagate
    from the numerics kernels.  ``reconstruction_error`` holds the
    modified-QR decomposition error for "mqrd", because the modified
    rotations are not exactly unitary, and is None otherwise.

    "cd" runs ``cd_sweeps`` round-robin sweeps of coordinate descent on
    ``||y - G x||^2 + N0 ||x||^2`` from ``x = 0`` (see :meth:`_cd_updates`);
    it needs ``noise_var > 0``.  "nsa" and "wnsa" take the series order
    ``nsa_order`` within 0..10.
    """

    method: str
    g_hat: np.ndarray
    noise_var: float
    overlay: Optional[FxpOverlay] = None
    nsa_order: int = 3
    cd_sweeps: int = 3
    c_const: float = 1.0
    _state: dict = field(default_factory=dict, repr=False)
    reconstruction_error: Optional[float] = field(default=None, init=False)

    def __post_init__(self):
        method = self.method.lower()
        if method not in DETECTORS:
            raise ValueError(f"unknown detector method {self.method!r}")
        self.method = method
        if method == "cd":
            if self.cd_sweeps < 1:
                raise ValueError("cd_sweeps: need at least one sweep")
            if self.noise_var <= 0:
                raise ValueError("coordinate descent needs a positive "
                                 "noise variance")
        elif method in ("nsa", "wnsa"):
            _check_order(self.nsa_order)
        self.g_hat = g = _validate_channel(self.g_hat)
        self.overlay = ov = self.overlay or _IDENTITY
        m = g.shape[0]
        if method in ("mr", "zf", "mmse"):
            self._state["combiner"] = combiner_exact(g, method, self.noise_var)
        elif method == "cd":
            gq = ov.q_operator(g / 4.0) * 4.0
            energy = np.sum(np.abs(gq) ** 2, axis=0) + self.noise_var
            self._state["gq"] = gq
            self._state["inv_energy"] = ov.q_operator(m / energy) / m
        else:  # nsa, wnsa, chd and mqrd work on the regularized Gram
            zbar = _regularized_gram(g, self.noise_var, ov)
            if method in ("nsa", "wnsa"):
                if method == "nsa":
                    inv = _nsa_inverse_quantized(zbar, self.nsa_order, ov)
                else:
                    weights = fit_wnsa_weights(zbar, self.nsa_order)
                    inv = _wnsa_inverse_quantized(zbar, weights, ov)
                self._state["inverse"] = ov.q_operator(inv)
            elif method == "chd":
                self._state["low"] = cholesky(zbar, quantize=ov.q_operator)
            else:  # mqrd
                res = qrd(zbar, mode="modified", c_const=self.c_const,
                          quantize=ov.q_operator)
                self._state["r"] = res.r
                self._state["t"] = np.conj(res.q.T)
                self.reconstruction_error = res.reconstruction_error

    def detect(self, y: np.ndarray) -> np.ndarray:
        g = self.g_hat
        ov = self.overlay
        yc, squeeze = _columns(y)
        method = self.method
        if method in ("mr", "zf", "mmse"):
            xhat = np.conj(self._state["combiner"].T) @ yc
        elif method == "cd":
            for xhat in self._cd_updates(yc):
                pass
        else:  # nsa, wnsa, chd and mqrd start from the matched filter
            s = _matched_filter(g, yc, ov)
            if method in ("nsa", "wnsa"):
                xhat = ov.q_signal(self._state["inverse"] @ s)
            elif method == "chd":
                low = self._state["low"]
                t = forward_substitute(low, s, ov.q_signal)
                xhat = back_substitute(np.conj(low.T), t, ov.q_signal)
            else:  # mqrd
                rhs = ov.q_signal(self._state["t"] @ s)
                xhat = back_substitute(self._state["r"], rhs, ov.q_signal)
        return xhat[:, 0] if squeeze else xhat

    def _cd_updates(self, yc):
        """The cd sweeps over column-stacked receive vectors ``yc``.

        Each step sets coordinate i to
        ``g_i^H (y - sum_{j != i} g_j x_j) / (||g_i||^2 + N0)``, the exact
        per-coordinate minimizer, so in double precision the objective
        never increases.  The method never forms the Gram matrix: it
        tracks the antenna-domain residual, which is what keeps its
        per-realization hardware cost at zero.  Under an overlay the
        channel columns and inverse column energies are rounded once per
        realization, and the residual (held at an automatic-gain scale),
        the coordinate corrections and the estimates every update.  The
        residual is updated in place in one buffer; its ``/ agc`` is the
        multiply by ``1 / agc`` that numpy's complex division does.

        Yields the estimate after every coordinate update; it is the same
        array each time, updated in place.
        """
        ov = self.overlay
        gq = self._state["gq"]
        inv_energy = self._state["inv_energy"]
        agc = float(np.sqrt(np.mean(np.abs(yc) ** 2))) or 1.0
        rbar = np.divide(yc, agc, order="C")
        buf = np.empty_like(rbar)
        rv, bv = rbar.view(np.float64), buf.view(np.float64)
        if ov.signal is not None:
            _quantize_real(rv, ov.signal)
        xhat = np.zeros((gq.shape[1], yc.shape[1]), dtype=complex)
        for _ in range(self.cd_sweeps):
            for i in range(gq.shape[1]):
                corr = np.conj(gq[:, i]) @ rbar * agc - self.noise_var * xhat[i, :]
                delta = ov.q_signal(corr * inv_energy[i])
                xhat[i, :] = ov.q_signal(xhat[i, :] + delta)
                np.multiply(gq[:, i, None], delta[None, :], out=buf)
                bv *= 1.0 / agc
                np.subtract(rbar, buf, out=rbar)
                if ov.signal is not None:
                    _quantize_real(rv, ov.signal)
                yield xhat


def build_uplink_detector(g_hat: np.ndarray, method: str, noise_var: float,
                          **knobs) -> UplinkDetector:
    """:class:`UplinkDetector` with the channel first; ``knobs`` are its
    ``overlay``, ``nsa_order``, ``cd_sweeps`` and ``c_const`` fields."""
    return UplinkDetector(method=method, g_hat=g_hat, noise_var=noise_var,
                          **knobs)
