"""Hardware non-ideality models for the analog and digital front end.

Covers the cubic power amplifier with hard saturation, uniform and
one-bit data converters, non-reciprocal transmit/receive chains with
genie-aided calibration, and stuck per-antenna processing elements, with
the quality metrics the experiments report (EVM and multi-user
interference power).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channel import RngLike, _name_errors, _raise, _range_errors, as_rng

__all__ = [
    "PaModel",
    "pa_apply",
    "evm_db",
    "quantize_adc",
    "FrontEndSet",
    "draw_front_end_set",
    "build_nonreciprocal",
    "calibrate",
    "FAULT_MODES",
    "CircuitErrorModel",
    "draw_victims",
    "stick_victims",
    "inject_errors",
    "mui_db",
    "EVM_FLOOR_DB",
    "MUI_FLOOR_DB",
]

EVM_FLOOR_DB = -100.0
MUI_FLOOR_DB = -300.0
# A double's significand: every mid-rise level (idx + 1/2) * step is exact
_MAX_ADC_BITS = 53


# ---------------------------------------------------------------------------
# power amplifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaModel:
    """Memoryless odd-order baseband amplifier with hard output saturation.

    ``y = alpha1 x + alpha3 x |x|^2`` for drive amplitudes up to
    ``a_in_sat``; above that the input amplitude is held at ``a_in_sat``
    and the output magnitude is clamped to ``a_out_sat``.  Phase is never
    altered by the clamps.
    """

    alpha1: complex = 1.0
    alpha3: complex = 0.0
    a_in_sat: float = np.inf
    a_out_sat: float = np.inf

    def __post_init__(self):
        if not (self.a_in_sat > 0 and self.a_out_sat > 0):
            raise ValueError("saturation amplitudes must be positive")

    @classmethod
    def from_compression_point(cls, a_1db: float, alpha1: complex = 1.0) -> "PaModel":
        """Cubic model pinned by its 1-dB compression amplitude.

        The gain at drive amplitude ``a_1db`` is 1 dB below ``alpha1``,
        which fixes ``alpha3 = (10**(-1/20) - 1) alpha1 / a_1db**2``
        (about ``-0.1087 alpha1`` for unit ``a_1db``).  Input saturation
        defaults to the amplitude where the cubic's gain slope hits zero
        and output saturation to the cubic's value there.  ``a_1db`` must
        be positive and ``alpha1`` finite.  Raises ``ValueError`` also
        where float arithmetic leaves nothing to pin: ``alpha1`` is zero or
        subnormal, ``alpha3`` comes out zero (``a_1db`` infinite), or a
        square or cube leaves the float range (``a_1db`` tiny or huge).
        """
        if not a_1db > 0:
            raise ValueError(f"compression amplitude a_1db must be positive, "
                             f"got {a_1db!r}")
        if not np.isfinite(alpha1):
            raise ValueError(f"linear gain alpha1 must be finite, got {alpha1!r}")
        try:
            if abs(alpha1) < np.finfo(float).tiny:   # zero or subnormal
                raise ZeroDivisionError
            alpha3 = (10.0 ** (-1.0 / 20.0) - 1.0) * alpha1 / a_1db ** 2
            a_in = float(np.sqrt(abs(alpha1) / (3.0 * abs(alpha3))))
            a_out = float(abs(alpha1 * a_in + alpha3 * a_in ** 3))
        except (ZeroDivisionError, OverflowError):
            raise ValueError(f"no compression point in float range for "
                             f"a_1db={a_1db!r}, alpha1={alpha1!r}") from None
        return cls(alpha1=alpha1, alpha3=alpha3, a_in_sat=a_in, a_out_sat=a_out)


def pa_apply(x, pa: PaModel):
    """Amplifier response per sample; accepts scalars or arrays."""
    x = np.asarray(x, dtype=complex)
    mag = np.abs(x)
    safe = np.where(mag > 0, mag, 1.0)
    xin = np.where(mag > pa.a_in_sat, x * (pa.a_in_sat / safe), x)
    y = pa.alpha1 * xin + pa.alpha3 * xin * np.abs(xin) ** 2
    ymag = np.abs(y)
    ysafe = np.where(ymag > 0, ymag, 1.0)
    return np.where(ymag > pa.a_out_sat, y * (pa.a_out_sat / ysafe), y)


# ---------------------------------------------------------------------------
# error-vector magnitude
# ---------------------------------------------------------------------------


def evm_db(reference: np.ndarray, received: np.ndarray) -> float:
    """Error power of ``received`` against ``reference`` after gain fitting.

    The received vector is divided by the least-squares complex gain
    before comparison; a clean scale or rotation reports ``EVM_FLOOR_DB``.
    """
    ref = np.asarray(reference, dtype=complex).ravel()
    rec = np.asarray(received, dtype=complex).ravel()
    if ref.size == 0 or ref.size != rec.size:
        raise ValueError("need equal-length nonempty vectors")
    denom = np.vdot(ref, ref)
    if denom == 0:
        raise ValueError("reference power is zero")
    gain = np.vdot(ref, rec) / denom
    if gain == 0:
        return EVM_FLOOR_DB
    err = np.mean(np.abs(rec / gain - ref) ** 2) / np.mean(np.abs(ref) ** 2)
    if err <= 10.0 ** (EVM_FLOOR_DB / 10.0):
        return EVM_FLOOR_DB
    return float(10.0 * np.log10(err))


# ---------------------------------------------------------------------------
# data converters
# ---------------------------------------------------------------------------


def quantize_adc(y: np.ndarray, bits: int) -> np.ndarray:
    """Per-axis uniform quantization of a complex signal.

    ``bits = 1`` keeps only the signs, scaled to a fixed level of
    ``1/sqrt(2)`` per axis (unit output power); no gain control is needed
    or used.  For ``bits > 1`` a mid-rise quantizer spans three times the
    per-axis RMS on each axis and clips outside it, roughly 0.3% of
    Gaussian samples.  ``bits`` lies within 1..53, the widths whose
    levels a double holds exactly.
    """
    _raise(_range_errors("bits", bits, 1, _MAX_ADC_BITS))
    y = np.asarray(y, dtype=complex)
    if bits == 1:
        level = 1.0 / np.sqrt(2.0)
        re = np.where(y.real >= 0, level, -level)
        im = np.where(y.imag >= 0, level, -level)
        return re + 1j * im
    axis_rms = np.sqrt(np.mean(y.real ** 2 + y.imag ** 2) / 2.0)
    full_scale = 3.0 * float(axis_rms)
    if full_scale <= 0:   # an all-zero input
        raise ValueError("input has no power to scale the quantizer to")
    half = 2 ** (bits - 1)
    step = full_scale / half

    def axis(u):
        idx = np.clip(np.floor(u / step), -half, half - 1)
        return (idx + 0.5) * step

    return axis(y.real) + 1j * axis(y.imag)


# ---------------------------------------------------------------------------
# reciprocity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontEndSet:
    """Diagonal transmit/receive responses for array and terminals.

    ``r_bs``/``t_bs`` hold the per-antenna receiver and transmitter
    responses of the array (diagonals of M x M matrices); ``r_ue`` and
    ``t_ue`` the per-terminal scalars.
    """

    r_bs: np.ndarray
    t_bs: np.ndarray
    r_ue: np.ndarray
    t_ue: np.ndarray

    def __post_init__(self):
        for name in ("r_bs", "t_bs", "r_ue", "t_ue"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        if self.r_bs.shape != self.t_bs.shape or self.r_ue.shape != self.t_ue.shape:
            raise ValueError("mismatched front-end dimensions")

    @property
    def m(self) -> int:
        return self.r_bs.shape[0]

    @property
    def k(self) -> int:
        return self.r_ue.shape[0]


def _draw_responses(n: int, gain_bound_db: float, phase_bound_deg: float,
                    rng: np.random.Generator) -> np.ndarray:
    gains = 10.0 ** (rng.uniform(-gain_bound_db, gain_bound_db, n) / 20.0)
    phases = np.deg2rad(rng.uniform(-phase_bound_deg, phase_bound_deg, n))
    return gains * np.exp(1j * phases)


def draw_front_end_set(m: int, k: int, gain_bound_db: float = 1.0,
                       phase_bound_deg: float = 5.0,
                       rng: RngLike = 0) -> FrontEndSet:
    """Independent uniform gain/phase mismatch for every chain, within
    +-``gain_bound_db`` (0..20) and +-``phase_bound_deg`` (0..180)."""
    _raise(_range_errors("gain_bound_db", gain_bound_db, 0.0, 20.0)
           + _range_errors("phase_bound_deg", phase_bound_deg, 0.0, 180.0))
    r = as_rng(rng)
    return FrontEndSet(
        r_bs=_draw_responses(m, gain_bound_db, phase_bound_deg, r),
        t_bs=_draw_responses(m, gain_bound_db, phase_bound_deg, r),
        r_ue=_draw_responses(k, gain_bound_db, phase_bound_deg, r),
        t_ue=_draw_responses(k, gain_bound_db, phase_bound_deg, r),
    )


def build_nonreciprocal(g_tilde: np.ndarray,
                        fe: FrontEndSet) -> Tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink channels seen through the front ends.

    Uplink column k is ``R_bs g~_k t_k``; downlink row k is
    ``r_k g~_k^T T_bs``.  The pair is reciprocal exactly when transmit and
    receive responses agree up to one global scalar on each side.
    """
    g = np.asarray(g_tilde)
    if g.shape != (fe.m, fe.k):
        raise ValueError("channel dimensions do not match front-end set")
    g_ul = fe.r_bs[:, None] * g * fe.t_ue[None, :]
    g_dl = fe.t_bs[:, None] * g * fe.r_ue[None, :]
    return g_ul, g_dl


def calibrate(fe: FrontEndSet, residual_error_db: float = -np.inf,
              rng: Optional[RngLike] = None) -> np.ndarray:
    """Per-antenna weights restoring reciprocity of the array chains.

    The ideal weights are ``t_m / r_m``; multiplying uplink estimates by
    them makes the downlink-effective matrix diagonal again.  A finite
    ``residual_error_db`` perturbs each weight by a complex error of that
    relative power, modeling an imperfect calibration procedure.
    """
    if np.any(fe.r_bs == 0):
        raise ValueError("zero receiver response; calibration undefined")
    weights = fe.t_bs / fe.r_bs
    if residual_error_db == -np.inf:
        return weights
    r = as_rng(rng if rng is not None else 0)
    sigma = 10.0 ** (residual_error_db / 20.0)
    eps = sigma * (r.standard_normal(fe.m) + 1j * r.standard_normal(fe.m)) / np.sqrt(2.0)
    return weights * (1.0 + eps)


def mui_db(effective: np.ndarray) -> float:
    """Multi-user interference power of a K x K effective matrix.

    Total off-diagonal power over total diagonal power, in dB; a clean
    diagonal matrix reports ``MUI_FLOOR_DB``.
    """
    e = np.asarray(effective)
    diag_power = float(np.sum(np.abs(np.diag(e)) ** 2))
    if diag_power == 0:
        raise ValueError("effective matrix has zero diagonal power")
    off_power = float(np.sum(np.abs(e) ** 2)) - diag_power
    if off_power <= diag_power * 10.0 ** (MUI_FLOOR_DB / 10.0):
        return MUI_FLOOR_DB
    return float(10.0 * np.log10(off_power / diag_power))


# ---------------------------------------------------------------------------
# digital circuit errors
# ---------------------------------------------------------------------------


FAULT_MODES = ("stuck_at_max", "stuck_at_value")


@dataclass(frozen=True)
class CircuitErrorModel:
    """Population of faulty per-antenna processing elements.

    ``victim_fraction`` of the antennas are drawn as victims once per
    realization and stuck as :func:`stick_victims` says.  Only
    :func:`inject_errors` reads it; the uplink simulator builds none.
    ``detected`` is read by nothing; the benchmark's traced loop sets it.
    """

    victim_fraction: float
    mode: str = "stuck_at_max"
    detected: bool = False

    def __post_init__(self):
        if not 0.0 <= self.victim_fraction <= 1.0:
            raise ValueError("victim_fraction must lie in [0, 1]")
        _raise(_name_errors("mode", self.mode, FAULT_MODES))


def draw_victims(m: int, fraction: float, rng: RngLike) -> np.ndarray:
    """Sorted victim indices; count is the rounded fraction of ``m``."""
    count = int(round(fraction * m))
    count = min(max(count, 0), m)
    if count == 0:
        return np.empty(0, dtype=int)
    r = as_rng(rng)
    return np.sort(r.choice(m, size=count, replace=False))


def stick_victims(y: np.ndarray, victims: np.ndarray, mode: str) -> None:
    """Pin every sample of the ``victims`` rows of ``y`` in place:
    ``stuck_at_max`` to three times the RMS of ``y`` at 45 degrees,
    ``stuck_at_value`` to zero; ``mode`` in any case."""
    _raise(_name_errors("mode", mode, FAULT_MODES))
    if victims.size and mode.lower() == "stuck_at_max":
        fs = 3.0 * float(np.sqrt(np.mean(np.abs(y) ** 2))) or 1.0
        y[victims] = fs * (1.0 + 1j) / np.sqrt(2.0)
    elif victims.size:  # stuck_at_value
        y[victims] = 0.0


def inject_errors(signal: np.ndarray, err: CircuitErrorModel,
                  seed: RngLike) -> Tuple[np.ndarray, np.ndarray]:
    """Corrupt per-antenna samples; returns (corrupted, victim indices).

    ``signal`` is (M,) or (M, N); the victim set is drawn once from
    ``seed`` and every sample of a victim antenna is affected.
    """
    x = np.array(signal, dtype=complex)   # a copy in the input's layout
    victims = draw_victims(x.shape[0], err.victim_fraction, seed)
    stick_victims(x, victims, err.mode)
    return x, victims

