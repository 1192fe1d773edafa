"""Monte-Carlo link studies: coded uplink BER, downlink EVM, reciprocity
calibration, fault outage.

Frame model: one frame is one coherence block.  The channel is drawn
once, estimated from pilots, the detector is built once per SNR point
(per-realization cost), and ``coherence_uses`` payload vectors are
pushed through it.  Every user transmits an independent zero-terminated
convolutional codeword filling the block exactly, or, uncoded, raw bits
whose errors are counted on the per-axis labels of the hard decisions.

Random streams are keyed as ``(seed, frame, purpose)`` so the same
channels, payloads, and unit-variance noise are reused across SNR
points (common random numbers) and results do not depend on how frames
are split across workers.  SNR is defined as 1 / N0 with unit-power
transmit symbols and unit-variance channel entries per receive antenna.

A worker task is one frame chunk over every run and the whole grid.  The
runs share their frames (an outage study's fractions, an fxp_sweep's
widths).  Each frame's data is built once and serves every run at every
SNR point.  A run's faulty antennas are frame data too, drawn once per
frame under both policies: ``exclude`` drops their rows once, ``ignore``
sticks those rows of each point's ``y``, whose RMS sets the stuck level,
before the ADC.  mr and zf do not read N0: they are built once per frame
and run, and with no per-point front end (``ignore`` faults, ADC) they
detect signal and noise once, a point's estimate being
``C^H G x + sqrt(N0) C^H w``, which differs from ``C^H y`` in the last
bits.  Coded rows of all runs and points wait in one queue, tagged with
their run and point, and are decoded together once ``_DECODE_ROWS``
wait, so memory grows with neither frames nor grid.  The whole study,
pool included, uses one BLAS thread: the workers fill the cores, and
float sums then do not depend on the host or the split.
"""
from __future__ import annotations

import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..channel import draw_iid_rayleigh, estimate_ls, stream_rng
from ..equalization import (DETECTORS, MAX_SERIES_ORDER, N0_FREE_DETECTORS,
                            PRECODERS, build_uplink_detector, precode)
from ..impairments import (FAULT_MODES, PaModel, build_nonreciprocal,
                           calibrate, draw_front_end_set, draw_victims,
                           evm_db, mui_db, pa_apply, quantize_adc,
                           stick_victims)
from ..numerics import FxpOverlay
from .coding import TAIL_BITS, conv_encode, viterbi_decode
from .modem import (_ORDERS, Constellation, _axis_labels, _nearest_labels,
                    demap_soft, map_bits)

__all__ = [
    "SimConfig", "BerPoint", "BerResult", "run_uplink_ber",
    "EvmPoint", "run_downlink_evm", "run_calibration_study",
    "FAULT_POLICIES", "OutagePoint", "OutageResult", "outage_configs",
    "run_outage_study", "snr_at_ber",
]

FAULT_POLICIES = ("ignore", "exclude")    # "none": no faults injected
# Coded rows queued before one Viterbi call: 384 rows of 2048 LLRs are 6 MB.
_DECODE_ROWS = 384


@dataclass
class SimConfig:
    """Uplink Monte-Carlo configuration; ``validate`` names bad fields."""

    m: int
    k: int
    snr_db: Tuple[float, ...]
    constellation: str = "qpsk"
    detector: str = "zf"
    coded: bool = True
    coherence_uses: int = 512
    frames: int = 50
    pilot_snr_db: float = math.inf
    signal_fraction_bits: Optional[int] = None
    operator_fraction_bits: Optional[int] = None
    adc_bits: Optional[int] = None
    nsa_order: int = 3
    cd_sweeps: int = 3
    c_const: float = 1.0
    victim_fraction: float = 0.0
    victim_mode: str = "stuck_at_max"
    victim_policy: str = "none"
    seed: int = 0

    def validate(self) -> None:
        errs = []
        if self.m < 1:
            errs.append("m: need at least one antenna")
        if self.k < 1:
            errs.append("k: need at least one user")
        if self.k > self.m:
            errs.append(f"k: {self.k} users exceed {self.m} antennas")
        if not self.snr_db:
            errs.append("snr_db: empty grid")
        elif not all(math.isfinite(s) for s in self.snr_db):
            errs.append("snr_db: entries must be finite")
        known_const = self.constellation.lower() in _ORDERS
        if not known_const:
            errs.append(f"constellation: unknown {self.constellation!r}")
        if self.detector.lower() not in DETECTORS:
            errs.append(f"detector: unknown {self.detector!r}")
        if self.coherence_uses < 1:
            errs.append("coherence_uses: must be positive")
        if self.frames < 1:
            errs.append("frames: must be positive")
        if not -math.inf < self.pilot_snr_db <= math.inf:
            errs.append("pilot_snr_db: must be finite or +inf (perfect CSI)")
        if self.coded and known_const:
            nb = self.coherence_uses * self._bps()
            if nb % 2 or nb // 2 - TAIL_BITS < 1:
                errs.append("coherence_uses: block too short for a "
                            "zero-terminated rate-1/2 codeword")
        for name in ("signal_fraction_bits", "operator_fraction_bits"):
            v = getattr(self, name)
            if v is not None and not 1 <= v <= 24:
                errs.append(f"{name}: {v} outside 1..24")
        if (self.signal_fraction_bits is None) != (self.operator_fraction_bits is None):
            errs.append("signal_fraction_bits/operator_fraction_bits: "
                        "set both or neither")
        if self.adc_bits is not None and self.adc_bits < 1:
            errs.append("adc_bits: must be positive")
        if not 0 <= self.nsa_order <= MAX_SERIES_ORDER:
            errs.append(f"nsa_order: outside 0..{MAX_SERIES_ORDER}")
        if self.cd_sweeps < 1:
            errs.append("cd_sweeps: must be positive")
        if not (math.isfinite(self.c_const) and self.c_const > 0):
            errs.append("c_const: must be finite and positive")
        elif self.c_const > 1:
            errs.append(f"c_const: {self.c_const} above 1, the largest cosine")
        in_range = 0.0 <= self.victim_fraction < 1.0    # False for NaN
        if not in_range:
            errs.append("victim_fraction: outside [0, 1)")
        if self.victim_mode not in FAULT_MODES:
            errs.append(f"victim_mode: unknown {self.victim_mode!r}")
        if self.victim_policy not in ("none", *FAULT_POLICIES):
            errs.append(f"victim_policy: unknown {self.victim_policy!r}")
        if self.victim_fraction > 0.0 and self.victim_policy == "none":
            errs.append("victim_policy: faults injected but no policy chosen")
        victims = round(self.victim_fraction * self.m) if in_range else 0
        if self.victim_policy == "exclude" and self.m - victims < self.k:
            errs.append("victim_fraction: exclusion leaves fewer "
                        "antennas than users")
        if self.victim_policy == "ignore" and 0 < victims == self.m:
            errs.append("victim_fraction: every antenna is faulty")
        if errs:
            raise ValueError("; ".join(errs))

    def _bps(self) -> int:
        return _ORDERS[self.constellation.lower()]

    def info_bits_per_stream(self) -> int:
        nb = self.coherence_uses * self._bps()
        return nb // 2 - TAIL_BITS if self.coded else nb

    def overlay(self) -> Optional[FxpOverlay]:
        if self.signal_fraction_bits is None:
            return None
        return FxpOverlay.from_fraction_bits(self.signal_fraction_bits,
                                             self.operator_fraction_bits)


class BerPoint(NamedTuple):
    snr_db: float
    n_bits: int
    n_errors: int
    ber: float
    stderr: float


@dataclass
class BerResult:
    config: SimConfig
    points: Tuple[BerPoint, ...]


def _frame_data(cfg: SimConfig, frame: int, const: Constellation):
    """Channel, estimate, payload, and unit-variance noise for one frame."""
    g = draw_iid_rayleigh(cfg.m, cfg.k, stream_rng(cfg.seed, frame, 0))
    g_hat = estimate_ls(g, cfg.pilot_snr_db, stream_rng(cfg.seed, frame, 1))
    rng_bits = stream_rng(cfg.seed, frame, 2)
    n_info = cfg.info_bits_per_stream()
    bits = rng_bits.integers(0, 2, size=(cfg.k, n_info)).astype(np.uint8)
    tx_bits = conv_encode(bits) if cfg.coded else bits
    x = map_bits(tx_bits, const)
    rng_noise = stream_rng(cfg.seed, frame, 3)
    w = (rng_noise.standard_normal((cfg.m, cfg.coherence_uses))
         + 1j * rng_noise.standard_normal((cfg.m, cfg.coherence_uses)))
    w *= 1.0 / np.sqrt(2.0)
    return g, g_hat, bits, x, w


def _estimates(cfg: SimConfig, overlay: Optional[FxpOverlay], frame: int,
               g_hat: np.ndarray, gx: np.ndarray, w: np.ndarray):
    """Yield ``(point, noise_var, xhat)`` of one run on one frame: its
    victims, ADC, detector builds and mr/zf split (see the module doc)."""
    if cfg.victim_policy in FAULT_POLICIES:
        victims = draw_victims(cfg.m, cfg.victim_fraction,
                               stream_rng(cfg.seed, frame, 4))
    if cfg.victim_policy == "exclude":
        g_hat, gx, w = (np.delete(a, victims, axis=0) for a in (g_hat, gx, w))
    stuck = cfg.victim_policy == "ignore"
    n0_free = cfg.detector.lower() in N0_FREE_DETECTORS
    split = n0_free and not stuck and cfg.adc_bits is None
    for point, snr_db in enumerate(cfg.snr_db):
        noise_var = 10.0 ** (-snr_db / 10.0)
        if point == 0 or not n0_free:
            det = build_uplink_detector(
                g_hat, cfg.detector, noise_var, overlay=overlay,
                nsa_order=cfg.nsa_order, cd_sweeps=cfg.cd_sweeps,
                c_const=cfg.c_const)
        if split:
            if point == 0:
                sig, noi = det.detect(gx), det.detect(w)
            xhat = sig + np.sqrt(noise_var) * noi
        else:
            y = gx + np.sqrt(noise_var) * w
            if stuck:  # the stuck level follows the point's RMS
                stick_victims(y, victims, cfg.victim_mode)
            if cfg.adc_bits is not None:
                y = quantize_adc(y, cfg.adc_bits)
            xhat = det.detect(y)
        yield point, noise_var, xhat


def _simulate_frames(cfgs: Sequence[SimConfig], frames: Sequence[int]) -> list:
    """Bit errors per run and SNR point over a frame range, frame-major.

    ``cfgs`` share their frames and differ only in detector, fraction bits
    (an overlay each), nsa_order, cd_sweeps, c_const, adc_bits and victim_*.
    """
    const = Constellation.from_name(cfgs[0].constellation)
    overlays = [c.overlay() for c in cfgs]
    n_info = cfgs[0].info_bits_per_stream()
    errors = np.zeros((len(cfgs), len(cfgs[0].snr_db)), dtype=np.int64)
    queue = []      # (run, point, llr rows, info bits), k rows each
    for frame in frames:
        g, g_hat, bits, x, w = _frame_data(cfgs[0], frame, const)
        gx = g @ x
        tx_labels = None if cfgs[0].coded else _axis_labels(bits, const)
        for run, (cfg, overlay) in enumerate(zip(cfgs, overlays)):
            for point, noise_var, xhat in _estimates(cfg, overlay, frame,
                                                     g_hat, gx, w):
                if cfg.coded:
                    queue.append((run, point,
                                  demap_soft(xhat, const, noise_var), bits))
                    if len(queue) * cfg.k >= _DECODE_ROWS:
                        _decode_queue(queue, n_info, errors)
                else:  # a wrong label bit is a wrong payload bit
                    diff = _nearest_labels(xhat, const) ^ tx_labels
                    errors[run, point] += sum(np.count_nonzero(diff & (1 << b))
                                              for b in range(const.axis_bits))
    if queue:
        _decode_queue(queue, n_info, errors)
    return errors.tolist()


def _decode_queue(queue: list, n_info: int, errors: np.ndarray) -> None:
    """Decode every queued row in one Viterbi call, add each row's bit
    errors to its run and point, and empty the queue."""
    runs, points, llrs, refs = zip(*queue)
    decoded = viterbi_decode(np.concatenate(llrs), n_info=n_info)
    wrong = np.count_nonzero(decoded != np.concatenate(refs), axis=1)
    rows = len(refs[0])
    np.add.at(errors, (np.repeat(runs, rows), np.repeat(points, rows)), wrong)
    queue.clear()


@lru_cache(maxsize=None)
def _openblas_thread_calls() -> tuple:
    """(get, set) thread-count calls of each loaded OpenBLAS, found once."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return ()
    names = ("openblas_%s_num_threads", "openblas_%s_num_threads64_",
             "scipy_openblas_%s_num_threads64_")
    return tuple((getattr(lib, n % "get"), getattr(lib, n % "set"))
                 for lib in map(ctypes.CDLL, paths) for n in names
                 if hasattr(lib, n % "get"))


@contextmanager
def _one_blas_thread():
    """One BLAS thread inside the block, the caller's count after it.

    All of ``_run_ber``, which serves ``run_uplink_ber`` and
    ``run_outage_study``, runs in it: pool workers fork with one thread,
    and the serial path has no second thread spinning.  OpenBLAS's
    vector-matrix product (cd's correlation, chd's substitutions) sums in
    an order set by its thread count, so float results then depend on
    neither the host nor ``workers``.  numpy has no call for this, so the
    loaded OpenBLAS is told directly; without one this does nothing.
    """
    calls = _openblas_thread_calls()
    saved = [get() for get, _ in calls]
    try:
        for _, put in calls:
            put(1)
        yield
    finally:
        for (_, put), count in zip(calls, saved):
            put(count)


def _run_ber(cfgs: Sequence[SimConfig], workers: int) -> Tuple[BerResult, ...]:
    """One :class:`BerResult` per checked config, all runs on one pool;
    the runs share their frames, so the configs may differ only in fields
    read per run: detector, signal_fraction_bits, operator_fraction_bits,
    nsa_order, cd_sweeps, c_const, adc_bits and the victim fields."""
    if workers < 1:
        raise ValueError("workers: must be positive")
    frame_fields = ("m", "k", "snr_db", "constellation", "coded",
                    "coherence_uses", "frames", "pilot_snr_db", "seed")
    mixed = [f for f in frame_fields
             if any(getattr(c, f) != getattr(cfgs[0], f) for c in cfgs)]
    if mixed:
        raise ValueError(f"configs: runs differ in {', '.join(mixed)}")
    frames = cfgs[0].frames
    bounds = np.linspace(0, frames, workers + 1).astype(int)
    chunks = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
              if hi > lo]
    # one task per frame chunk, each over every run and the whole grid
    args = (repeat(cfgs), chunks)
    with _one_blas_thread():
        if len(chunks) == 1:
            chunk_errors = list(map(_simulate_frames, *args))
        else:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                chunk_errors = list(pool.map(_simulate_frames, *args))
    total = frames * cfgs[0].k * cfgs[0].info_bits_per_stream()
    results = []
    for cfg, run_errors in zip(cfgs, zip(*chunk_errors)):
        points = []
        for snr, errors in zip(cfg.snr_db, map(sum, zip(*run_errors))):
            ber = errors / total
            stderr = math.sqrt(max(ber * (1.0 - ber), 0.0) / total)
            points.append(BerPoint(snr_db=float(snr), n_bits=total,
                                   n_errors=errors, ber=ber, stderr=stderr))
        results.append(BerResult(config=cfg, points=tuple(points)))
    return tuple(results)


def run_uplink_ber(cfg: SimConfig, workers: int = 1) -> BerResult:
    """BER versus SNR over ``cfg.frames`` coherence blocks per point."""
    cfg.validate()
    return _run_ber((cfg,), workers)[0]


class EvmPoint(NamedTuple):
    m: int
    evm_db: float


def _pa_drive_amplitude(pa: PaModel) -> float:
    """RMS envelope that puts the array at the 1 dB compression point."""
    if pa.alpha3 == 0:
        return 1.0
    ratio = (10.0 ** (-1.0 / 20.0) - 1.0) * pa.alpha1 / pa.alpha3
    return float(np.sqrt(abs(ratio)))


def run_downlink_evm(m_list: Sequence[int], k: int, pa: PaModel,
                     trials: int = 20, uses: int = 64,
                     backoff_db: float = 0.0, precoder: str = "zf",
                     constellation: str = "qpsk",
                     m_ref: Optional[int] = None,
                     seed: int = 0) -> Tuple[EvmPoint, ...]:
    """Noiseless post-PA EVM at the users versus array size.

    Total radiated power is held fixed: the per-antenna drive at the
    reference size ``m_ref`` (default: smallest entry of ``m_list``)
    sits ``backoff_db`` below the amplifier 1 dB compression point, and
    scaling to ``m`` antennas divides per-antenna power by ``m / m_ref``.
    EVM ratios are averaged linearly over users and trials.
    """
    if not m_list:
        raise ValueError("m_list: empty")
    if trials < 1:
        raise ValueError("trials: must be positive")
    if uses < 1:
        raise ValueError("uses: must be positive")
    if min(m_list) < k:
        raise ValueError(f"m_list: {min(m_list)} antennas for {k} users")
    m_ref = min(m_list) if m_ref is None else m_ref
    if m_ref < 1:
        raise ValueError("m_ref: must be positive")
    if precoder.lower() not in PRECODERS:
        raise ValueError(f"precoder: unknown {precoder!r}")
    const = Constellation.from_name(constellation)
    out = []
    for m in m_list:
        acc = 0.0
        for trial in range(trials):
            g = draw_iid_rayleigh(m, k, stream_rng(seed, m, trial, 0))
            rng_bits = stream_rng(seed, m, trial, 1)
            bits = rng_bits.integers(0, 2,
                                     size=(k, uses * const.bits_per_symbol))
            x = map_bits(bits, const)
            s = precode(g, precoder) @ x
            target = (_pa_drive_amplitude(pa) * 10.0 ** (-backoff_db / 20.0)
                      * np.sqrt(m_ref / m))
            rms = np.sqrt(np.mean(np.abs(s) ** 2))
            s = s * (target / rms)
            y = g.T @ pa_apply(s, pa)
            for user in range(k):
                acc += 10.0 ** (evm_db(x[user], y[user]) / 10.0)
        out.append(EvmPoint(m=m, evm_db=10.0 * math.log10(acc / (trials * k))))
    return tuple(out)


def run_calibration_study(m: int, k: int, gain_bound_db: float,
                          phase_bound_deg: float,
                          residuals: Sequence[float], trials: int,
                          precoder: str = "zf",
                          seed: int = 0) -> Tuple[float, Tuple[float, ...]]:
    """Median downlink MUI without and with reciprocity calibration.

    Each trial draws a channel and per-chain gain/phase mismatches within
    the given bounds, builds the precoder from the uplink estimate, and
    measures the multi-user interference at the users.  Calibration
    multiplies the uplink estimate by the t/r weights, perturbed by an
    error of each ``residuals`` entry's relative power (dB).  Returns the
    uncalibrated median in dB and one calibrated median per residual.
    """
    if trials < 1:
        raise ValueError("trials: must be positive")
    if k > m:
        raise ValueError(f"k: {k} users exceed {m} antennas")
    if precoder.lower() not in PRECODERS:
        raise ValueError(f"precoder: unknown {precoder!r}")

    def mui(g_for_precoder, downlink):
        return mui_db(downlink.T @ precode(g_for_precoder, precoder))

    cal = {r: [] for r in residuals}
    raw = []
    for t in range(trials):
        g = draw_iid_rayleigh(m, k, stream_rng(seed, t, 0))
        fe = draw_front_end_set(m, k, gain_bound_db, phase_bound_deg,
                                stream_rng(seed, t, 1))
        uplink, downlink = build_nonreciprocal(g, fe)
        raw.append(mui(uplink, downlink))
        for r in residuals:
            w = calibrate(fe, residual_error_db=r, rng=stream_rng(seed, t, 2))
            cal[r].append(mui(w[:, None] * uplink, downlink))
    return np.median(raw), tuple(np.median(cal[r]) for r in residuals)


class OutagePoint(NamedTuple):
    fraction: float
    snr_db: float
    penalty_db: float
    status: str         # ok | above_grid | below_grid


@dataclass
class OutageResult:
    target_ber: float
    policy: str
    baseline_snr_db: float
    points: Tuple[OutagePoint, ...]


def snr_at_ber(result: BerResult, target: float) -> Tuple[float, str]:
    """Log-linear interpolation of the SNR reaching ``target`` BER.

    Zero-error points are floored at half an error before taking logs.
    Returns ``(inf, "above_grid")`` when the curve never crosses the
    target inside the grid and ``(-inf, "below_grid")`` when even the
    lowest grid point is already below it.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target: BER must lie in (0, 1)")
    pts = sorted(result.points, key=lambda p: p.snr_db)
    bers = np.array([max(p.ber, 0.5 / p.n_bits) for p in pts])
    snrs = np.array([p.snr_db for p in pts])
    if bers[0] < target:
        return -math.inf, "below_grid"
    logs = np.log10(bers)
    lt = math.log10(target)
    for i in range(len(pts) - 1):
        if logs[i] >= lt >= logs[i + 1] and logs[i] > logs[i + 1]:
            frac = (logs[i] - lt) / (logs[i] - logs[i + 1])
            return float(snrs[i] + frac * (snrs[i + 1] - snrs[i])), "ok"
    return math.inf, "above_grid"


def outage_configs(cfg: SimConfig, fractions: Sequence[float], policy: str,
                   target_ber: float) -> Tuple[SimConfig, ...]:
    """An outage study's runs: ``cfg`` without faults, then ``cfg`` at each
    of ``fractions``, all checked (with ``policy`` and ``target_ber``)
    before the first one runs."""
    if policy not in FAULT_POLICIES:
        raise ValueError(f"policy: unknown {policy!r}")
    if not 0.0 < target_ber < 1.0:
        raise ValueError(f"target_ber: {target_ber} outside (0, 1)")
    configs = []
    for frac in (0.0, *fractions):
        configs.append(replace(cfg, victim_fraction=float(frac),
                               victim_policy=policy if frac > 0 else "none"))
        try:
            configs[-1].validate()
        except ValueError as exc:
            raise ValueError(f"fractions: {frac}: {exc}" if frac
                             else str(exc)) from None
    return tuple(configs)


def run_outage_study(cfg: SimConfig, fractions: Sequence[float],
                     policy: str, target_ber: float,
                     workers: int = 1) -> OutageResult:
    """SNR penalty at a target BER versus faulty-antenna fraction.

    Runs the configs of :func:`outage_configs` in one pass on one pool:
    each frame's data is built once and serves the baseline and every
    fraction.  Identical random streams across runs make the penalty a
    paired comparison.  A baseline that never crosses ``target_ber``
    raises ``RuntimeError``, after the fraction runs have run.
    """
    base, *tables = _run_ber(outage_configs(cfg, fractions, policy,
                                            target_ber), workers)
    base_snr, base_status = snr_at_ber(base, target_ber)
    if base_status != "ok":
        raise RuntimeError(f"baseline never reaches BER {target_ber:g} "
                           f"inside the SNR grid ({base_status})")
    points = []
    for frac, table in zip(fractions, tables):
        snr, status = snr_at_ber(table, target_ber)
        penalty = snr - base_snr if status == "ok" else math.inf
        points.append(OutagePoint(fraction=float(frac), snr_db=snr,
                                  penalty_db=penalty, status=status))
    return OutageResult(target_ber=target_ber, policy=policy,
                        baseline_snr_db=base_snr, points=tuple(points))
