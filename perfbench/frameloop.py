"""The simulator's frame loop rebuilt from public calls, with a span per layer.

``traced_ber`` and ``traced_outage`` redo what ``run_uplink_ber`` and
``run_outage_study`` do at ``workers=1``, but every call into a layer of
the library runs inside a span.  They must reproduce the library's error
counts exactly; the benchmark checks that on every traced sweep, which is
also what keeps this copy of the loop honest when the library changes.

The kernel probes at the bottom time the Viterbi decoder and the
fixed-point quantizer on synthetic inputs of fixed size.
"""
from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from mimodsp import (CircuitErrorModel, Constellation, FxpOverlay,
                     NonPositivePivotError, ZeroDiagonalError,
                     build_uplink_detector, conv_encode, demap_hard,
                     demap_soft, draw_iid_rayleigh, estimate_ls, fxp_quantize,
                     inject_errors, map_bits, quantize_adc, snr_at_ber,
                     stream_rng, viterbi_decode)
from mimodsp.link import BerPoint, BerResult, OutagePoint, OutageResult

# Spans that exist only to measure the overlay's cost; they are not part
# of the simulator's own work and are left out of the traced frame time.
FLOAT_PROBE = ("equalization.build_float", "equalization.detect_float")

_BUILD_ERRORS = (NonPositivePivotError, ZeroDiagonalError, ZeroDivisionError)


class Tracer:
    """Spans kept in memory until the run ends.

    A span is ``[id, parent id, name, start, end, attrs]`` with times from
    ``time.perf_counter``.  The parent is the span open when it started,
    so all spans of one frame evaluation share the frame span as parent.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = [len(self.spans), self._open[-1] if self._open else None,
               name, time.perf_counter(), None, attrs]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield attrs
        finally:
            rec[4] = time.perf_counter()
            self._open.pop()

    def records(self):
        for sid, parent, name, start, end, attrs in self.spans:
            yield {"id": sid, "parent": parent, "name": name,
                   "start": start, "end": end, **attrs}


def _front_end(cfg, frame, y, g_hat):
    if cfg.victim_fraction > 0.0 and cfg.victim_policy != "none":
        model = CircuitErrorModel(victim_fraction=cfg.victim_fraction,
                                  mode=cfg.victim_mode, detected=True)
        y, victims = inject_errors(y, model, stream_rng(cfg.seed, frame, 4))
        if cfg.victim_policy == "exclude":
            y = np.delete(y, victims, axis=0)
            g_hat = np.delete(g_hat, victims, axis=0)
    if cfg.adc_bits is not None:
        y = quantize_adc(y, cfg.adc_bits)
    return y, g_hat


def _build(cfg, g_eff, noise_var, overlay):
    return build_uplink_detector(g_eff, cfg.detector, noise_var,
                                 overlay=overlay, nsa_order=cfg.nsa_order,
                                 cd_sweeps=cfg.cd_sweeps, c_const=cfg.c_const)


def _point(cfg, snr, tracer, const):
    """Bit errors and bit count of all frames at one SNR point."""
    noise_var = 10.0 ** (-snr / 10.0)
    overlay = cfg.overlay()
    n_info = cfg.info_bits_per_stream()
    errors = 0
    llr_rows, ref_rows = [], []
    for frame in range(cfg.frames):
        with tracer.span("link.sim.frame", frame=frame):
            with tracer.span("channel.draw_estimate"):
                g = draw_iid_rayleigh(cfg.m, cfg.k, stream_rng(cfg.seed, frame, 0))
                g_hat = estimate_ls(g, cfg.pilot_snr_db,
                                    stream_rng(cfg.seed, frame, 1))
            with tracer.span("link.sim.frame_data"):
                bits = stream_rng(cfg.seed, frame, 2).integers(
                    0, 2, size=(cfg.k, n_info)).astype(np.uint8)
            tx_bits = bits
            if cfg.coded:
                with tracer.span("link.coding.encode"):
                    tx_bits = conv_encode(bits)
            with tracer.span("link.modem.map"):
                x = map_bits(tx_bits, const)
            with tracer.span("link.sim.frame_data"):
                rng_noise = stream_rng(cfg.seed, frame, 3)
                w = (rng_noise.standard_normal((cfg.m, cfg.coherence_uses))
                     + 1j * rng_noise.standard_normal((cfg.m, cfg.coherence_uses)))
                w *= 1.0 / np.sqrt(2.0)
                y = g @ x + np.sqrt(noise_var) * w
            with tracer.span("impairments.front_end"):
                y, g_eff = _front_end(cfg, frame, y, g_hat)
            with tracer.span("equalization.build") as attrs:
                try:
                    det = _build(cfg, g_eff, noise_var, overlay)
                except _BUILD_ERRORS:
                    attrs["failed"] = True
                    raise
            with tracer.span("equalization.detect"):
                xhat = det.detect(y)
            if overlay is not None:
                with tracer.span("equalization.build_float"):
                    det_float = _build(cfg, g_eff, noise_var, None)
                with tracer.span("equalization.detect_float"):
                    det_float.detect(y)
            with tracer.span("link.modem.demap"):
                if cfg.coded:
                    llr_rows.append(demap_soft(xhat, const, noise_var))
                    ref_rows.append(bits)
                else:
                    hard = demap_hard(xhat, const)
            if not cfg.coded:
                errors += int(np.count_nonzero(hard != bits))
    if cfg.coded:
        llrs = np.concatenate(llr_rows, axis=0)
        refs = np.concatenate(ref_rows, axis=0)
        with tracer.span("link.coding.decode", rows=llrs.shape[0],
                         steps=llrs.shape[1] // 2):
            decoded = viterbi_decode(llrs, n_info=n_info)
        errors = int(np.count_nonzero(decoded != refs))
    return errors, cfg.frames * cfg.k * n_info


def traced_ber(cfg, tracer):
    """``run_uplink_ber(cfg)`` rebuilt with a span around each layer call."""
    cfg.validate()
    const = Constellation.from_name(cfg.constellation)
    points = []
    for snr in cfg.snr_db:
        with tracer.span("link.sim.point", detector=cfg.detector, snr_db=snr):
            errors, total = _point(cfg, snr, tracer, const)
        ber = errors / total
        stderr = math.sqrt(max(ber * (1.0 - ber), 0.0) / total)
        points.append(BerPoint(snr_db=float(snr), n_bits=total,
                               n_errors=errors, ber=ber, stderr=stderr))
    return BerResult(config=cfg, points=tuple(points))


def traced_outage(cfg, fractions, policy, target_ber, tracer):
    """``run_outage_study`` rebuilt on top of :func:`traced_ber`."""
    base = traced_ber(replace(cfg, victim_fraction=0.0, victim_policy="none"),
                      tracer)
    base_snr, base_status = snr_at_ber(base, target_ber)
    if base_status != "ok":
        raise RuntimeError(f"baseline never reaches BER {target_ber:g} "
                           f"inside the SNR grid ({base_status})")
    points = []
    for frac in fractions:
        run_cfg = replace(cfg, victim_fraction=float(frac),
                          victim_policy=policy if frac > 0 else "none")
        snr, status = snr_at_ber(traced_ber(run_cfg, tracer), target_ber)
        penalty = snr - base_snr if status == "ok" else math.inf
        points.append(OutagePoint(fraction=float(frac), snr_db=snr,
                                  penalty_db=penalty, status=status))
    return OutageResult(target_ber=target_ber, policy=policy,
                        baseline_snr_db=base_snr, points=tuple(points))


# ---------------------------------------------------------------------------
# kernel probes
# ---------------------------------------------------------------------------


def viterbi_ns_per_state_step(batch, steps=256, repeats=3, seed=0):
    """Median decode time per (codeword, trellis step, state)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(batch, steps - 6)).astype(np.uint8)
    llrs = 4.0 * (1.0 - 2.0 * conv_encode(bits)) + 2.0 * rng.standard_normal(
        (batch, 2 * steps))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        viterbi_decode(llrs, n_info=steps - 6)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / (batch * steps * 64)


def quantize_ns_per_elem(rows, cols, fraction_bits=8, repeats=30, seed=0):
    """Median ``fxp_quantize`` time per complex element at a signal format."""
    fmt = FxpOverlay.from_fraction_bits(fraction_bits).signal
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fxp_quantize(x, fmt)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / x.size
