"""The benchmark's two workloads, as calls into the public library API.

Each workload is built from a seed.  A sweep is one complete library call
sequence (one ``run_uplink_ber`` per detector and SNR point, or one
``run_outage_study``); its result is reduced to plain counts so that two
sweeps, a traced sweep and a stored reference compare with ``==``.
"""
from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Tuple

from mimodsp import (SimConfig, run_outage_study, run_uplink_ber,
                     table2_cost)
from mimodsp.complexity import ALGORITHMS

import frameloop

# Criterion-05 geometry: m=128, k=16, coded 16-QAM, 512 uses, 8/8 bits.
_GRID_05 = (-13.5, -13.0, -12.75, -12.5, -12.25, -12.0)
_CODED_05 = dict(m=128, k=16, snr_db=_GRID_05, constellation="16qam",
                 coded=True, coherence_uses=512, signal_fraction_bits=8,
                 operator_fraction_bits=8, nsa_order=3, cd_sweeps=2,
                 frames=4)
# The criterion-05 k16 plan's detectors, in its order.
_K16_PLAN = ("zf", "chd", "cd", "nsa")
# Criterion-08 geometry: m=100, k=10, uncoded QPSK, 500 uses, 10% stuck.
_GRID_08 = (-10.2, -9.9, -9.6, -9.3, -9.0)
_OUTAGE_08 = dict(m=100, k=10, snr_db=_GRID_08, coded=False,
                  coherence_uses=500, frames=20, victim_fraction=0.1,
                  victim_mode="stuck_at_max", victim_policy="exclude")
_FRACTIONS = (0.1,)
_TARGET_BER = 1e-3


@dataclass
class Workload:
    name: str
    seed: int
    configs: Tuple[SimConfig, ...]
    outage: bool = False
    workers: int = 1

    @property
    def _runs(self) -> int:
        """``run_uplink_ber`` calls per config in one sweep."""
        return 1 + len(_FRACTIONS) if self.outage else 1

    @property
    def evals(self) -> int:
        """Frame x SNR evaluations in one sweep."""
        return sum(self._runs * len(c.snr_db) * c.frames for c in self.configs)

    @property
    def info_bits(self) -> int:
        """Payload bits simulated in one sweep."""
        return sum(self._runs * len(c.snr_db) * c.frames * c.k
                   * c.info_bits_per_stream() for c in self.configs)

    def detect_real_mults(self) -> float:
        """Real multiplications of detection per frame evaluation.

        Table-2 counts for the back ends it covers; a linear combiner
        (mr, zf, mmse) costs one k x m complex product per use.
        """
        total = 0.0
        for c in self.configs:
            if c.detector in ALGORITHMS:
                order = c.cd_sweeps if c.detector == "cd" else c.nsa_order
                per_use = table2_cost(c.detector, c.m, c.k, order).per_use
            else:
                per_use = 4 * c.k * c.m
            total += per_use * c.coherence_uses
        return total / len(self.configs)

    def sweep(self, workers=None, timings=None):
        """One sweep's counts; appends each library call's (wall s, CPU s)
        to ``timings`` when given.

        A coded sweep calls ``run_uplink_ber`` once per detector and SNR
        point.  A frame's random streams depend on the seed and the frame
        index only, so the counts equal those of one call over the grid,
        and a run can time every point on its own.
        """
        workers = self.workers if workers is None else workers
        timings = [] if timings is None else timings
        if self.outage:
            with _timed(timings):
                result = run_outage_study(self.configs[0], _FRACTIONS,
                                          "exclude", _TARGET_BER,
                                          workers=workers)
            return _outage_counts(result)
        counts = {}
        for c in self.configs:
            counts[c.detector] = []
            for snr in c.snr_db:
                with _timed(timings):
                    result = run_uplink_ber(replace(c, snr_db=(snr,)),
                                            workers=workers)
                counts[c.detector] += _ber_counts(result)
        return counts

    def traced_sweep(self, tracer):
        with tracer.span("link.sim.sweep", workload=self.name):
            if self.outage:
                return _outage_counts(frameloop.traced_outage(
                    self.configs[0], _FRACTIONS, "exclude", _TARGET_BER,
                    tracer))
            return {c.detector: _ber_counts(frameloop.traced_ber(c, tracer))
                    for c in self.configs}

    def warm(self):
        """One frame at one SNR point per config, so lazy set-up is done."""
        for c in self.configs:
            run_uplink_ber(replace(c, frames=1, snr_db=c.snr_db[:1]))


def _cpu_s():
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@contextmanager
def _timed(timings):
    cpu0, t0 = _cpu_s(), time.perf_counter()
    yield
    timings.append((time.perf_counter() - t0, _cpu_s() - cpu0))


def _ber_counts(result):
    return [[p.snr_db, p.n_bits, p.n_errors] for p in result.points]


def _outage_counts(result):
    return {"baseline_snr_db": result.baseline_snr_db,
            "points": [[p.fraction, p.snr_db, p.penalty_db, p.status]
                       for p in result.points]}


def make(name, seed=None, frames=None) -> Workload:
    """Workload ``name`` at ``seed`` (default: its criterion's seed).

    ``frames`` overrides the frames per SNR point; only the self-test
    uses it, to run every workload in a few seconds.
    """
    if name == "coded16_k16":
        seed = 11 if seed is None else seed
        coded = {**_CODED_05, "frames": frames or _CODED_05["frames"]}
        return Workload(name, seed, tuple(
            SimConfig(detector=d, seed=seed, **coded) for d in _K16_PLAN))
    if name == "outage_exclude_w2":
        seed = 1 if seed is None else seed
        cfg = SimConfig(seed=seed, **{**_OUTAGE_08,
                                      "frames": frames or _OUTAGE_08["frames"]})
        return Workload(name, seed, (cfg,), outage=True, workers=2)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("coded16_k16", "outage_exclude_w2")
