"""Link-level Monte-Carlo plumbing: configs, BER curves, EVM, outage."""
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mimodsp import (CalibrationConfig, EvmConfig, PaModel, SimConfig,
                     impairments, run_calibration_study, run_downlink_evm,
                     run_outage_study, run_uplink_ber, snr_at_ber)
from mimodsp.channel import draw_iid_rayleigh, stream_rng
from mimodsp.equalization import (N0_FREE_DETECTORS, UplinkDetector,
                                  build_uplink_detector)
from mimodsp.impairments import (FAULT_MODES, CircuitErrorModel,
                                 draw_victims, inject_errors, quantize_adc)
from mimodsp.link import sim, viterbi_decode
from mimodsp.link.modem import Constellation, demap_hard, demap_soft
from mimodsp.link.sim import (FAULT_POLICIES, BerPoint, BerResult,
                              OutagePoint, OutageResult, outage_configs)
from mimodsp.numerics import ZeroDiagonalError


def _no_draw(*args):
    raise AssertionError("a channel was drawn before the arguments were checked")


def _zf_qpsk_ber_rayleigh(m, k, snr_db):
    """Ensemble-average QPSK bit error rate of unit-gain ZF detection.

    The post-detection SNR of a zero-forcing stream in an i.i.d. Rayleigh
    channel is a chi-squared variable with M - K + 1 complex degrees of
    freedom, so each bit sees classic maximum-ratio diversity with
    per-branch SNR Es / (2 N0) per real axis.
    """
    n = m - k + 1
    gbar = 10.0 ** (snr_db / 10.0) / 2.0
    mu = math.sqrt(gbar / (1.0 + gbar))
    a = (1.0 - mu) / 2.0
    b = (1.0 + mu) / 2.0
    return a ** n * sum(math.comb(n - 1 + i, i) * b ** i for i in range(n))


def _zf_qpsk_ber_conditional(g, snr_db):
    """Exact QPSK BER for one channel draw under unit-gain ZF."""
    n0 = 10.0 ** (-snr_db / 10.0)
    inv = np.linalg.inv(g.conj().T @ g)
    arg = np.sqrt(1.0 / (n0 * np.real(np.diag(inv))))
    return float(np.mean(0.5 * np.array([math.erfc(v / math.sqrt(2.0))
                                         for v in arg])))


# float cd and chd at this geometry sum in a thread-dependent order inside
# OpenBLAS's vector-matrix product; coded QPSK, so demap_soft sees xhat
_BLAS_GEOMETRY = SimConfig(m=100, k=10, snr_db=(-18.0, -16.0),
                           coherence_uses=500, frames=4, seed=0)


def _digest_detector_outputs(patch):
    """Patch the simulator to write a digest of each (frame, SNR point)'s
    detector output to a file in ``state["dir"]``; forked pool workers
    inherit the patch.  ``patch`` is ``monkeypatch.setattr`` or ``setattr``."""
    frame_data, demap_soft = sim._frame_data, sim.demap_soft
    state = {}

    def tagging_frame_data(cfg, frame, const):
        state["frame"] = frame
        return frame_data(cfg, frame, const)

    def digesting_demap_soft(xhat, const, noise_var):
        digest = hashlib.sha256(np.ascontiguousarray(xhat).tobytes())
        name = f"{state['frame']}-{noise_var!r}"
        (state["dir"] / name).write_text(digest.hexdigest())
        return demap_soft(xhat, const, noise_var)

    patch(sim, "_frame_data", tagging_frame_data)
    patch(sim, "demap_soft", digesting_demap_soft)
    return state


def _digested_run(state, cfg, workers, out_dir):
    """Points and {"frame-noise_var": digest} of one run_uplink_ber call."""
    out_dir.mkdir()
    state["dir"] = out_dir
    points = run_uplink_ber(cfg, workers=workers).points
    return points, {f.name: f.read_text() for f in out_dir.iterdir()}


# run in a fresh interpreter: the BLAS thread count is read at start-up
_THREADS_CHILD = """
import json, sys
from dataclasses import replace
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_link as t
state, out, runs = t._digest_detector_outputs(setattr), Path(sys.argv[2]), {}
for det, fields in t._THREAD_RUNS.items():
    for workers in (1, 2, 3):
        cfg = replace(t._BLAS_GEOMETRY, **fields)
        runs[f"{det}{workers}"] = t._digested_run(state, cfg, workers,
                                                  out / f"{det}{workers}")
print(json.dumps(runs))
"""
# float cd and chd, and cd at 8/8 bits; both cd runs update in BLAS
_THREAD_RUNS = {"cd": {"detector": "cd"}, "chd": {"detector": "chd"},
                "cd8": {"detector": "cd", "signal_fraction_bits": 8,
                        "operator_fraction_bits": 8}}
# the same runs at workers=1 under another BLAS kernel: argv[2] is "zgeru"
# for the kernel OPENBLAS_CORETYPE picks, "numpy" for the rank-1 update's
# numpy fallback; prints the BerPoints
_KERNEL_CHILD = """
import json, sys
from dataclasses import replace
sys.path.insert(0, sys.argv[1])
import test_link as t
from mimodsp import _openblas
if sys.argv[2] == "numpy":
    _openblas._zgeru = lambda: None
print(json.dumps({det: t.run_uplink_ber(replace(t._BLAS_GEOMETRY, **fields)
                                        ).points
                  for det, fields in t._THREAD_RUNS.items()}))
"""


def _blas_cores():
    """OPENBLAS_CORETYPE values this CPU runs, by the flag each one needs:
    Haswell AVX2, Prescott SSE3 ("pni"); none where the flags are unread."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return ()
    flags = {flag for line in text.splitlines()
             if line.startswith("flags") for flag in line.split()}
    return tuple(core for core, flag in (("Haswell", "avx2"),
                                         ("Prescott", "pni"))
                 if flag in flags)


class TestSimConfigValidation:
    def test_good_config_passes(self):
        SimConfig(m=16, k=4, snr_db=(0.0, 2.0)).validate()

    def test_field_names_in_messages(self):
        cases = {
            "k:": SimConfig(m=4, k=8, snr_db=(0.0,)),
            "frames:": SimConfig(m=8, k=2, snr_db=(0.0,), frames=0),
            "snr_db:": SimConfig(m=8, k=2, snr_db=()),
            "constellation:": SimConfig(m=8, k=2, snr_db=(0.0,),
                                        constellation="8psk"),
            "detector:": SimConfig(m=8, k=2, snr_db=(0.0,), detector="ml"),
            "nsa_order:": SimConfig(m=8, k=2, snr_db=(0.0,), nsa_order=11),
            "cd_sweeps:": SimConfig(m=8, k=2, snr_db=(0.0,), cd_sweeps=0),
            "c_const: must": SimConfig(m=8, k=2, snr_db=(0.0,),
                                       c_const=0.0),
            "victim_fraction:": SimConfig(m=8, k=2, snr_db=(0.0,),
                                          victim_fraction=1.0,
                                          victim_policy="ignore"),
            "victim_policy:": SimConfig(m=8, k=2, snr_db=(0.0,),
                                        victim_fraction=0.2),
            "victim_mode: unknown": SimConfig(m=8, k=2, snr_db=(0.0,),
                                              victim_mode="bogus"),
            "victim_mode: unknown 'transient'": SimConfig(
                m=8, k=2, snr_db=(0.0,), victim_mode="transient"),
        }
        for tag, cfg in cases.items():
            with pytest.raises(ValueError, match=tag):
                cfg.validate()

    @pytest.mark.parametrize("c_const", [0.0, -0.5, math.nan, math.inf,
                                         -math.inf])
    def test_c_const_must_be_finite_and_positive(self, c_const):
        # each of these used to validate and run mqrd at a BER near 0.5
        cfg = SimConfig(m=16, k=4, snr_db=(10.0,), detector="mqrd",
                        coded=False, c_const=c_const)
        with pytest.raises(ValueError, match="c_const: must be finite and "
                                             "positive"):
            cfg.validate()

    @pytest.mark.parametrize("c_const", [1.0 + 1e-12, 1.5, 1e9])
    def test_c_const_must_not_exceed_one(self, c_const):
        # qrd takes the modified rotation only where |s| <= 1/2, and
        # [[c, s], [-s*, c]] is sqrt(c^2 + |s|^2) times a unitary: a c above
        # 1 scales every rotated row up and is no cosine (mqrd at 1e9 and
        # 12 bits used to run at a BER of 0.49)
        cfg = SimConfig(m=16, k=4, snr_db=(10.0,), detector="mqrd",
                        coded=False, c_const=c_const)
        with pytest.raises(ValueError,
                           match=r"^c_const: \S+ above 1, the largest "
                                 r"cosine$"):
            cfg.validate()

    @pytest.mark.parametrize("pilot_snr_db", [math.nan, -math.inf])
    def test_pilot_snr_must_be_finite_or_perfect(self, pilot_snr_db):
        # each of these used to validate and run zf at a BER of 0.5
        cfg = SimConfig(m=16, k=4, snr_db=(10.0,), coded=False,
                        pilot_snr_db=pilot_snr_db)
        with pytest.raises(ValueError, match="^pilot_snr_db: must be at "
                                             "least -300.0, got"):
            cfg.validate()
        for ok in (math.inf, -30.0, 30.0):
            replace(cfg, pilot_snr_db=ok).validate()

    # snr_db 4000 used to validate and then fail mid-run with "noise
    # variance must be positive", -4000 and pilot -7000 with an OverflowError
    @pytest.mark.parametrize("field, value", [
        ("snr_db", (4000.0,)), ("snr_db", (-4000.0,)), ("snr_db", (300.5,)),
        ("snr_db", (0.0, math.nan)), ("pilot_snr_db", -7000.0),
        ("pilot_snr_db", -300.5)])
    def test_snr_outside_its_range(self, field, value):
        cfg = SimConfig(m=8, k=2, snr_db=(0.0,), coded=False, frames=1)
        with pytest.raises(ValueError, match=f"^{field}: "):
            replace(cfg, **{field: value}).validate()

    @pytest.mark.parametrize("detector", ["zf", "cd", "mmse"])
    def test_snr_at_its_bounds_runs(self, detector):
        cfg = SimConfig(m=8, k=2, snr_db=(-300.0, 300.0), detector=detector,
                        coherence_uses=16, frames=1, pilot_snr_db=-300.0)
        for pilot_snr_db in (-300.0, 1e6, math.inf):
            res = run_uplink_ber(replace(cfg, pilot_snr_db=pilot_snr_db))
            assert all(0 <= p.n_errors <= p.n_bits for p in res.points)

    # 1025 bits and more used to validate and then overflow in quantize_adc
    @pytest.mark.parametrize("adc_bits", [0, 54, 1025])
    def test_adc_bits_outside_its_range(self, adc_bits):
        cfg = SimConfig(m=8, k=2, snr_db=(0.0,), adc_bits=adc_bits)
        with pytest.raises(ValueError, match="^adc_bits: must be at "):
            cfg.validate()

    def test_adc_bits_at_its_bound_runs(self):
        cfg = SimConfig(m=8, k=2, snr_db=(0.0,), coded=False,
                        coherence_uses=16, frames=1, adc_bits=53)
        assert run_uplink_ber(cfg).points == run_uplink_ber(
            replace(cfg, adc_bits=None)).points

    # a negative seed used to validate and then fail in numpy
    def test_negative_seed(self):
        for cfg in (SimConfig(m=8, k=2, snr_db=(0.0,), seed=-1),
                    EvmConfig((8,), k=2, seed=-1),
                    CalibrationConfig(8, 2, seed=-1)):
            with pytest.raises(ValueError, match="^seed: must be at least 0, "
                                                 "got -1$"):
                cfg.validate()

    # names in any case used to fail validation ("unknown 'Exclude'")
    @pytest.mark.parametrize("policy", FAULT_POLICIES)
    def test_victim_names_in_any_case(self, policy):
        cfg = SimConfig(m=12, k=3, snr_db=(-2.0, 0.0), coded=False,
                        coherence_uses=64, frames=3, seed=5, adc_bits=4,
                        victim_fraction=0.25, victim_policy=policy)
        for mode in FAULT_MODES:
            mixed = replace(cfg, victim_policy=policy.title(),
                            victim_mode=mode.title())
            mixed.validate()
            assert (run_uplink_ber(mixed).points == run_uplink_ber(
                replace(cfg, victim_mode=mode)).points)

    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_ignore_needs_a_working_antenna(self, mode):
        # 0.99 of 16 antennas rounds to all 16: with stuck_at_value and
        # the ADC this used to validate and then raise mid-sweep
        cfg = SimConfig(m=16, k=4, snr_db=(-5.0, 0.0), coded=False,
                        frames=2, adc_bits=4, victim_fraction=0.99,
                        victim_mode=mode, victim_policy="ignore")
        with pytest.raises(ValueError, match="^victim_fraction: every "
                                             "antenna is faulty"):
            cfg.validate()
        one_left = replace(cfg, victim_fraction=0.95)   # 15 of 16
        assert run_uplink_ber(one_left).points[0].n_bits > 0

    def test_fraction_bits_come_in_pairs(self):
        cfg = SimConfig(m=8, k=2, snr_db=(0.0,), signal_fraction_bits=8)
        with pytest.raises(ValueError, match="set both or neither"):
            cfg.validate()
        with pytest.raises(ValueError, match="operator_fraction_bits:"):
            SimConfig(m=8, k=2, snr_db=(0.0,), signal_fraction_bits=8,
                      operator_fraction_bits=30).validate()

    def test_exclusion_must_leave_enough_antennas(self):
        cfg = SimConfig(m=8, k=6, snr_db=(0.0,), victim_fraction=0.5,
                        victim_policy="exclude")
        with pytest.raises(ValueError, match="victim_fraction:"):
            cfg.validate()

    def test_multiple_errors_reported_together(self):
        cfg = SimConfig(m=4, k=8, snr_db=(), frames=0)
        with pytest.raises(ValueError) as err:
            cfg.validate()
        text = str(err.value)
        assert text.count(";") >= 2

    def test_info_bits_per_stream(self):
        assert SimConfig(m=8, k=2, snr_db=(0.0,)).info_bits_per_stream() == 506
        assert SimConfig(m=8, k=2, snr_db=(0.0,),
                         coded=False).info_bits_per_stream() == 1024
        assert SimConfig(m=8, k=2, snr_db=(0.0,), constellation="16qam"
                         ).info_bits_per_stream() == 1018


class TestUplinkBerAgainstClosedForm:
    def test_single_channel_conditional_ber(self):
        cfg = SimConfig(m=8, k=4, snr_db=(0.0,), coded=False,
                        coherence_uses=4000, frames=1, seed=5150)
        res = run_uplink_ber(cfg)
        g = draw_iid_rayleigh(8, 4, stream_rng(5150, 0, 0))
        want = _zf_qpsk_ber_conditional(g, 0.0)
        got = res.points[0]
        sigma = math.sqrt(want * (1.0 - want) / got.n_bits)
        assert got.n_bits == 4 * 8000
        assert abs(got.ber - want) < 4.0 * sigma

    def test_ensemble_average_ber(self):
        cfg = SimConfig(m=8, k=4, snr_db=(0.0,), coded=False,
                        coherence_uses=200, frames=200, seed=77)
        res = run_uplink_ber(cfg)
        want = _zf_qpsk_ber_rayleigh(8, 4, 0.0)
        assert res.points[0].ber == pytest.approx(want, rel=0.15)

    def test_ber_decreases_with_snr(self):
        cfg = SimConfig(m=16, k=4, snr_db=(-6.0, 0.0), coded=False,
                        coherence_uses=256, frames=30, seed=3)
        res = run_uplink_ber(cfg)
        assert res.points[0].ber > 5.0 * res.points[1].ber

    def test_array_gain(self):
        base = dict(k=4, snr_db=(-6.0,), coded=False, coherence_uses=256,
                    frames=30, seed=3)
        small = run_uplink_ber(SimConfig(m=8, **base)).points[0]
        big = run_uplink_ber(SimConfig(m=32, **base)).points[0]
        assert big.n_errors < small.n_errors / 3


class TestUplinkBerMechanics:
    def test_deterministic(self):
        cfg = SimConfig(m=8, k=2, snr_db=(-4.0, 0.0), coded=False,
                        coherence_uses=128, frames=6, seed=42)
        a = run_uplink_ber(cfg)
        b = run_uplink_ber(cfg)
        assert [p.n_errors for p in a.points] == [p.n_errors for p in b.points]

    @pytest.mark.parametrize("detector, builds", [("zf", 4), ("mmse", 12)])
    def test_n0_free_detector_built_once_per_frame(self, monkeypatch,
                                                   detector, builds):
        # zf ignores N0, so one build serves all 3 points of each of the
        # 4 frames; mmse reads N0 and is built per frame and point
        calls = []
        build = sim.build_uplink_detector

        def counting_build(*args, **kwargs):
            calls.append(args[2])
            return build(*args, **kwargs)

        monkeypatch.setattr(sim, "build_uplink_detector", counting_build)
        cfg = SimConfig(m=8, k=2, snr_db=(-4.0, 0.0, 4.0), coded=False,
                        detector=detector, coherence_uses=64, frames=4)
        run_uplink_ber(cfg)
        assert len(calls) == builds

    def test_workers_do_not_change_the_answer(self):
        # 7 frames split unevenly over 2 and 3 workers, at several points:
        # coded, and uncoded with an overlay and excluded victims
        coded = SimConfig(m=8, k=2, snr_db=(-12.0, -9.0, -6.0), coded=True,
                          coherence_uses=128, frames=7, seed=9)
        uncoded = SimConfig(m=10, k=2, snr_db=(-6.0, -3.0, 0.0),
                            detector="chd", coded=False, coherence_uses=128,
                            frames=7, signal_fraction_bits=6,
                            operator_fraction_bits=6, victim_fraction=0.2,
                            victim_policy="exclude", seed=9)
        for cfg in (coded, uncoded):
            serial = run_uplink_ber(cfg, workers=1).points
            assert any(p.n_errors for p in serial)
            for workers in (2, 3):
                assert run_uplink_ber(cfg, workers=workers).points == serial

    @pytest.mark.parametrize("detector", ["cd", "chd"])
    def test_float_detector_output_does_not_depend_on_workers(
            self, detector, monkeypatch, tmp_path):
        # float cd and chd once differed in the last bit between workers=1
        # and workers>1 on a multi-core host, as the serial path ran the
        # default BLAS thread count and the pool one thread (the BLAS
        # thread-count FOUND in CHANGES.md); every frame is compared here
        state = _digest_detector_outputs(monkeypatch.setattr)
        cfg = replace(_BLAS_GEOMETRY, detector=detector)
        serial = _digested_run(state, cfg, 1, tmp_path / "serial")
        assert any(p.n_errors for p in serial[0])
        assert len(serial[1]) == cfg.frames * len(cfg.snr_db)
        assert _digested_run(state, cfg, 2, tmp_path / "pool") == serial

    def test_results_do_not_depend_on_blas_threads_or_workers(self, tmp_path):
        # BerPoints and every detector output at workers 1, 2 and 3, with
        # OPENBLAS_NUM_THREADS unset, 1 and 2, each in a fresh interpreter;
        # then BerPoints alone under other OpenBLAS kernels and without
        # zgeru, whose float outputs differ in the last bits
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {key: val for key, val in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        runs = {}
        for threads in (None, "1", "2"):
            child_env = dict(env, **({} if threads is None
                                     else {"OPENBLAS_NUM_THREADS": threads}))
            out = tmp_path / str(threads)
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", _THREADS_CHILD, tests, str(out)],
                capture_output=True, text=True, env=child_env, check=True)
            runs[threads] = json.loads(proc.stdout)
        for det in _THREAD_RUNS:
            first = runs[None][f"{det}1"]
            assert any(n_errors for _, _, n_errors, _, _ in first[0])
            for threads in runs:
                for workers in (1, 2, 3):
                    assert runs[threads][f"{det}{workers}"] == first
        kernels = [(None, "numpy")] + [(core, "zgeru")
                                       for core in _blas_cores()]
        for core, rank1 in kernels:
            child_env = dict(env, **({} if core is None
                                     else {"OPENBLAS_CORETYPE": core}))
            proc = subprocess.run(
                [sys.executable, "-c", _KERNEL_CHILD, tests, rank1],
                capture_output=True, text=True, env=child_env, check=True)
            points = json.loads(proc.stdout)
            for det in _THREAD_RUNS:
                assert points[det] == runs[None][f"{det}1"][0], (core, rank1)

    def test_caller_blas_thread_count_is_restored(self, monkeypatch):
        # one thread inside run_uplink_ber, the caller's count after it
        # returns and after it raises
        calls = sim._openblas_thread_calls()
        assert calls, "numpy's OpenBLAS thread calls not found"
        saved = [get() for get, _ in calls]
        inside = []
        simulate_frames = sim._simulate_frames

        def counting_simulate(cfg, frames):
            inside.append([get() for get, _ in calls])
            return simulate_frames(cfg, frames)

        def failing_simulate(cfg, frames):
            inside.append([get() for get, _ in calls])
            raise RuntimeError("frame failed")

        cfg = SimConfig(m=8, k=2, snr_db=(0.0,), coherence_uses=64, frames=2)
        try:
            for _, put in calls:
                put(3)
            monkeypatch.setattr(sim, "_simulate_frames", counting_simulate)
            run_uplink_ber(cfg)
            assert [get() for get, _ in calls] == [3] * len(calls)
            monkeypatch.setattr(sim, "_simulate_frames", failing_simulate)
            with pytest.raises(RuntimeError, match="frame failed"):
                run_uplink_ber(cfg)
            assert [get() for get, _ in calls] == [3] * len(calls)
        finally:
            for (_, put), count in zip(calls, saved):
                put(count)
        assert inside == [[1] * len(calls)] * 2

    # 18 frames x 3 points x 16 rows: each chunk of 9 or 18 frames passes
    # _DECODE_ROWS, so a Viterbi call holds rows of several points, while
    # one point's rows of all 18 frames fit one call
    _PAST_THE_QUEUE = SimConfig(m=20, k=16, snr_db=(-6.0, -4.0, -2.0),
                                coded=True, coherence_uses=16, frames=18,
                                seed=3)

    def test_decode_queue_spans_points(self):
        cfg = self._PAST_THE_QUEUE
        assert 9 * len(cfg.snr_db) * cfg.k > sim._DECODE_ROWS
        assert cfg.frames * cfg.k < sim._DECODE_ROWS
        one_by_one = [run_uplink_ber(replace(cfg, snr_db=(snr,))).points[0]
                      for snr in cfg.snr_db]
        assert any(p.n_errors for p in one_by_one)
        for workers in (1, 2):
            assert run_uplink_ber(cfg, workers=workers).points == tuple(
                one_by_one)

    def test_decode_batches_are_bounded(self, monkeypatch):
        # a batch is flushed once _DECODE_ROWS rows wait, so it holds at
        # most k - 1 rows more; every row is decoded once
        batches = []

        def counting_decode(llrs, n_info=None):
            batches.append(len(llrs))
            return viterbi_decode(llrs, n_info=n_info)

        monkeypatch.setattr(sim, "viterbi_decode", counting_decode)
        cfg = self._PAST_THE_QUEUE
        run_uplink_ber(cfg)
        assert len(batches) > 1
        assert max(batches) <= sim._DECODE_ROWS + cfg.k - 1
        assert sum(batches) == cfg.frames * len(cfg.snr_db) * cfg.k

    def test_faults_are_drawn_once_per_frame(self, monkeypatch):
        # both policies draw each frame's victims once, from its stream 4:
        # exclude drops their rows, ignore sticks them at every point
        # without inject_errors, which would draw the set again
        draws = []

        def counting_draw(*args):
            draws.append((args[:2], draw_victims(*args)))
            return draws[-1][1]

        def no_inject(*args):
            raise AssertionError("inject_errors called")

        monkeypatch.setattr(sim, "draw_victims", counting_draw)
        monkeypatch.setattr(impairments, "inject_errors", no_inject)
        monkeypatch.setattr(sim, "inject_errors", no_inject, raising=False)
        cfg = SimConfig(m=8, k=2, snr_db=(-4.0, 0.0, 4.0), coded=False,
                        coherence_uses=16, frames=4, victim_fraction=0.25,
                        seed=5)
        for policy in FAULT_POLICIES:
            draws.clear()
            run_uplink_ber(replace(cfg, victim_policy=policy))
            assert len(draws) == 4
            for frame, (args, victims) in enumerate(draws):
                assert args == (8, 0.25)
                np.testing.assert_array_equal(
                    victims, draw_victims(8, 0.25, stream_rng(5, frame, 4)))

    @pytest.mark.parametrize("adc_bits", [None, 4])
    @pytest.mark.parametrize("mode", FAULT_MODES)
    @pytest.mark.parametrize("detector", ["zf", "chd"])
    def test_ignore_counts_equal_inject_errors(self, detector, mode,
                                               adc_bits):
        # sticking the frame's victims in place counts what a fresh
        # inject_errors at every point counts
        cfg = SimConfig(m=8, k=2, snr_db=(-4.0, 4.0, 12.0), detector=detector,
                        coded=False, coherence_uses=32, frames=3,
                        victim_fraction=0.25, victim_mode=mode,
                        victim_policy="ignore", adc_bits=adc_bits, seed=9)
        const = Constellation.from_name(cfg.constellation)
        faults = CircuitErrorModel(cfg.victim_fraction, mode)
        expected = [0] * len(cfg.snr_db)
        for frame in range(cfg.frames):
            g, g_hat, bits, x, w = sim._frame_data(cfg, frame, const)
            for i, snr_db in enumerate(cfg.snr_db):
                noise_var = 10.0 ** (-snr_db / 10.0)
                y, _ = inject_errors(g @ x + np.sqrt(noise_var) * w, faults,
                                     stream_rng(cfg.seed, frame, 4))
                if adc_bits is not None:
                    y = quantize_adc(y, adc_bits)
                det = build_uplink_detector(g_hat, detector, noise_var)
                expected[i] += int(np.count_nonzero(
                    demap_hard(det.detect(y), const) != bits))
        assert sum(expected) > 0
        assert [p.n_errors for p in run_uplink_ber(cfg).points] == expected

    def test_coding_gain(self):
        base = dict(m=16, k=4, snr_db=(-7.0,), coherence_uses=512,
                    frames=12, seed=21)
        uncoded = run_uplink_ber(SimConfig(coded=False, **base)).points[0]
        coded = run_uplink_ber(SimConfig(coded=True, **base)).points[0]
        assert uncoded.ber > 1e-2
        assert coded.ber < uncoded.ber / 2

    def test_quantization_overlay_changes_trajectories(self):
        # overlays act on the hardware back ends, not the float references
        base = dict(m=8, k=4, snr_db=(0.0,), detector="chd", coded=False,
                    coherence_uses=512, frames=10, seed=13)
        float_run = run_uplink_ber(SimConfig(**base)).points[0]
        fxp_run = run_uplink_ber(SimConfig(signal_fraction_bits=6,
                                           operator_fraction_bits=6,
                                           **base)).points[0]
        assert fxp_run.n_errors != float_run.n_errors
        assert fxp_run.ber < 0.5

    def test_one_bit_adc_with_mr_still_detects(self):
        cfg = SimConfig(m=64, k=2, snr_db=(-10.0,), detector="mr",
                        coded=False, coherence_uses=256, frames=6,
                        adc_bits=1, seed=8)
        res = run_uplink_ber(cfg)
        assert res.points[0].ber < 0.1

    def test_noisy_pilots_hurt(self):
        base = dict(m=16, k=4, snr_db=(-4.0,), coded=False,
                    coherence_uses=256, frames=25, seed=17)
        clean = run_uplink_ber(SimConfig(**base)).points[0]
        noisy = run_uplink_ber(SimConfig(pilot_snr_db=-5.0, **base)).points[0]
        assert noisy.n_errors > clean.n_errors

    def test_detector_name_is_case_insensitive(self):
        # validate accepts any case, so the run must too
        base = dict(m=8, k=2, snr_db=(-2.0, 0.0), coherence_uses=128,
                    frames=3, seed=4)
        for name in ("zf", "chd"):
            upper = SimConfig(detector=name.upper(), **base)
            upper.validate()
            assert (run_uplink_ber(upper).points
                    == run_uplink_ber(SimConfig(detector=name, **base)).points)

    def test_rejects_bad_worker_count(self):
        cfg = SimConfig(m=8, k=2, snr_db=(0.0,), frames=2)
        with pytest.raises(ValueError, match="workers"):
            run_uplink_ber(cfg, workers=0)

    # _run_ber used to read the frames of every run from the first
    # config: an mr run at seed 2 next to this one counted 436 errors,
    # against 350 in its own run, with no error raised
    _MIXED = SimConfig(m=16, k=4, snr_db=(-5.0,), coded=False, frames=2,
                       seed=1, signal_fraction_bits=8,
                       operator_fraction_bits=8)

    @pytest.mark.parametrize("field, value", [
        ("m", 12), ("k", 3), ("snr_db", (-4.0,)), ("constellation", "16qam"),
        ("coded", True), ("coherence_uses", 256), ("frames", 3),
        ("pilot_snr_db", 20.0), ("seed", 2)])
    def test_runs_must_share_the_frame_fields(self, field, value):
        other = replace(self._MIXED, detector="mr", **{field: value})
        other.validate()
        with pytest.raises(ValueError,
                           match=f"^configs: runs differ in {field}$"):
            sim._run_ber((self._MIXED, other), 1)

    def test_runs_may_differ_in_the_fields_read_per_run(self):
        other = replace(self._MIXED, detector="chd", signal_fraction_bits=10,
                        operator_fraction_bits=10, nsa_order=2,
                        cd_sweeps=2, c_const=0.9, adc_bits=6,
                        victim_fraction=0.25, victim_mode="stuck_at_value",
                        victim_policy="ignore")
        unquantized = replace(self._MIXED, detector="cd",
                              signal_fraction_bits=None,
                              operator_fraction_bits=None)
        runs = (self._MIXED, other, unquantized)
        for cfg in runs:
            cfg.validate()
        assert sim._run_ber(runs, 1) == tuple(map(run_uplink_ber, runs))

    @pytest.mark.xfail(strict=True, raises=ZeroDiagonalError,
                       reason="ROADMAP item 5: a factorization breakdown in "
                              "one frame aborts the whole sweep")
    def test_factorization_breakdown_does_not_abort_the_sweep(self):
        cfg = SimConfig(m=128, k=16, snr_db=(-8.0,), detector="mqrd",
                        coded=False, frames=4, seed=0, c_const=0.9,
                        signal_fraction_bits=4, operator_fraction_bits=4,
                        constellation="16qam")
        cfg.validate()
        assert run_uplink_ber(cfg).points[0].n_bits > 0


class TestLinearSplit:
    """mr and zf with no per-point front end detect each frame's signal
    and noise once per run; every point is then one axpy."""

    _CFG = SimConfig(m=8, k=2, snr_db=(-6.0, -3.0, 0.0, 3.0, 6.0),
                     coded=False, coherence_uses=64, frames=3, seed=4)

    @staticmethod
    def _count_detects(monkeypatch):
        calls = []
        detect = UplinkDetector.detect

        def counting_detect(self, y):
            calls.append(self.method)
            return detect(self, y)

        monkeypatch.setattr(UplinkDetector, "detect", counting_detect)
        return calls

    @pytest.mark.parametrize("changes, per_frame", [
        (dict(detector="zf"), 2), (dict(detector="mr"), 2),
        (dict(detector="mmse"), 5), (dict(detector="zf", adc_bits=4), 5),
        (dict(detector="zf", victim_fraction=0.25, victim_policy="ignore"),
         5)])
    def test_detect_calls_per_frame(self, monkeypatch, changes, per_frame):
        calls = self._count_detects(monkeypatch)
        cfg = replace(self._CFG, **changes)
        run_uplink_ber(cfg)
        assert len(calls) == per_frame * cfg.frames

    def test_outage_exclude_runs_split(self, monkeypatch):
        # baseline and two exclude runs, two detects per frame each
        calls = self._count_detects(monkeypatch)
        configs = outage_configs(self._CFG, (0.0, 0.25), "exclude", 1e-2)
        sim._run_ber(configs, 1)
        assert len(calls) == 2 * len(configs) * self._CFG.frames

    @pytest.mark.parametrize("detector", N0_FREE_DETECTORS)
    def test_estimate_matches_one_product(self, monkeypatch, detector):
        estimates = []
        nearest_labels = sim._nearest_labels

        def recording(xhat, const):
            estimates.append(xhat)
            return nearest_labels(xhat, const)

        monkeypatch.setattr(sim, "_nearest_labels", recording)
        cfg = replace(self._CFG, detector=detector)
        run_uplink_ber(cfg)
        const = Constellation.from_name(cfg.constellation)
        frame_major = iter(estimates)
        for frame in range(cfg.frames):
            g, g_hat, _, x, w = sim._frame_data(cfg, frame, const)
            det = build_uplink_detector(g_hat, detector, 0.0)
            for snr_db in cfg.snr_db:
                y = g @ x + np.sqrt(10.0 ** (-snr_db / 10.0)) * w
                np.testing.assert_allclose(next(frame_major), det.detect(y),
                                           rtol=1e-12)
        assert next(frame_major, None) is None

    @pytest.mark.parametrize("coded", [False, True])
    @pytest.mark.parametrize("constellation",
                             ["qpsk", "16qam", "64qam", "256qam"])
    @pytest.mark.parametrize("detector", N0_FREE_DETECTORS)
    def test_counts_equal_a_per_point_loop(self, detector, constellation,
                                           coded):
        cfg = SimConfig(m=8, k=2, snr_db=(-12.0, -4.0, 4.0, 12.0),
                        constellation=constellation, detector=detector,
                        coded=coded, coherence_uses=64, frames=2, seed=7)
        const = Constellation.from_name(constellation)
        expected = [0] * len(cfg.snr_db)
        for frame in range(cfg.frames):
            g, g_hat, bits, x, w = sim._frame_data(cfg, frame, const)
            for i, snr_db in enumerate(cfg.snr_db):
                noise_var = 10.0 ** (-snr_db / 10.0)
                det = build_uplink_detector(g_hat, detector, noise_var)
                xhat = det.detect(g @ x + np.sqrt(noise_var) * w)
                decided = (viterbi_decode(demap_soft(xhat, const, noise_var),
                                          n_info=bits.shape[1]) if coded
                           else demap_hard(xhat, const))
                expected[i] += int(np.count_nonzero(decided != bits))
        assert sum(expected) > 0
        assert [p.n_errors for p in run_uplink_ber(cfg).points] == expected


def _synthetic_result(snrs, bers, n_bits=100_000):
    points = tuple(BerPoint(snr_db=s, n_bits=n_bits,
                            n_errors=int(round(b * n_bits)), ber=b,
                            stderr=0.0)
                   for s, b in zip(snrs, bers))
    return BerResult(config=SimConfig(m=8, k=2, snr_db=tuple(snrs)),
                     points=points)


class TestSnrAtBer:
    def test_exact_grid_point(self):
        res = _synthetic_result([0.0, 2.0, 4.0], [1e-1, 1e-2, 1e-3])
        snr, status = snr_at_ber(res, 1e-2)
        assert status == "ok"
        assert snr == pytest.approx(2.0)

    def test_log_linear_interpolation(self):
        res = _synthetic_result([0.0, 2.0, 4.0], [1e-1, 1e-2, 1e-3])
        snr, status = snr_at_ber(res, math.sqrt(1e-5))
        assert status == "ok"
        assert snr == pytest.approx(3.0)

    def test_above_and_below_grid(self):
        res = _synthetic_result([0.0, 2.0], [1e-1, 1e-2])
        assert snr_at_ber(res, 1e-4) == (math.inf, "above_grid")
        assert snr_at_ber(res, 0.3) == (-math.inf, "below_grid")

    def test_zero_error_points_are_floored(self):
        res = _synthetic_result([0.0, 2.0], [1e-2, 0.0], n_bits=10_000)
        snr, status = snr_at_ber(res, 1e-3)
        assert status == "ok"
        assert 0.0 < snr < 2.0

    def test_order_of_points_does_not_matter(self):
        res = _synthetic_result([4.0, 0.0, 2.0], [1e-3, 1e-1, 1e-2])
        assert snr_at_ber(res, 1e-2)[0] == pytest.approx(2.0)

    def test_rejects_bad_target(self):
        res = _synthetic_result([0.0], [1e-2])
        for target in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="target"):
                snr_at_ber(res, target)


_COMPRESSIVE = PaModel(alpha1=1.0, alpha3=-0.05, a_in_sat=2.5)


class TestDownlinkEvm:
    def test_linear_pa_has_negligible_error(self):
        # the error-vector ratio clamps at its -100 dB reporting floor
        pts = run_downlink_evm(EvmConfig((16,), k=4, trials=4, seed=1),
                               PaModel())
        assert pts[0].evm_db <= -99.0

    def test_more_antennas_less_distortion(self):
        pts = run_downlink_evm(EvmConfig((16, 64), k=4, trials=6, seed=2),
                               _COMPRESSIVE)
        assert pts[1].evm_db < pts[0].evm_db - 4.0

    def test_backoff_improves_evm(self):
        hot = run_downlink_evm(EvmConfig((16,), k=4, trials=4,
                                         backoff_db=0.0, seed=3),
                               _COMPRESSIVE)[0]
        cool = run_downlink_evm(EvmConfig((16,), k=4, trials=4,
                                          backoff_db=6.0, seed=3),
                                _COMPRESSIVE)[0]
        assert cool.evm_db < hot.evm_db - 6.0

    def test_reference_size_defaults_to_smallest(self):
        explicit = run_downlink_evm(EvmConfig((16, 32), k=2, trials=3,
                                              m_ref=16, seed=4), _COMPRESSIVE)
        implicit = run_downlink_evm(EvmConfig((16, 32), k=2, trials=3,
                                              seed=4), _COMPRESSIVE)
        assert explicit == implicit

    def test_validation(self, monkeypatch):
        # every bad argument is named before the first channel is drawn
        monkeypatch.setattr(sim, "draw_iid_rayleigh", _no_draw)
        for match, fields in [
                ("^m_list: 0 antennas", dict(m_list=())),
                ("^trials: must be at least 1", dict(trials=0)),
                ("^m_list: 4 antennas for 8 users", dict(m_list=(4,), k=8)),
                ("^uses: must be at least 1", dict(uses=0)),
                ("^m_list: 5 antennas", dict(m_list=(30, 5), k=10)),
                ("^m_ref: must be at least 1", dict(m_ref=0)),
                (r"^precoder: unknown 'bogus', not one of \['mr', 'zf'\]",
                 dict(precoder="bogus")),
                ("^constellation: unknown '8psk'",
                 dict(constellation="8psk"))]:
            with pytest.raises(ValueError, match=match):
                run_downlink_evm(EvmConfig(**{"m_list": (8,), "k": 2,
                                              **fields}), PaModel())

    # these drew a channel and then failed on its shape, or failed in numpy
    @pytest.mark.parametrize("m_list, k", [((8,), 0), ((8,), -2), ((0,), 0)])
    def test_user_count_checked_first(self, monkeypatch, m_list, k):
        monkeypatch.setattr(sim, "draw_iid_rayleigh", _no_draw)
        with pytest.raises(ValueError, match="^k: must be at least 1$"):
            run_downlink_evm(EvmConfig(m_list, k), PaModel())

    @pytest.mark.parametrize("backoff", [math.nan, -7000.0, -60.5, math.inf])
    def test_backoff_outside_its_range(self, monkeypatch, backoff):
        # once a numpy RuntimeWarning (NaN) and an OverflowError (-7000)
        monkeypatch.setattr(sim, "draw_iid_rayleigh", _no_draw)
        with pytest.raises(ValueError, match="^backoff_db: must be at "
                                             r"(least -60.0|most 60.0), got"):
            run_downlink_evm(EvmConfig((8,), k=2, backoff_db=backoff),
                             PaModel())


class TestCalibrationStudy:
    def test_validation(self, monkeypatch):
        monkeypatch.setattr(sim, "draw_iid_rayleigh", _no_draw)
        with pytest.raises(ValueError, match="^trials: must be at least 1"):
            run_calibration_study(CalibrationConfig(8, 2, trials=0))
        with pytest.raises(ValueError, match="^k: 8 users exceed 4 antennas"):
            run_calibration_study(CalibrationConfig(4, 8, trials=2))
        with pytest.raises(ValueError, match=r"^precoder: unknown 'bogus', "
                                             r"not one of \['mr', 'zf'\]"):
            run_calibration_study(CalibrationConfig(8, 2, trials=2,
                                                    precoder="bogus"))

    # these drew a channel and then failed on its shape
    @pytest.mark.parametrize("m, k, match", [
        (8, 0, "^k: must be at least 1$"),
        (0, 2, "^m: must be at least 1; k: 2 users exceed 0 antennas$"),
        (0, -1, "^m: must be at least 1; k: must be at least 1$")])
    def test_sizes_checked_first(self, monkeypatch, m, k, match):
        monkeypatch.setattr(sim, "draw_iid_rayleigh", _no_draw)
        with pytest.raises(ValueError, match=match):
            run_calibration_study(CalibrationConfig(m, k, trials=2))

    @pytest.mark.parametrize("field, args", [
        ("gain_bound_db", (-1.0, 5.0, (-40.0,))),
        ("gain_bound_db", (math.nan, 5.0, (-40.0,))),
        ("gain_bound_db", (20.5, 5.0, (-40.0,))),
        ("phase_bound_deg", (1.0, -5.0, (-40.0,))),
        ("phase_bound_deg", (1.0, math.inf, (-40.0,))),
        ("residual_error_db", (1.0, 5.0, (-40.0, math.nan))),
        ("residual_error_db", (1.0, 5.0, (-301.0,))),
        ("residual_error_db", (1.0, 5.0, (math.inf,))),
    ])
    def test_bounds_outside_their_ranges(self, monkeypatch, field, args):
        # a negative bound once reached numpy's "high - low < 0"
        monkeypatch.setattr(sim, "draw_iid_rayleigh", _no_draw)
        with pytest.raises(ValueError, match=f"^{field}: "):
            run_calibration_study(CalibrationConfig(4, 2, *args, trials=2))

    def test_negative_zero_bounds_are_zero(self):
        # uniform draws take a spread of 0.0 but not of -0.0
        zero = run_calibration_study(
            CalibrationConfig(4, 2, 0.0, 0.0, (-math.inf,), 2))
        assert run_calibration_study(
            CalibrationConfig(4, 2, -0.0, -0.0, (-math.inf,), 2)) == zero


class TestOutageStudy:
    def test_paired_baseline_and_penalties(self):
        cfg = SimConfig(m=12, k=3, snr_db=(-8.0, -6.0, -4.0, -2.0, 0.0),
                        coded=False, coherence_uses=200, frames=25, seed=6,
                        victim_mode="stuck_at_max")
        res = run_outage_study(cfg, fractions=(0.0, 0.25), policy="exclude",
                               target_ber=3e-3)
        assert math.isfinite(res.baseline_snr_db)
        zero, quarter = res.points
        assert zero.penalty_db == pytest.approx(0.0, abs=1e-12)
        assert quarter.penalty_db > 0.0

    def test_baseline_must_cross_target(self):
        cfg = SimConfig(m=12, k=3, snr_db=(-20.0, -18.0), coded=False,
                        coherence_uses=128, frames=4, seed=6)
        with pytest.raises(RuntimeError, match="baseline"):
            run_outage_study(cfg, fractions=(0.1,), policy="exclude",
                             target_ber=1e-3)

    def test_every_run_is_checked_before_the_first(self, monkeypatch):
        # the 0.95 fraction excludes below k: nothing may run before that
        # is found, the fault-free baseline included
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before every config was "
                                 "checked")

        monkeypatch.setattr(sim, "_simulate_frames", no_run)
        cfg = SimConfig(m=16, k=2, snr_db=(0.0,), coded=False, frames=2)
        with pytest.raises(ValueError,
                           match="^fractions: 0.95: victim_fraction"):
            run_outage_study(cfg, fractions=(0.25, 0.95), policy="exclude",
                             target_ber=1e-3)
        with pytest.raises(ValueError, match="^target_ber:"):
            run_outage_study(cfg, fractions=(0.25,), policy="exclude",
                             target_ber=0.0)

    # uncoded: target 3e-2 is crossed by the baseline and by the 0.25
    # exclude run, not by the 0.25 ignore run (above_grid)
    _UNCODED = SimConfig(m=12, k=3, snr_db=(-8.0, -6.0, -4.0, -2.0, 0.0),
                         coded=False, coherence_uses=200, frames=10, seed=6)
    # coded: 3 runs x 4 points x 16 rows per frame, so each Viterbi call
    # of _DECODE_ROWS rows holds rows of every run
    _CODED = SimConfig(m=20, k=16, snr_db=(-8.0, -6.0, -4.0, -2.0),
                       coded=True, coherence_uses=16, frames=18, seed=3)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("policy", ["exclude", "ignore"])
    @pytest.mark.parametrize("cfg, fractions, target", [
        (_UNCODED, (0.0, 0.25), 3e-2), (_CODED, (0.0, 0.1), 5e-2)])
    def test_equals_separate_runs(self, cfg, fractions, target, policy,
                                  workers):
        # the one-pass study against one run_uplink_ber per config
        configs = outage_configs(cfg, fractions, policy, target)
        tables = [run_uplink_ber(c) for c in configs]
        assert sim._run_ber(configs, workers) == tuple(tables)
        base_snr, base_status = snr_at_ber(tables[0], target)
        assert base_status == "ok"
        points = []
        for frac, table in zip(fractions, tables[1:]):
            snr, status = snr_at_ber(table, target)
            penalty = snr - base_snr if status == "ok" else math.inf
            points.append(OutagePoint(frac, snr, penalty, status))
        assert run_outage_study(cfg, fractions, policy, target,
                                workers=workers) == OutageResult(
            target, policy, base_snr, tuple(points))

    def test_decode_batches_span_runs(self, monkeypatch):
        cfg = self._CODED
        runs_per_batch = []
        decode_queue = sim._decode_queue

        def recording_decode(queue, n_info, errors):
            runs_per_batch.append({run for run, *_ in queue})
            decode_queue(queue, n_info, errors)

        monkeypatch.setattr(sim, "_decode_queue", recording_decode)
        run_outage_study(cfg, (0.0, 0.1), "exclude", 5e-2)
        assert len(runs_per_batch) > 1
        assert all(runs == {0, 1, 2} for runs in runs_per_batch)

    def test_frame_data_is_built_once_per_frame(self, monkeypatch):
        # not once per frame and run: the baseline and every fraction
        # share each frame's channel, estimate, payload and noise
        calls = []
        frame_data = sim._frame_data

        def counting_frame_data(cfg, frame, const):
            calls.append(frame)
            return frame_data(cfg, frame, const)

        monkeypatch.setattr(sim, "_frame_data", counting_frame_data)
        cfg = self._UNCODED
        for policy in FAULT_POLICIES:
            calls.clear()
            run_outage_study(cfg, (0.0, 0.25), policy, 3e-2, workers=1)
            assert calls == list(range(cfg.frames))

    def test_rejects_unknown_policy(self):
        cfg = SimConfig(m=12, k=3, snr_db=(0.0,), frames=2)
        with pytest.raises(ValueError, match="policy"):
            run_outage_study(cfg, fractions=(0.1,), policy="amputate",
                             target_ber=1e-3)

    def test_policy_name_in_any_case(self):
        cfg = SimConfig(m=12, k=3, snr_db=(0.0,), frames=2)
        assert (outage_configs(cfg, (0.1,), "Exclude", 1e-2)
                == outage_configs(cfg, (0.1,), "exclude", 1e-2))
