import numpy as np
import pytest

from mimodsp.channel import draw_iid_rayleigh, stream_rng
from mimodsp.equalization import precode
from mimodsp.impairments import (EVM_FLOOR_DB, FAULT_MODES, MUI_FLOOR_DB,
                                 CircuitErrorModel, FrontEndSet, PaModel,
                                 build_nonreciprocal, calibrate,
                                 draw_front_end_set, draw_victims, evm_db,
                                 inject_errors, mui_db, pa_apply,
                                 quantize_adc, stick_victims)


class TestPaModel:
    def test_compression_point_definition(self):
        pa = PaModel.from_compression_point(a_1db=0.8, alpha1=2.0)
        out = pa_apply(np.array([0.8 + 0.0j]), pa)
        # gain at the compression point is 1 dB below the linear gain
        assert abs(out[0]) == pytest.approx(2.0 * 0.8 * 10 ** (-1 / 20), rel=1e-12)

    def test_linear_model_passthrough(self, rng):
        pa = PaModel(alpha1=1.5)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.allclose(pa_apply(x, pa), 1.5 * x)

    def test_phase_preserved(self, rng):
        pa = PaModel.from_compression_point(1.0)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 64)) * rng.uniform(0.1, 2.0, 64)
        y = pa_apply(x, pa)
        assert np.allclose(np.angle(y), np.angle(x), atol=1e-12)

    def test_saturation_clamps(self):
        pa = PaModel.from_compression_point(1.0)
        hi = pa_apply(np.array([100.0 + 0.0j]), pa)
        at_sat = pa_apply(np.array([pa.a_in_sat + 0.0j]), pa)
        assert abs(hi[0]) == pytest.approx(abs(at_sat[0]), rel=1e-12)

    @pytest.mark.parametrize("kwargs, key", [
        (dict(a_1db=float("nan")), "a_1db"),
        (dict(a_1db=-1.0), "a_1db"),
        (dict(a_1db=1.0, alpha1=float("nan")), "alpha1"),
        (dict(a_1db=1.0, alpha1=complex("inf")), "alpha1"),
    ], ids=["nan_a_1db", "negative_a_1db", "nan_alpha1", "inf_alpha1"])
    def test_refused_argument_is_named(self, kwargs, key):
        with pytest.raises(ValueError, match=f" {key} must be "):
            PaModel.from_compression_point(**kwargs)

    def test_monotone_below_saturation(self):
        pa = PaModel.from_compression_point(1.0)
        amps = np.linspace(0.01, pa.a_in_sat, 100)
        outs = np.abs(pa_apply(amps.astype(complex), pa))
        assert np.all(np.diff(outs) > 0)


class TestEvm:
    def test_perfect_signal_hits_floor(self, rng):
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert evm_db(x, 3.3 * x) == EVM_FLOOR_DB

    def test_gain_invariance(self, rng):
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        e = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        y = x + 0.01 * e
        assert evm_db(x, y) == pytest.approx(evm_db(x, 5j * y), abs=1e-9)

    def test_known_error_ratio(self, rng):
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        n = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        # project out the component the gain fit would absorb
        e = n - (np.vdot(x, n) / np.vdot(x, x)) * x
        e *= 0.1 * np.linalg.norm(x) / np.linalg.norm(e)
        assert evm_db(x, x + e) == pytest.approx(-20.0, abs=0.05)


class TestAdc:
    def test_one_bit_unit_power(self, rng):
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        q = quantize_adc(y, 1)
        assert np.allclose(np.abs(q) ** 2, 1.0)
        assert np.array_equal(np.sign(q.real), np.sign(y.real))

    def test_high_resolution_small_error(self, rng):
        # unit modulus: every axis stays within 1.41x its RMS, inside the
        # 3x RMS full scale, so nothing clips and only rounding is left
        y = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2000))
        q = quantize_adc(y, 12)
        err = np.mean(np.abs(q - y) ** 2) / np.mean(np.abs(y) ** 2)
        assert err < 1e-5

    def test_default_scale_clips_mildly(self, rng):
        y = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        q = quantize_adc(y, 12)
        err = np.mean(np.abs(q - y) ** 2) / np.mean(np.abs(y) ** 2)
        assert err < 1e-3

    def test_mid_rise_never_outputs_zero(self, rng):
        y = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        y[::3] = 0.0
        y[1::3] *= 1e-6
        q = quantize_adc(y, 4)
        assert np.all(q.real != 0) and np.all(q.imag != 0)

    def test_clipping_at_scale(self):
        # two outliers among 62 small samples lie past the 3x RMS scale
        y = np.concatenate([[100.0 + 100.0j, -100.0 - 100.0j],
                            np.full(62, 0.1 + 0.1j)])
        q = quantize_adc(y, 4)
        step = 3.0 * np.sqrt(np.mean(np.abs(y) ** 2) / 2.0) / 8
        assert 100.0 > 8 * step
        assert q[0].real == q[0].imag == pytest.approx((7 + 0.5) * step)
        assert q[1].real == pytest.approx((-8 + 0.5) * step)

    def test_bussgang_distortion_power_quick(self, master_seed):
        r = stream_rng(master_seed)
        y = (r.standard_normal(100000) + 1j * r.standard_normal(100000))
        y /= np.sqrt(2.0)
        q = quantize_adc(y, 1)
        # distortion power of the sign quantizer on CN(0,1) input
        alpha = np.vdot(y, q) / np.vdot(y, y)
        dist = q - alpha * y
        ratio = np.mean(np.abs(dist) ** 2) / np.abs(alpha) ** 2
        assert ratio == pytest.approx(np.pi / 2 - 1, rel=0.05)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            quantize_adc(np.ones(4, dtype=complex), 0)
        with pytest.raises(ValueError, match="no power"):
            quantize_adc(np.zeros(4, dtype=complex), 4)

    # 1025 bits used to overflow; from 54 bits a double misses levels
    def test_bits_at_the_bound(self, rng):
        y = np.exp(2j * np.pi * rng.random(64))    # inside full scale
        assert np.allclose(quantize_adc(y, 53), y, rtol=0, atol=1e-15)
        for bits in (54, 1025):
            with pytest.raises(ValueError, match="^bits: must be at most 53"):
                quantize_adc(y, bits)


class TestFrontEnds:
    def test_draw_within_bounds(self, rng):
        fe = draw_front_end_set(64, 8, 1.0, 5.0, rng)
        for resp in (fe.r_bs, fe.t_bs, fe.r_ue, fe.t_ue):
            gains_db = 20 * np.log10(np.abs(resp))
            assert np.all(np.abs(gains_db) <= 1.0 + 1e-9)
            assert np.all(np.abs(np.angle(resp)) <= np.deg2rad(5.0) + 1e-9)

    def test_shapes(self, rng):
        fe = draw_front_end_set(16, 4, rng=rng)
        assert fe.m == 16 and fe.k == 4

    # a negative bound used to raise numpy's "high - low < 0"
    @pytest.mark.parametrize("gain, phase, error", [
        (-1.0, 5.0, "^gain_bound_db: must be at least 0.0, got -1.0$"),
        (20.5, 5.0, "^gain_bound_db: must be at most 20.0, got 20.5$"),
        (np.nan, 5.0, "^gain_bound_db: must be at least 0.0, got nan$"),
        (1.0, -1.0, "^phase_bound_deg: must be at least 0.0, got -1.0$"),
        (1.0, 181.0, "^phase_bound_deg: must be at most 180.0, got 181.0$"),
        (-1.0, np.inf, "^gain_bound_db: .*; phase_bound_deg: must be at "
                       "most 180.0, got inf$"),
    ], ids=["gain_negative", "gain_above", "gain_nan", "phase_negative",
            "phase_above", "both"])
    def test_bounds_outside_their_ranges(self, gain, phase, error):
        with pytest.raises(ValueError, match=error):
            draw_front_end_set(4, 2, gain, phase, 0)

    def test_bounds_at_their_ends_run(self, rng):
        for gain, phase in ((0.0, 0.0), (20.0, 180.0)):
            fe = draw_front_end_set(4, 2, gain, phase, rng)
            gains_db = 20 * np.log10(np.abs(fe.r_bs))
            assert np.all(np.abs(gains_db) <= gain + 1e-9)

    def test_nonreciprocal_shapes_and_mismatch(self, rng):
        g = draw_iid_rayleigh(16, 4, rng)
        fe = draw_front_end_set(16, 4, rng=rng)
        ul, dl = build_nonreciprocal(g, fe)
        assert ul.shape == dl.shape == (16, 4)
        assert not np.allclose(ul, dl)

    def test_reciprocal_when_responses_match(self, rng):
        g = draw_iid_rayleigh(16, 4, rng)
        ones_m, ones_k = np.ones(16, complex), np.ones(4, complex)
        fe = FrontEndSet(r_bs=ones_m, t_bs=ones_m, r_ue=ones_k, t_ue=ones_k)
        ul, dl = build_nonreciprocal(g, fe)
        assert np.array_equal(ul, dl)

    def test_dimension_mismatch(self, rng):
        fe = draw_front_end_set(16, 4, rng=rng)
        with pytest.raises(ValueError):
            build_nonreciprocal(draw_iid_rayleigh(8, 4, rng), fe)


class TestMui:
    def test_diagonal_hits_floor(self):
        assert mui_db(np.diag([1.0, 2.0]).astype(complex)) == MUI_FLOOR_DB

    def test_known_ratio(self):
        eff = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
        assert mui_db(eff) == pytest.approx(10 * np.log10(0.01 / 2.0), abs=1e-9)


class TestCalibration:
    def test_genie_weights_restore_reciprocity(self, rng):
        g = draw_iid_rayleigh(16, 4, rng)
        fe = draw_front_end_set(16, 4, rng=rng)
        ul, dl = build_nonreciprocal(g, fe)
        w = calibrate(fe)
        a = precode(w[:, None] * ul, "zf")
        assert mui_db(dl.T @ a) < -200.0

    def test_residual_error_tracks_target(self, master_seed):
        # -40 dB residual leaves MUI in the -40 dB neighborhood
        vals = []
        for t in range(50):
            g = draw_iid_rayleigh(16, 8, stream_rng(master_seed, t, 0))
            fe = draw_front_end_set(16, 8, rng=stream_rng(master_seed, t, 1))
            ul, dl = build_nonreciprocal(g, fe)
            w = calibrate(fe, residual_error_db=-40.0,
                          rng=stream_rng(master_seed, t, 2))
            a = precode(w[:, None] * ul, "zf")
            vals.append(mui_db(dl.T @ a))
        med = np.median(vals)
        assert -50.0 < med < -32.0

    def test_zero_receive_response_rejected(self):
        fe = FrontEndSet(r_bs=np.zeros(2, complex), t_bs=np.ones(2, complex),
                         r_ue=np.ones(1, complex), t_ue=np.ones(1, complex))
        with pytest.raises(ValueError):
            calibrate(fe)


class TestCircuitErrors:
    def test_victim_count_rounds_fraction(self, rng):
        assert draw_victims(100, 0.1, rng).size == 10
        assert draw_victims(64, 0.05, rng).size == 3
        assert draw_victims(10, 0.0, rng).size == 0

    def test_victims_sorted_and_deterministic(self):
        a = draw_victims(50, 0.2, stream_rng(5))
        b = draw_victims(50, 0.2, stream_rng(5))
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_stuck_at_max_value(self, rng):
        y = rng.standard_normal((20, 8)) + 1j * rng.standard_normal((20, 8))
        err = CircuitErrorModel(victim_fraction=0.25, mode="stuck_at_max")
        out, victims = inject_errors(y, err, rng)
        assert victims.size == 5
        rms = np.sqrt(np.mean(np.abs(y) ** 2))
        assert np.allclose(out[victims], 3.0 * rms * (1 + 1j) / np.sqrt(2))
        mask = np.ones(20, bool)
        mask[victims] = False
        assert np.array_equal(out[mask], y[mask])

    def test_default_full_scale_is_three_rms(self, rng):
        y = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        err = CircuitErrorModel(victim_fraction=0.1, mode="stuck_at_max")
        out, victims = inject_errors(y, err, rng)
        rms = np.sqrt(np.mean(np.abs(y) ** 2))
        assert abs(out[victims][0]) == pytest.approx(3.0 * rms)

    def test_stuck_at_value(self, rng):
        y = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        err = CircuitErrorModel(victim_fraction=0.2, mode="stuck_at_value")
        out, victims = inject_errors(y, err, rng)
        assert victims.size == 2
        assert np.array_equal(out[victims], np.zeros((2, 3), complex))

    @pytest.mark.parametrize("mode", FAULT_MODES)
    @pytest.mark.parametrize("shape", [(12,), (12, 5)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stick_in_place_equals_inject(self, mode, shape, order):
        # one stuck level: inject_errors is stick_victims on a copy
        y = np.asarray(stream_rng(3).standard_normal(shape) + 2j,
                       order=order)
        out, victims = inject_errors(y, CircuitErrorModel(0.25, mode),
                                     stream_rng(4))
        stuck = y.copy(order="K")
        stick_victims(stuck, victims, mode)
        assert victims.size == 3
        assert np.array_equal(stuck, out)
        assert out.dtype == complex and not np.array_equal(out, y)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CircuitErrorModel(victim_fraction=1.5)
        with pytest.raises(ValueError):
            CircuitErrorModel(victim_fraction=0.1, mode="meteor")
        with pytest.raises(ValueError, match="^mode: unknown 'transient'"):
            CircuitErrorModel(victim_fraction=0.1, mode="transient")

    # an unknown mode, or a known one not in lower case, used to stick the
    # rows at zero
    def test_mode_in_any_case(self, rng):
        y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        victims = np.array([1, 4])
        for mode in FAULT_MODES:
            lower, mixed = y.copy(), y.copy()
            stick_victims(lower, victims, mode)
            stick_victims(mixed, victims, mode.title())
            assert np.array_equal(lower, mixed)
            out, _ = inject_errors(y, CircuitErrorModel(0.25, mode.upper()),
                                   stream_rng(4))
            assert np.array_equal(out, inject_errors(
                y, CircuitErrorModel(0.25, mode), stream_rng(4))[0])
        with pytest.raises(ValueError, match="^mode: unknown 'bogus'"):
            stick_victims(y.copy(), victims, "bogus")

