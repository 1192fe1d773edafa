import numpy as np
import pytest

from mimodsp import _openblas
from mimodsp.channel import draw_iid_rayleigh, gram, stream_rng
from mimodsp.equalization import (N0_FREE_DETECTORS, NsaDivergenceWarning,
                                  build_uplink_detector, combiner_exact,
                                  fit_wnsa_weights, nsa_inverse, precode,
                                  wnsa_inverse)
from mimodsp.numerics import FixedPointFormat, FxpOverlay, qrd


def _chan(rng, m=64, k=8):
    return draw_iid_rayleigh(m, k, rng)


class TestExactCombiners:
    def test_zf_inverts_channel(self, rng):
        g = _chan(rng)
        a = combiner_exact(g, "zf")
        assert np.allclose(np.conj(a.T) @ g, np.eye(8), atol=1e-10)

    def test_unit_gain_normalization(self, rng):
        g = _chan(rng)
        for method, nv in (("mr", 0.0), ("zf", 0.0), ("mmse", 0.1)):
            a = combiner_exact(g, method, nv)
            gains = np.diag(np.conj(a.T) @ g)
            assert np.allclose(gains, 1.0, atol=1e-10), method

    def test_mmse_direction(self, rng):
        # columns proportional to (Z + N0 I)^-1 G^H rows
        g = _chan(rng, 16, 4)
        nv = 0.5
        a = combiner_exact(g, "mmse", nv)
        raw = np.linalg.inv(gram(g) + nv * np.eye(4)) @ np.conj(g.T)
        for k in range(4):
            ratio = raw[k] / np.conj(a[:, k])
            assert np.allclose(ratio, ratio[0], atol=1e-8)

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            combiner_exact(_chan(rng), "dirty")


class TestPrecode:
    def test_sum_power_constraint(self, rng):
        g = _chan(rng, 32, 6)
        for method in ("mr", "zf"):
            a = precode(g, method)
            assert np.linalg.norm(a) ** 2 == pytest.approx(1.0)

    def test_equal_user_gains(self, rng):
        g = _chan(rng, 32, 6)
        a = precode(g, "zf")
        gains = np.diag(g.T @ a)
        assert np.allclose(gains, gains[0], atol=1e-10)
        assert gains[0].real > 0

    def test_zf_removes_crosstalk(self, rng):
        g = _chan(rng, 32, 6)
        eff = g.T @ precode(g, "zf")
        off = eff - np.diag(np.diag(eff))
        assert np.max(np.abs(off)) < 1e-10

    def test_single_user_mr_closed_form(self, rng):
        g = _chan(rng, 16, 1)
        a = precode(g, "mr")
        expected = np.conj(g) / np.linalg.norm(g)
        assert np.allclose(a, expected, atol=1e-12)


class TestNsa:
    def test_order_zero_is_diagonal_inverse(self, rng):
        z = gram(_chan(rng, 128, 8))
        approx = nsa_inverse(z, 0)
        assert np.allclose(approx, np.diag(1.0 / np.diag(z).real), atol=1e-12)

    def test_truncation_error_identity(self, rng):
        # residual I - Zhat^-1 Z equals the (L+1)th power of the iteration
        # matrix exactly, for every truncation order
        z = gram(_chan(rng, 128, 8))
        x = np.eye(8) - np.diag(1.0 / np.diag(z).real) @ z
        for order in (1, 2, 3, 5):
            approx = nsa_inverse(z, order)
            resid = np.eye(8) - approx @ z
            assert np.allclose(resid, np.linalg.matrix_power(x, order + 1),
                               atol=1e-10)

    def test_error_shrinks_with_order(self, rng):
        z = gram(_chan(rng, 128, 8))
        errs = [np.linalg.norm(nsa_inverse(z, o) @ z - np.eye(8))
                for o in (0, 2, 4, 8)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_order_bounds(self):
        z = 4.0 * np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            nsa_inverse(z, 11)
        with pytest.raises(ValueError):
            nsa_inverse(z, -1)

    def test_divergence_warning_when_crowded(self, master_seed):
        z = gram(draw_iid_rayleigh(16, 16, stream_rng(master_seed)))
        with pytest.warns(NsaDivergenceWarning):
            nsa_inverse(z, 3)

    @pytest.mark.parametrize("m, k, frame", [(100, 25, 1746), (128, 32, 1395)])
    def test_divergence_warning_just_above_one(self, m, k, frame):
        # iteration radius 1.0046 and 1.0012, just above one
        z = gram(draw_iid_rayleigh(m, k, stream_rng(77, frame, m, k)))
        with pytest.warns(NsaDivergenceWarning):
            nsa_inverse(z, 3)


class TestWnsa:
    def test_scaled_identity_recovered(self):
        z = 4.0 * np.eye(5, dtype=complex)
        weights = fit_wnsa_weights(z, order=3)
        assert np.allclose(wnsa_inverse(z, weights), np.eye(5) / 4.0,
                           atol=1e-10)

    @pytest.mark.filterwarnings(
        "ignore::mimodsp.equalization.NsaDivergenceWarning")
    def test_beats_plain_nsa_median(self, master_seed):
        errs_nsa, errs_wnsa = [], []
        for t in range(20):
            z = gram(draw_iid_rayleigh(64, 16, stream_rng(master_seed, t)))
            i = np.eye(16)
            errs_nsa.append(np.linalg.norm(nsa_inverse(z, 3) @ z - i))
            weights = fit_wnsa_weights(z, 3)
            errs_wnsa.append(np.linalg.norm(wnsa_inverse(z, weights) @ z - i))
        assert np.median(errs_wnsa) < np.median(errs_nsa)

    def test_weight_count(self, rng):
        z = gram(_chan(rng, 64, 8))
        weights = fit_wnsa_weights(z, order=4)
        assert len(weights) == 5


def _sim_problem(rng, m=64, k=8, n=6, nv=0.05):
    g = _chan(rng, m, k)
    x = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    x /= np.sqrt(2.0)
    w = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    y = g @ x + np.sqrt(nv / 2.0) * w
    return g, x, y


def _mmse_solution(g, y, nv):
    k = g.shape[1]
    return np.linalg.solve(gram(g) + nv * np.eye(k), np.conj(g.T) @ y)


def _objective(g, y, x, nv):
    r = y - g @ x
    return np.sum(np.abs(r) ** 2, axis=0) + nv * np.sum(np.abs(x) ** 2, axis=0)


def _cd_out_of_place(det, y):
    """cd as it was before the in-place residual update: each update rounds
    a freshly computed ``rbar - outer(g_i, delta) / agc``."""
    ov, gq = det.overlay, det._state["gq"]
    inv_energy = det._state["inv_energy"]
    agc = float(np.sqrt(np.mean(np.abs(y) ** 2))) or 1.0
    rbar = ov.q_signal(y / agc)
    xhat = np.zeros((gq.shape[1], y.shape[1]), dtype=complex)
    for _ in range(det.cd_sweeps):
        for i in range(gq.shape[1]):
            corr = np.conj(gq[:, i]) @ rbar * agc - det.noise_var * xhat[i, :]
            delta = ov.q_signal(corr * inv_energy[i])
            xhat[i, :] = ov.q_signal(xhat[i, :] + delta)
            rbar = ov.q_signal(rbar - np.outer(gq[:, i], delta) / agc)
    return xhat


_CD_OVERLAYS = {
    "float": None,
    "8/8": FxpOverlay.from_fraction_bits(8, 8),
    # range +-1.75: the residual itself saturates
    "2-bit signal": FxpOverlay(FixedPointFormat(4, 2),
                               FixedPointFormat.for_unit_range(8)),
}
_CD_FORMATS = {**{f"{b}/{b}": FxpOverlay.from_fraction_bits(b, b)
                  for b in (4, 8, 12)},
               "2-bit signal": _CD_OVERLAYS["2-bit signal"]}
_CD_SHAPES = ((16, 4, 32), (32, 8, 64), (64, 8, 128), (100, 10, 50),
              (128, 16, 96))


def _cd_draw(m, k, n, seed):
    """Detector input of one draw; odd seeds send symbols at 6x unit power,
    which push the estimates past +-8, where every format here saturates."""
    rng = np.random.default_rng([seed, m, k, n])
    g, x, _ = _sim_problem(rng, m, k, n)
    noise = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return g, g @ ((1.0, 6.0)[seed % 2] * x) + 0.3 * noise


def _assert_float_cd_close(out, ref):
    # the rank-1 update rounds (g s) delta where the reference rounds
    # (g delta) / agc: about one ulp of the largest entry per update, and
    # the sweeps do not amplify it; 200 draws at 32x8x64 stayed under
    # 3.3e-16 of max|ref|, so 1e-13 leaves two orders of magnitude
    np.testing.assert_allclose(out, ref, rtol=0,
                               atol=1e-13 * np.max(np.abs(ref)))


class TestCd:
    @pytest.mark.parametrize("overlay", _CD_OVERLAYS.values(),
                             ids=_CD_OVERLAYS.keys())
    def test_in_place_update_matches_out_of_place(self, rng, overlay):
        # symbols at 6x unit power push the estimates past +-8, so the
        # 8-bit formats saturate as well
        g, x, _ = _sim_problem(rng, m=32, k=8, n=64)
        y = g @ (6.0 * x) + 0.3 * (rng.standard_normal((32, 64))
                                   + 1j * rng.standard_normal((32, 64)))
        det = build_uplink_detector(g, "cd", 0.1, overlay=overlay)
        if overlay is not None:
            agc = np.sqrt(np.mean(np.abs(y) ** 2))
            est = build_uplink_detector(g, "cd", 0.1).detect(y)
            reach = max(np.max(np.abs((y / agc).view(float))),
                        np.max(np.abs(est.view(float))))
            fmt = overlay.signal
            assert reach > (2 ** (fmt.total_bits - 1) - 1) * fmt.step
            assert np.array_equal(det.detect(y), _cd_out_of_place(det, y))
        else:
            _assert_float_cd_close(det.detect(y), _cd_out_of_place(det, y))

    @pytest.mark.parametrize("shape", _CD_SHAPES, ids=str)
    @pytest.mark.parametrize("overlay", _CD_FORMATS.values(),
                             ids=_CD_FORMATS.keys())
    def test_overlay_update_is_exact_on_many_draws(self, overlay, shape):
        # 4 formats x 5 shapes x 6 seeds = 120 draws at 1 to 3 sweeps: the
        # residual in signal steps, updated by one rank-1 update, rounds
        # to the same steps as the scale-then-subtract update
        for seed in range(6):
            g, y = _cd_draw(*shape, seed)
            det = build_uplink_detector(g, "cd", 0.1, overlay=overlay,
                                        cd_sweeps=1 + seed % 3)
            assert np.array_equal(det.detect(y), _cd_out_of_place(det, y))

    @pytest.mark.parametrize("overlay", _CD_OVERLAYS.values(),
                             ids=_CD_OVERLAYS.keys())
    def test_numpy_fallback_gives_the_same_estimates(self, overlay,
                                                     monkeypatch):
        draws = [_cd_draw(*shape, seed) for shape in _CD_SHAPES[:3]
                 for seed in range(2)]
        with_blas = [build_uplink_detector(g, "cd", 0.1, overlay=overlay)
                     .detect(y) for g, y in draws]
        monkeypatch.setattr(_openblas, "_zgeru", lambda: None)
        for (g, y), ref in zip(draws, with_blas):
            det = build_uplink_detector(g, "cd", 0.1, overlay=overlay)
            out = det.detect(y)
            if overlay is None:
                _assert_float_cd_close(out, ref)
                _assert_float_cd_close(out, _cd_out_of_place(det, y))
            else:
                assert np.array_equal(out, ref)
                assert np.array_equal(out, _cd_out_of_place(det, y))

    def test_converges_to_regularized_solution(self, rng):
        g, _, y = _sim_problem(rng)
        nv = 0.05
        xhat = build_uplink_detector(g, "cd", nv, cd_sweeps=200).detect(y)
        assert np.allclose(xhat, _mmse_solution(g, y, nv), atol=1e-8)

    def test_objective_never_increases(self, rng):
        # every coordinate update is an exact minimizer, so the objective
        # cannot rise after any single update in double precision
        g, _, y = _sim_problem(rng)
        nv = 0.1
        det = build_uplink_detector(g, "cd", nv, cd_sweeps=6)
        prev = np.sum(np.abs(y) ** 2, axis=0)      # the objective at x = 0
        updates = 0
        for xhat in det._cd_updates(y):
            cur = _objective(g, y, xhat, nv)
            assert np.all(cur <= prev * (1 + 1e-9) + 1e-12)
            prev = cur
            updates += 1
        assert updates == 6 * g.shape[1]

    def test_more_sweeps_reduce_error(self, rng):
        g, _, y = _sim_problem(rng)
        nv = 0.05
        ref = _mmse_solution(g, y, nv)
        e1 = np.linalg.norm(
            build_uplink_detector(g, "cd", nv, cd_sweeps=1).detect(y) - ref)
        e3 = np.linalg.norm(
            build_uplink_detector(g, "cd", nv, cd_sweeps=3).detect(y) - ref)
        assert e3 < e1

    def test_requires_positive_noise(self, rng):
        g, _, y = _sim_problem(rng)
        with pytest.raises(ValueError, match="noise variance"):
            build_uplink_detector(g, "cd", 0.0)


class TestChd:
    def test_zf_matches_pinv(self, rng):
        g, _, y = _sim_problem(rng)
        xhat = build_uplink_detector(g, "chd", 0.0).detect(y)
        assert np.allclose(xhat, np.linalg.pinv(g) @ y, atol=1e-9)

    def test_mmse_matches_closed_form(self, rng):
        g, _, y = _sim_problem(rng)
        nv = 0.2
        xhat = build_uplink_detector(g, "chd", nv).detect(y)
        assert np.allclose(xhat, _mmse_solution(g, y, nv), atol=1e-9)


class TestMqrd:
    def test_close_to_exact_when_dominant(self, rng):
        g, _, y = _sim_problem(rng, m=256, k=8)
        det = build_uplink_detector(g, "mqrd", 0.0)
        ref = np.linalg.pinv(g) @ y
        rel = np.linalg.norm(det.detect(y) - ref) / np.linalg.norm(ref)
        assert rel < 0.05
        assert det.reconstruction_error >= 0.0

    def test_reports_larger_error_when_crowded(self, master_seed):
        r = stream_rng(master_seed)

        def error(m, k):
            g = _chan(np.random.default_rng(r.integers(2**31)), m, k)
            return build_uplink_detector(g, "mqrd", 0.0).reconstruction_error

        wide = error(256, 8)
        assert error(32, 16) > wide


class TestUplinkDetector:
    @pytest.mark.parametrize("method", ["mr", "zf", "mmse", "chd", "cd",
                                        "nsa", "wnsa", "mqrd"])
    def test_detect_matches_one_shot(self, rng, method):
        g, _, y = _sim_problem(rng)
        nv = 0.05
        det = build_uplink_detector(g, method, nv)
        out = det.detect(y)
        assert out.shape == (8, 6)
        if method in ("mr", "zf", "mmse"):
            ref = np.conj(combiner_exact(g, method, nv).T) @ y
            assert np.allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("method", N0_FREE_DETECTORS)
    def test_n0_free_build_ignores_noise_var(self, rng, method):
        # the simulator builds these once per frame for every SNR point
        g, _, y = _sim_problem(rng)
        a = build_uplink_detector(g, method, 0.05).detect(y)
        b = build_uplink_detector(g, method, 3.0).detect(y)
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_nsa_solves_regularized_system(self, rng):
        # high order makes the truncated series an exact regularized solve
        g, _, y = _sim_problem(rng, m=256, k=8)
        nv = 0.1
        det = build_uplink_detector(g, "nsa", nv, nsa_order=10)
        assert np.allclose(det.detect(y), _mmse_solution(g, y, nv), atol=1e-4)

    def test_overlay_changes_output(self, rng):
        g, _, y = _sim_problem(rng)
        ov = FxpOverlay.from_fraction_bits(6, 6)
        a = build_uplink_detector(g, "chd", 0.05).detect(y)
        b = build_uplink_detector(g, "chd", 0.05, overlay=ov).detect(y)
        assert not np.allclose(a, b)
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.2

    def test_unknown_method(self, rng):
        g = _chan(rng)
        with pytest.raises(ValueError):
            build_uplink_detector(g, "magic", 0.1)

    @pytest.mark.parametrize("method, kwargs", [
        ("cd", {"cd_sweeps": 0}),
        ("nsa", {"nsa_order": -1}),
        ("nsa", {"nsa_order": 11}),
    ], ids=["cd_sweeps_0", "nsa_order_-1", "nsa_order_11"])
    def test_rejects_out_of_range_parameters(self, method, kwargs):
        g = draw_iid_rayleigh(16, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_uplink_detector(g, method, 0.1, **kwargs)

    def test_mqrd_keeps_reconstruction_error(self, rng):
        g, _, y = _sim_problem(rng)
        nv = 0.05
        det = build_uplink_detector(g, "mqrd", nv)
        zbar = (np.conj(g.T) @ g + nv * np.eye(8)) / g.shape[0]
        want = qrd(zbar, mode="modified").reconstruction_error
        assert det.reconstruction_error == want
        assert build_uplink_detector(g, "chd", nv).reconstruction_error is None

    def test_state_is_not_an_argument(self, rng):
        g, _, _ = _sim_problem(rng)
        with pytest.raises(TypeError):
            build_uplink_detector(g, "zf", 0.0, _state={})
