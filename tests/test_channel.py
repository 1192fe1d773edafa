import numpy as np
import pytest

from mimodsp.channel import (diag_dominance, draw_iid_rayleigh, estimate_ls,
                             gram, hardening_variance, stream_rng)


class TestStreamRng:
    def test_reproducible(self):
        a = stream_rng(42, 1, 2).standard_normal(8)
        b = stream_rng(42, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_paths_independent(self):
        a = stream_rng(42, 1, 2).standard_normal(8)
        b = stream_rng(42, 1, 3).standard_normal(8)
        c = stream_rng(43, 1, 2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_path_not_order_dependent(self):
        # drawing stream (0,) first must not change stream (1,)
        first = stream_rng(7, 1).standard_normal(4)
        _ = stream_rng(7, 0).standard_normal(100)
        again = stream_rng(7, 1).standard_normal(4)
        assert np.array_equal(first, again)


class TestRayleigh:
    def test_shape_and_dtype(self, rng):
        g = draw_iid_rayleigh(16, 4, rng)
        assert g.shape == (16, 4)
        assert np.iscomplexobj(g)

    def test_unit_variance(self, master_seed):
        g = draw_iid_rayleigh(500, 200, stream_rng(master_seed))
        power = np.mean(np.abs(g) ** 2)
        assert power == pytest.approx(1.0, rel=0.02)
        # circular symmetry: equal power per axis, uncorrelated axes
        assert np.mean(g.real ** 2) == pytest.approx(0.5, rel=0.03)
        assert abs(np.mean(g.real * g.imag)) < 0.01


class TestEstimateLs:
    def test_perfect_pilots_return_copy(self, rng):
        g = draw_iid_rayleigh(8, 3, rng)
        g_hat = estimate_ls(g, np.inf, rng)
        assert np.array_equal(g_hat, g)
        assert g_hat is not g

    def test_error_power_matches_snr(self, master_seed):
        g = draw_iid_rayleigh(400, 16, stream_rng(master_seed, 0))
        snr_db = 10.0
        g_hat = estimate_ls(g, snr_db, stream_rng(master_seed, 1))
        err = np.mean(np.abs(g_hat - g) ** 2)
        assert err == pytest.approx(10.0 ** (-snr_db / 10.0), rel=0.05)

    def test_estimate_unbiased(self, master_seed):
        g = np.ones((200, 4), dtype=complex)
        acc = np.zeros_like(g)
        for t in range(50):
            acc += estimate_ls(g, 0.0, stream_rng(master_seed, t))
        # grand mean over 800 entries and 50 draws pins the bias tightly
        assert abs(np.mean(acc / 50) - 1.0) < 0.03


class TestGram:
    def test_hermitian_psd(self, rng):
        g = draw_iid_rayleigh(32, 8, rng)
        z = gram(g)
        assert z.shape == (8, 8)
        assert np.allclose(z, np.conj(z.T))
        assert np.min(np.linalg.eigvalsh(z)) > 0

    def test_matches_definition(self, rng):
        g = draw_iid_rayleigh(5, 3, rng)
        assert np.allclose(gram(g), np.conj(g.T) @ g)


class TestDiagDominance:
    def test_single_user_is_zero(self, rng):
        z = gram(draw_iid_rayleigh(16, 1, rng))
        assert diag_dominance(z) == 0.0

    def test_orthogonal_columns(self):
        z = np.diag([2.0, 3.0]).astype(complex)
        assert diag_dominance(z) == 0.0

    def test_known_value(self):
        z = np.array([[4.0, 1.0], [1.0, 2.0]], dtype=complex)
        assert diag_dominance(z) == pytest.approx(0.5)

    def test_shrinks_with_antennas(self, master_seed):
        small = np.median([diag_dominance(gram(draw_iid_rayleigh(
            16, 8, stream_rng(master_seed, 0, t)))) for t in range(20)])
        large = np.median([diag_dominance(gram(draw_iid_rayleigh(
            256, 8, stream_rng(master_seed, 1, t)))) for t in range(20)])
        assert large < small


class TestHardening:
    def test_variance_scales_inverse_m(self, master_seed):
        for m in (10, 100):
            var = hardening_variance(m, 4000, stream_rng(master_seed, m))
            assert var == pytest.approx(1.0 / m, rel=0.15)
