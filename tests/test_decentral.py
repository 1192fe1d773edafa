import numpy as np
import pytest

from mimodsp.channel import draw_iid_rayleigh, gram, stream_rng
from mimodsp.decentral import (InterconnectConfig, aggregate,
                               interconnect_rate, local_gram, local_mf)


class TestPartition:
    def test_divisibility_enforced(self):
        g = np.ones((100, 2))
        with pytest.raises(ValueError):
            local_gram(g, 3)
        with pytest.raises(ValueError):
            local_mf(g, np.ones((100, 4)), 3)

    def test_positive_counts(self):
        for rows, groups in [(0, 1), (8, 0), (8, -2)]:
            with pytest.raises(ValueError):
                local_gram(np.ones((rows, 2)), groups)
            with pytest.raises(ValueError):
                local_mf(np.ones((rows, 2)), np.ones((rows, 3)), groups)

    def test_mf_row_counts_must_match(self):
        # both counts divide by 4; the blocks' product refuses the mismatch
        with pytest.raises(ValueError):
            local_mf(np.ones((64, 2)), np.ones((32, 3)), 4)

    def test_partials_in_group_order(self):
        g = np.arange(128.0)[:, None]
        parts = local_gram(g, 8)
        assert len(parts) == 8
        assert [p[0, 0] for p in parts] == [
            float(np.sum(np.arange(16.0 * b, 16.0 * (b + 1)) ** 2))
            for b in range(8)]


class TestDecentralizedEqualsCentralized:
    def test_gram_aggregation(self, master_seed):
        for t, (m, k, b) in enumerate([(64, 8, 4), (96, 12, 8), (128, 32, 2)]):
            g = draw_iid_rayleigh(m, k, stream_rng(master_seed, t))
            agg = aggregate(local_gram(g, b))
            ref = gram(g)
            assert np.linalg.norm(agg - ref) / np.linalg.norm(ref) < 1e-12

    def test_mf_aggregation(self, master_seed):
        m, k, b, n = 64, 8, 4, 6
        g = draw_iid_rayleigh(m, k, stream_rng(master_seed, 0))
        y = (stream_rng(master_seed, 1).standard_normal((m, n))
             + 1j * stream_rng(master_seed, 2).standard_normal((m, n)))
        agg = aggregate(local_mf(g, y, b))
        ref = np.conj(g.T) @ y
        assert np.linalg.norm(agg - ref) / np.linalg.norm(ref) < 1e-12

    def test_single_group_is_centralized(self, rng):
        g = draw_iid_rayleigh(16, 4, rng)
        agg = aggregate(local_gram(g, 1))
        assert np.allclose(agg, gram(g), atol=1e-13)


class TestInterconnect:
    def test_rate_formula_exact(self):
        cfg = InterconnectConfig(r_samp=30.72e6, n_data=1200, n_sub=2048,
                                 n_cp=144, w_bits=24, m=100)
        r_ofdm, r_total = interconnect_rate(cfg)
        assert r_ofdm == pytest.approx(30.72e6 * 1200 / (2048 + 144), rel=1e-12)
        assert r_total == pytest.approx(100 * 24 * r_ofdm, rel=1e-12)

    def test_linear_in_m_w_rsamp(self):
        base = InterconnectConfig(30.72e6, 1200, 2048, 144, 24, 100)
        _, t0 = interconnect_rate(base)
        _, t1 = interconnect_rate(InterconnectConfig(30.72e6, 1200, 2048, 144,
                                                     24, 200))
        _, t2 = interconnect_rate(InterconnectConfig(30.72e6, 1200, 2048, 144,
                                                     12, 100))
        _, t3 = interconnect_rate(InterconnectConfig(61.44e6, 1200, 2048, 144,
                                                     24, 100))
        assert t1 == pytest.approx(2 * t0)
        assert t2 == pytest.approx(t0 / 2)
        assert t3 == pytest.approx(2 * t0)

    def test_single_antenna(self):
        cfg = InterconnectConfig(1e6, 10, 16, 1, 8, 1)
        r_ofdm, r_total = interconnect_rate(cfg)
        assert r_total == pytest.approx(8 * r_ofdm)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterconnectConfig(1e6, 32, 16, 0, 8, 1)    # data > fft size
        with pytest.raises(ValueError):
            InterconnectConfig(0.0, 10, 16, 1, 8, 1)

    # NaN slipped through the positivity test, and an infinite or
    # overflowing rate reached the CSV as inf
    @pytest.mark.parametrize("r_samp", [float("nan"), float("inf"), 1e308])
    def test_non_finite_rate_refused(self, r_samp):
        with pytest.raises(ValueError):
            InterconnectConfig(r_samp=r_samp)
