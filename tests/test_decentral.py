import numpy as np
import pytest

from mimodsp.channel import draw_iid_rayleigh, gram, stream_rng
from mimodsp.decentral import (GroupPartition, InterconnectConfig,
                               aggregate_gram, aggregate_mf,
                               interconnect_rate, local_gram, local_mf,
                               partition, split_rows)


class TestPartition:
    def test_properties(self):
        p = partition(128, 8)
        assert p.c == 16
        chunks = [np.arange(128)[p.rows(g)] for g in range(8)]
        assert all(len(c) == 16 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), np.arange(128))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            partition(100, 3)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            partition(0, 1)


class TestDecentralizedEqualsCentralized:
    def test_gram_aggregation(self, master_seed):
        for t, (m, k, b) in enumerate([(64, 8, 4), (96, 12, 8), (128, 32, 2)]):
            g = draw_iid_rayleigh(m, k, stream_rng(master_seed, t))
            agg = aggregate_gram(local_gram(g, partition(m, b)))
            ref = gram(g)
            assert np.linalg.norm(agg - ref) / np.linalg.norm(ref) < 1e-12

    def test_mf_aggregation(self, master_seed):
        m, k, b, n = 64, 8, 4, 6
        g = draw_iid_rayleigh(m, k, stream_rng(master_seed, 0))
        y = (stream_rng(master_seed, 1).standard_normal((m, n))
             + 1j * stream_rng(master_seed, 2).standard_normal((m, n)))
        p = partition(m, b)
        agg = aggregate_mf([local_mf(gg, yy)
                            for gg, yy in zip(split_rows(g, p),
                                              split_rows(y, p))])
        ref = np.conj(g.T) @ y
        assert np.linalg.norm(agg - ref) / np.linalg.norm(ref) < 1e-12

    def test_single_group_is_centralized(self, rng):
        g = draw_iid_rayleigh(16, 4, rng)
        agg = aggregate_gram(local_gram(g, partition(16, 1)))
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
