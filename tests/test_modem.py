"""Gray-labeled square QAM mapping and max-log demapping."""
import numpy as np
import pytest

from mimodsp import Constellation, demap_hard, demap_soft, map_bits

ALL_NAMES = ("qpsk", "16qam", "64qam", "256qam")

RT2 = np.sqrt(2.0)
RT10 = np.sqrt(10.0)
RT42 = np.sqrt(42.0)
RT170 = np.sqrt(170.0)


@pytest.fixture(params=ALL_NAMES)
def constellation(request):
    return Constellation.from_name(request.param)


class TestConstellation:
    def test_sizes(self):
        for name, bps in zip(ALL_NAMES, (2, 4, 6, 8)):
            c = Constellation.from_name(name)
            assert c.bits_per_symbol == bps
            assert c.points.shape == (1 << bps,)
            assert c.axis_levels.shape == (1 << (bps // 2),)

    def test_unit_average_power(self, constellation):
        assert np.mean(np.abs(constellation.points) ** 2) == pytest.approx(1.0)

    def test_points_distinct(self, constellation):
        pts = constellation.points
        assert len(np.unique(pts.round(12))) == len(pts)

    def test_qpsk_table(self):
        c = Constellation.from_name("qpsk")
        table = {
            (0, 0): (1 + 1j) / RT2,
            (0, 1): (1 - 1j) / RT2,
            (1, 0): (-1 + 1j) / RT2,
            (1, 1): (-1 - 1j) / RT2,
        }
        for bits, want in table.items():
            got = map_bits(np.array(bits), c)
            assert got[0] == pytest.approx(want)

    def test_16qam_axis_levels(self):
        c = Constellation.from_name("16qam")
        np.testing.assert_allclose(c.axis_levels,
                                   np.array([3, 1, -3, -1]) / RT10)

    def test_16qam_bit_interleaving(self):
        # even bit positions steer I, odd positions steer Q, MSB first
        c = Constellation.from_name("16qam")
        assert map_bits(np.array([1, 0, 0, 0]), c)[0] == pytest.approx(
            (-3 + 3j) / RT10)
        assert map_bits(np.array([0, 1, 0, 0]), c)[0] == pytest.approx(
            (3 - 3j) / RT10)
        assert map_bits(np.array([0, 0, 1, 0]), c)[0] == pytest.approx(
            (1 + 3j) / RT10)

    @pytest.mark.parametrize("name, bits, want", [
        ("64qam", [1, 0, 0, 0, 0, 0], (-7 + 7j) / RT42),
        ("64qam", [0, 1, 0, 0, 0, 0], (7 - 7j) / RT42),
        ("64qam", [0, 0, 1, 0, 0, 0], (1 + 7j) / RT42),
        ("64qam", [0, 0, 0, 1, 0, 0], (7 + 1j) / RT42),
        ("64qam", [0, 0, 0, 0, 1, 0], (5 + 7j) / RT42),
        ("64qam", [0, 0, 0, 0, 0, 1], (7 + 5j) / RT42),
        ("64qam", [0, 1, 1, 0, 1, 1], (3 - 5j) / RT42),
        ("256qam", [1, 0, 0, 0, 0, 0, 0, 0], (-15 + 15j) / RT170),
        ("256qam", [0, 1, 0, 0, 0, 0, 0, 0], (15 - 15j) / RT170),
        ("256qam", [0, 0, 1, 0, 0, 0, 0, 0], (1 + 15j) / RT170),
        ("256qam", [0, 0, 0, 0, 1, 0, 0, 0], (9 + 15j) / RT170),
        ("256qam", [0, 0, 0, 0, 0, 0, 1, 0], (13 + 15j) / RT170),
        ("256qam", [0, 0, 0, 0, 0, 0, 0, 1], (15 + 13j) / RT170),
        ("256qam", [0, 1, 1, 0, 1, 1, 0, 1], (7 - 11j) / RT170),
    ])
    def test_higher_order_bit_interleaving(self, name, bits, want):
        # the 16-QAM convention at 3 and 4 bits per axis: even positions
        # form the I label and odd positions the Q label, MSB first
        c = Constellation.from_name(name)
        assert map_bits(np.array(bits), c)[0] == pytest.approx(want)
        np.testing.assert_array_equal(demap_hard(np.array([want]), c), bits)

    def test_axis_labels_are_gray(self, constellation):
        # walking the axis in amplitude order flips exactly one label bit
        order = np.argsort(constellation.axis_levels)
        for a, b in zip(order[:-1], order[1:]):
            assert bin(int(a) ^ int(b)).count("1") == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Constellation.from_name("8psk")


class TestHardDecisions:
    def test_round_trip(self, constellation, rng):
        bits = rng.integers(0, 2, size=120 * constellation.bits_per_symbol)
        symbols = map_bits(bits, constellation)
        np.testing.assert_array_equal(demap_hard(symbols, constellation), bits)

    def test_round_trip_batched(self, constellation, rng):
        bits = rng.integers(0, 2, size=(5, 24 * constellation.bits_per_symbol))
        symbols = map_bits(bits, constellation)
        back = demap_hard(symbols, constellation)
        assert back.shape == bits.shape
        np.testing.assert_array_equal(back, bits)

    def test_small_noise_still_exact(self, constellation, rng):
        bits = rng.integers(0, 2, size=200 * constellation.bits_per_symbol)
        symbols = map_bits(bits, constellation)
        noisy = symbols + 0.01 * (rng.standard_normal(symbols.shape)
                                  + 1j * rng.standard_normal(symbols.shape))
        np.testing.assert_array_equal(demap_hard(noisy, constellation), bits)

    def test_bit_count_validation(self):
        c = Constellation.from_name("16qam")
        with pytest.raises(ValueError):
            map_bits(np.zeros(7, dtype=int), c)


class TestSoftDecisions:
    def test_qpsk_known_llr(self):
        # on-grid symbol at unit noise: |llr| = 8 a^2 / N0 = 4
        c = Constellation.from_name("qpsk")
        llr = demap_soft(np.array([(1 + 1j) / RT2]), c, 1.0)
        np.testing.assert_allclose(llr, [4.0, 4.0])
        llr = demap_soft(np.array([(-1 + 1j) / RT2]), c, 1.0)
        np.testing.assert_allclose(llr, [-4.0, 4.0])

    def test_sign_agrees_with_hard_decision(self, constellation, rng):
        bits = rng.integers(0, 2, size=300 * constellation.bits_per_symbol)
        symbols = map_bits(bits, constellation)
        noisy = symbols + 0.05 * (rng.standard_normal(symbols.shape)
                                  + 1j * rng.standard_normal(symbols.shape))
        llrs = demap_soft(noisy, constellation, 0.05 ** 2 * 2)
        soft_hard = (llrs < 0).astype(int)
        np.testing.assert_array_equal(soft_hard, demap_hard(noisy, constellation))

    def test_scales_inversely_with_noise(self, constellation, rng):
        symbols = map_bits(rng.integers(0, 2, 60 * constellation.bits_per_symbol),
                           constellation)
        noisy = symbols + 0.1 * rng.standard_normal(symbols.shape)
        np.testing.assert_allclose(demap_soft(noisy, constellation, 0.4),
                                   demap_soft(noisy, constellation, 0.2) / 2.0)

    def test_batched_matches_flat(self, constellation, rng):
        bits = rng.integers(0, 2, size=(3, 20 * constellation.bits_per_symbol))
        symbols = map_bits(bits, constellation)
        batched = demap_soft(symbols, constellation, 0.5)
        for row in range(3):
            np.testing.assert_allclose(batched[row],
                                       demap_soft(symbols[row], constellation, 0.5))

    def test_rejects_bad_noise_variance(self):
        c = Constellation.from_name("qpsk")
        for nv in (0.0, -1.0):
            with pytest.raises(ValueError):
                demap_soft(np.array([1 + 1j]), c, nv)
