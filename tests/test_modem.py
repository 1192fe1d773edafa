"""Gray-labeled square QAM mapping and max-log demapping."""
import numpy as np
import pytest

from mimodsp import Constellation, demap_hard, demap_soft, map_bits
from mimodsp.link.modem import _nearest_labels

ALL_NAMES = ("qpsk", "16qam", "64qam", "256qam")

RT2 = np.sqrt(2.0)
RT10 = np.sqrt(10.0)
RT42 = np.sqrt(42.0)
RT170 = np.sqrt(170.0)


@pytest.fixture(params=ALL_NAMES)
def constellation(request):
    return Constellation.from_name(request.param)


def _every_symbol(c):
    """``map_bits`` of every label, indexed by the label (MSB first)."""
    bps = c.bits_per_symbol
    labels = np.arange(1 << bps)[:, None]
    return map_bits((labels >> np.arange(bps - 1, -1, -1)) & 1, c)[:, 0]


class TestConstellation:
    def test_sizes(self):
        for name, bps in zip(ALL_NAMES, (2, 4, 6, 8)):
            c = Constellation.from_name(name)
            assert c.bits_per_symbol == bps
            assert _every_symbol(c).shape == (1 << bps,)
            assert c.axis_levels.shape == (1 << (bps // 2),)

    def test_unit_average_power(self, constellation):
        assert np.mean(np.abs(_every_symbol(constellation)) ** 2) == pytest.approx(1.0)

    def test_points_distinct(self, constellation):
        pts = _every_symbol(constellation)
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


# The demappers as they were before they moved to per-level distance
# arrays: an argmin over the levels, and masked minima per bit.
def _reference_demap_hard(symbols, c):
    symbols = np.asarray(symbols)
    bits = np.empty((*symbols.shape, c.bits_per_symbol), dtype=np.int64)
    shifts = np.arange(c.axis_bits - 1, -1, -1)
    for axis, values in enumerate((symbols.real, symbols.imag)):
        label = np.argmin((values[..., None] - c.axis_levels) ** 2, axis=-1)
        bits[..., axis::2] = (label[..., None] >> shifts) & 1
    return bits.reshape(*symbols.shape[:-1], -1)


def _reference_demap_soft(symbols, c, noise_var):
    symbols = np.asarray(symbols)
    ab = c.axis_bits
    axis_labels = np.arange(1 << ab)
    llrs = np.empty((*symbols.shape, c.bits_per_symbol))
    half_nv = noise_var / 2.0
    for axis, values in enumerate((symbols.real, symbols.imag)):
        d2 = (values[..., None] - c.axis_levels) ** 2
        axis_llrs = llrs[..., axis::2]
        for j in range(ab):
            mask1 = ((axis_labels >> (ab - 1 - j)) & 1).astype(bool)
            d0 = np.min(d2[..., ~mask1], axis=-1)
            d1 = np.min(d2[..., mask1], axis=-1)
            axis_llrs[..., j] = (d1 - d0) / half_nv
    return llrs.reshape(*symbols.shape[:-1], -1)


def _reference_map_bits(bits, c):
    bits = np.asarray(bits, dtype=np.int64)
    sym = bits.reshape(*bits.shape[:-1], -1, c.bits_per_symbol)
    w = 1 << np.arange(c.axis_bits - 1, -1, -1)
    return (c.axis_levels[sym[..., 0::2] @ w]
            + 1j * c.axis_levels[sym[..., 1::2] @ w])


def _edge_symbols(c, rng, n):
    """Random symbols around the grid, with exact midpoints between levels,
    the levels themselves, +-0, +-inf and NaN on either axis."""
    lv = np.sort(c.axis_levels)
    special = np.concatenate([lv, (lv[:-1] + lv[1:]) / 2.0, -lv,
                              [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300]])
    re = np.concatenate([rng.choice(special, n // 2),
                         rng.uniform(-1.5, 1.5, n - n // 2)])
    im = np.concatenate([rng.uniform(-1.5, 1.5, n - n // 2),
                         rng.choice(special, n // 2)])
    out = np.empty(n, dtype=complex)
    out.real, out.imag = rng.permutation(re), rng.permutation(im)
    return out


_SHAPES = [(48,), (4, 12), (2, 3, 8)]


# inf - inf, 1e300 ** 2 and the complex64 cast of 1e300 warn on both sides
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAgainstReference:
    @pytest.mark.parametrize("shape", _SHAPES, ids=["1d", "2d", "3d"])
    def test_hard_bits_equal(self, constellation, rng, shape):
        symbols = _edge_symbols(constellation, rng, 48).reshape(shape)
        got = demap_hard(symbols, constellation)
        want = _reference_demap_hard(symbols, constellation)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", _SHAPES, ids=["1d", "2d", "3d"])
    def test_llrs_bitwise_equal(self, constellation, rng, shape):
        symbols = _edge_symbols(constellation, rng, 48).reshape(shape)
        for nv in (0.3, 1e-9):
            got = demap_soft(symbols, constellation, nv)
            want = _reference_demap_soft(symbols, constellation, nv)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))

    @pytest.mark.parametrize("shape", _SHAPES, ids=["1d", "2d", "3d"])
    def test_symbols_bitwise_equal(self, constellation, rng, shape):
        *lead, n = shape
        bits = rng.integers(0, 2, (*lead, n * constellation.bits_per_symbol))
        got = map_bits(bits, constellation)
        want = _reference_map_bits(bits, constellation)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_real_and_single_precision_input(self, constellation, rng):
        symbols = _edge_symbols(constellation, rng, 48)
        for values in (symbols.real, symbols.astype(np.complex64)):
            np.testing.assert_array_equal(
                demap_hard(values, constellation),
                _reference_demap_hard(values, constellation))
            np.testing.assert_array_equal(
                demap_soft(values, constellation, 0.5).view(np.int64),
                _reference_demap_soft(values, constellation, 0.5).view(np.int64))


def _reference_labels(symbols, c):
    """(..., n, 2) nearest-level labels of I and Q by argmin."""
    v = np.stack([symbols.real, symbols.imag], axis=-1)
    return np.argmin((v[..., None] - c.axis_levels) ** 2, axis=-1)


# the simulator's shape: 16 streams of 512 symbols
_SIM_SHAPE = (16, 512)


# 1e300 ** 2 overflows on both sides
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNearestLabels:
    def _check(self, symbols, c):
        before = symbols.copy()
        got = _nearest_labels(symbols, c)
        assert got.dtype == np.uint8
        assert got.shape == (*symbols.shape, 2)
        np.testing.assert_array_equal(got, _reference_labels(symbols, c))
        np.testing.assert_array_equal(symbols.view(np.int64),
                                      before.view(np.int64))
        return got

    @pytest.mark.parametrize("shape", [_SIM_SHAPE, (2, 3, 16)],
                             ids=["16x512", "3d"])
    def test_equals_argmin(self, constellation, rng, shape):
        n = int(np.prod(shape))
        symbols = _edge_symbols(constellation, rng, n).reshape(shape)
        self._check(symbols, constellation)

    def test_two_levels_decide_by_sign(self, rng):
        # QPSK's levels are +-1/sqrt(2): label 1 exactly where the axis is
        # finite and negative; +-0, +-inf and NaN tie or compare false
        c = Constellation.from_name("qpsk")
        n = _SIM_SHAPE[0] * _SIM_SHAPE[1]
        symbols = _edge_symbols(c, rng, n).reshape(_SIM_SHAPE)
        got = self._check(symbols, c)
        v = np.stack([symbols.real, symbols.imag], axis=-1)
        np.testing.assert_array_equal(got, (v < 0) & np.isfinite(v))
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -0.5])
        symbols = np.empty(len(specials), dtype=complex)
        symbols.real, symbols.imag = specials, specials[::-1]
        np.testing.assert_array_equal(
            self._check(symbols, c),
            [[0, 1], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0]])


class TestEmptyBatch:
    def test_zero_rows(self, constellation):
        bps = constellation.bits_per_symbol
        x = map_bits(np.zeros((0, 8 * bps), dtype=int), constellation)
        assert x.shape == (0, 8) and x.dtype == complex
        symbols = np.zeros((0, 5), dtype=complex)
        hard = demap_hard(symbols, constellation)
        assert hard.shape == (0, 5 * bps) and hard.dtype == np.int64
        soft = demap_soft(symbols, constellation, 1.0)
        assert soft.shape == (0, 5 * bps) and soft.dtype == np.float64

    def test_zero_symbols(self, constellation):
        assert map_bits(np.zeros((3, 0), dtype=int), constellation).shape == (3, 0)
        assert demap_hard(np.zeros((3, 0), dtype=complex),
                          constellation).shape == (3, 0)
        assert demap_soft(np.zeros(0, dtype=complex), constellation,
                          1.0).shape == (0,)
