"""Zero-terminated (171, 133) convolutional code and batched Viterbi."""
import hashlib

import numpy as np
import pytest

from mimodsp import conv_encode, viterbi_decode
from mimodsp.link.coding import _ROW, TAIL_BITS

GENERATORS = (0o171, 0o133)


def _llr_from_bits(coded):
    """Noiseless LLRs: positive favors bit 0."""
    return 1.0 - 2.0 * coded.astype(np.float64)


def _branch_bits(u, state):
    """Coded bits for input ``u`` leaving ``state``, from the register."""
    reg = (u << 6) | state
    return [bin(g & reg).count("1") & 1 for g in GENERATORS]


class TestEncoder:
    def test_output_length(self):
        assert conv_encode(np.zeros(100, dtype=np.uint8)).shape == (212,)

    def test_zero_in_zero_out(self):
        assert not conv_encode(np.zeros(40, dtype=np.uint8)).any()

    def test_impulse_response(self):
        # a single 1 emits the interleaved generator taps 1111001 / 1011011
        got = conv_encode(np.array([1], dtype=np.uint8))
        want = np.array([1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(got, want)

    def test_linear_over_gf2(self, rng):
        a = rng.integers(0, 2, 64).astype(np.uint8)
        b = rng.integers(0, 2, 64).astype(np.uint8)
        np.testing.assert_array_equal(conv_encode(a ^ b),
                                      conv_encode(a) ^ conv_encode(b))

    def test_batched_rows_match_flat(self, rng):
        bits = rng.integers(0, 2, size=(4, 50)).astype(np.uint8)
        coded = conv_encode(bits)
        assert coded.shape == (4, 112)
        for row in range(4):
            np.testing.assert_array_equal(coded[row], conv_encode(bits[row]))

    def test_trellis_constants(self):
        assert TAIL_BITS == 6

    def test_matches_shift_register(self, rng):
        bits = rng.integers(0, 2, 90).astype(np.uint8)
        state, want = 0, []
        for u in list(bits) + [0] * 6:
            want += _branch_bits(int(u), state)
            state = ((int(u) << 6) | state) >> 1
        np.testing.assert_array_equal(conv_encode(bits), want)


class TestDecoder:
    def test_noiseless_round_trip(self, rng):
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        decoded = viterbi_decode(_llr_from_bits(conv_encode(bits)), n_info=200)
        np.testing.assert_array_equal(decoded, bits)

    def test_round_trip_default_info_length(self, rng):
        bits = rng.integers(0, 2, 73).astype(np.uint8)
        decoded = viterbi_decode(_llr_from_bits(conv_encode(bits)))
        np.testing.assert_array_equal(decoded, bits)

    def test_corrects_scattered_flips(self, rng):
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        coded = conv_encode(bits)
        # three flips, far apart: well inside the free-distance budget
        for pos in (30, 250, 500):
            coded[pos] ^= 1
        np.testing.assert_array_equal(
            viterbi_decode(_llr_from_bits(coded), n_info=300), bits)

    def test_batch_matches_individual(self, rng):
        bits = rng.integers(0, 2, size=(6, 80)).astype(np.uint8)
        llrs = _llr_from_bits(conv_encode(bits))
        llrs += 0.4 * rng.standard_normal(llrs.shape)
        together = viterbi_decode(llrs, n_info=80)
        assert together.shape == (6, 80)
        for row in range(6):
            np.testing.assert_array_equal(together[row],
                                          viterbi_decode(llrs[row], n_info=80))

    def test_positive_scaling_invariance(self, rng):
        bits = rng.integers(0, 2, 120).astype(np.uint8)
        llrs = _llr_from_bits(conv_encode(bits))
        llrs += 0.7 * rng.standard_normal(llrs.shape)
        np.testing.assert_array_equal(viterbi_decode(llrs, n_info=120),
                                      viterbi_decode(25.0 * llrs, n_info=120))

    def test_beats_hard_slicing_in_noise(self, rng):
        # moderate noise: the decoder must fix errors raw slicing keeps
        bits = rng.integers(0, 2, 2000).astype(np.uint8)
        coded = conv_encode(bits)
        llrs = _llr_from_bits(coded) + 0.8 * rng.standard_normal(coded.shape)
        raw_errors = int(((llrs < 0).astype(np.uint8) != coded).sum())
        decoded_errors = int((viterbi_decode(llrs, n_info=2000) != bits).sum())
        assert raw_errors > 0
        assert decoded_errors < raw_errors / 4

    def test_rejects_odd_llr_count(self):
        with pytest.raises(ValueError):
            viterbi_decode(np.ones(13))

    def test_empty_batch(self):
        decoded = viterbi_decode(np.zeros((0, 40)))
        assert decoded.shape == (0, 14) and decoded.dtype == np.uint8

    def test_rejects_three_dim_input(self):
        with pytest.raises(ValueError, match=r"\(batch, 2T\)"):
            viterbi_decode(np.zeros((2, 3, 40)))

    def test_rejects_inconsistent_info_length(self):
        llrs = np.ones(2 * (10 + 6))
        with pytest.raises(ValueError):
            viterbi_decode(llrs, n_info=11)

    def test_butterfly_layout(self, rng):
        # predecessors 2j, 2j+1 feed j (input 0) and j+32 (input 1); the
        # four branches carry +x_j, -x_j, -x_j, +x_j, where x_j is the
        # metric of input 0 leaving 2j and the decoder takes it from
        # [p, q, -p, -q] at row _ROW[j]
        l0, l1 = rng.standard_normal(2)
        signed = 0.5 * np.array([l0 + l1, l0 - l1, -(l0 + l1), -(l0 - l1)])

        def metric(u, state):
            c0, c1 = _branch_bits(u, state)
            return 0.5 * (l0 * (1 - 2 * c0) + l1 * (1 - 2 * c1))

        for j in range(32):
            x = metric(0, 2 * j)
            assert signed[_ROW[j]] == x
            for u, prev, sign in ((0, 2 * j + 1, -1), (1, 2 * j, -1),
                                  (1, 2 * j + 1, 1)):
                assert ((u << 6) | prev) >> 1 == j + 32 * u
                assert metric(u, prev) == sign * x


def _pin_inputs(rows=48, n_info=250):
    rng = np.random.default_rng(2468)
    bits = rng.integers(0, 2, size=(rows, n_info)).astype(np.uint8)
    coded = conv_encode(bits)
    llrs = 2.0 * (1.0 - 2.0 * coded) + 1.8 * rng.standard_normal(coded.shape)
    return bits, llrs


# decoded bits recorded from the gathered add-compare-select decoder that
# the butterfly replaced (the first three cases), and from the butterfly
# that allocated per step (the rest): bit errors and a digest of the output
@pytest.mark.parametrize("case, n_errors, digest", [
    ("noisy", 445, "2a5fbe91570bc399"),
    ("integer", 519, "c48aae4a37092bf7"),    # rounded LLRs: many exact ties
    ("one_dim", 12, "9f322a0b7100268e"),
    # 1,024 steps: a partial decision byte and a partial last block
    ("batch65", 3094, "76447c8bcccdd1b9"),
    ("batch399", 18432, "4f1e35ff48cdc699"),    # one-step blocks
    ("zeros", 5941, "ff6698a6e831ffcf"),        # every comparison ties
    ("negative_zeros", 5941, "ff6698a6e831ffcf"),
])
def test_decoded_bits_pinned(case, n_errors, digest):
    if case.startswith("batch"):
        bits, llrs = _pin_inputs(int(case[5:]), 1018)
    else:
        bits, llrs = _pin_inputs()
    if case == "integer":
        llrs = np.rint(llrs)
    elif case == "one_dim":
        bits, llrs = bits[7], llrs[7]
    elif case == "zeros":
        llrs = np.zeros_like(llrs)
    elif case == "negative_zeros":
        llrs = np.full_like(llrs, -0.0)
    decoded = viterbi_decode(llrs)
    assert decoded.shape == bits.shape
    assert int(np.count_nonzero(decoded != bits)) == n_errors
    assert hashlib.sha256(decoded.tobytes()).hexdigest()[:16] == digest
