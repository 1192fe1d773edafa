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
# the butterfly replaced (the first three cases), from the butterfly that
# allocated per step (the next four) and from the traceback that gathered
# one decision bit per step (the rest): bit errors and a digest of the output
@pytest.mark.parametrize("case, n_errors, digest", [
    ("noisy", 445, "2a5fbe91570bc399"),
    ("integer", 519, "c48aae4a37092bf7"),    # rounded LLRs: many exact ties
    ("one_dim", 12, "9f322a0b7100268e"),
    # 1,024 steps: a partial decision byte and a partial last block
    ("batch65", 3094, "76447c8bcccdd1b9"),
    ("batch399", 18432, "4f1e35ff48cdc699"),    # one-step blocks
    ("zeros", 5941, "ff6698a6e831ffcf"),        # every comparison ties
    ("negative_zeros", 5941, "ff6698a6e831ffcf"),
    ("batch64", 2869, "6c1fc8c049530ae0"),      # the benchmark's call
    ("short", 112, "60c7a7fb5ecd6664"),         # 46 steps: under one block
])
def test_decoded_bits_pinned(case, n_errors, digest):
    if case.startswith("batch"):
        bits, llrs = _pin_inputs(int(case[5:]), 1018)
    elif case == "short":
        bits, llrs = _pin_inputs(n_info=40)
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


def _reference_decode(llrs, n_info=None):
    """The decoder as it was before the block traceback: the same forward
    pass, then one packed decision bit gathered per step."""
    half = 32
    arr = np.asarray(llrs, dtype=np.float64)
    rows = np.atleast_2d(arr)
    b, width = rows.shape
    t_steps = width // 2
    if n_info is None:
        n_info = t_steps - TAIL_BITS
    l0, l1 = rows[:, 0::2].T, rows[:, 1::2].T
    pq = np.empty((t_steps, 2, b))
    np.add(l0, l1, out=pq[:, 0])
    np.subtract(l0, l1, out=pq[:, 1])
    pq *= 0.5
    metrics = np.full((2 * half, b), -1e30)
    metrics[0] = 0.0
    even, odd = metrics[0::2], metrics[1::2]
    stay, flip = np.empty((2, 2, half, b))
    stay2, flip2 = stay.reshape(2 * half, b), flip.reshape(2 * half, b)
    block = max(1, (1 << 18) // (2 * half * 8 * max(b, 1)))
    pm = np.empty((block, 4, b))
    x = np.empty((block, 2, half, b))
    flags = np.empty((block, 2 * half, b), dtype=bool)
    decisions = np.empty((t_steps, 2 * half, (b + 7) // 8), dtype=np.uint8)
    for t in range(0, t_steps, block):
        n = min(block, t_steps - t)
        pm[:n, :2] = pq[t:t + n]
        np.negative(pm[:n, :2], out=pm[:n, 2:])
        np.take(pm[:n], np.stack((_ROW, _ROW ^ 2)), axis=1, out=x[:n],
                mode="clip")
        for i in range(n):
            np.add(even, x[i], out=stay)
            np.subtract(odd, x[i], out=flip)
            np.maximum(stay2, flip2, out=metrics)
            np.greater(flip2, stay2, out=flags[i])
        decisions[t:t + n] = np.packbits(flags[:n], axis=2, bitorder="little")
    states = np.zeros(b, dtype=np.intp)
    cols = np.arange(b)
    byte, bit = cols >> 3, cols & 7
    out = np.empty((b, t_steps), dtype=np.uint8)
    for step in range(t_steps - 1, -1, -1):
        out[:, step] = states >> (TAIL_BITS - 1)
        d = (decisions[step, states, byte] >> bit) & 1
        states = ((states & (half - 1)) << 1) | d
    out = out[:, :n_info]
    return out[0] if arr.ndim == 1 else out


# a traceback block holds 4096 // batch steps: 64 at 64 rows, 10 at 399;
# info lengths 57, 58 and 59 give 63, 64 and 65 steps
@pytest.mark.parametrize("batch", [0, 1, 7, 8, 9, 63, 64, 65, 399])
def test_block_traceback_matches_reference(batch):
    rng = np.random.default_rng(batch)
    for n_info in (1, 57, 58, 59, 121):
        bits = rng.integers(0, 2, size=(batch, n_info)).astype(np.uint8)
        coded = conv_encode(bits)
        noisy = 2.0 * (1.0 - 2.0 * coded) + 1.8 * rng.standard_normal(
            coded.shape)
        for llrs in (noisy, np.rint(noisy), np.zeros_like(noisy),
                     np.full_like(noisy, -0.0)):
            for n_out in (None, (n_info + 1) // 2):
                got = viterbi_decode(llrs, n_out)
                assert got.dtype == np.uint8 and got.flags.c_contiguous
                np.testing.assert_array_equal(
                    got, _reference_decode(llrs, n_out), strict=True)
        if batch:
            np.testing.assert_array_equal(viterbi_decode(noisy[0]),
                                          _reference_decode(noisy[0]),
                                          strict=True)
