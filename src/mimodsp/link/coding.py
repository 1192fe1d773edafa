"""Rate-1/2 (171, 133) convolutional code and a batched soft Viterbi decoder.

Constraint length 7, zero-terminated with six tail bits.  The state is
the six-bit shift register after absorbing the current input, newest bit
in the MSB.  Input ``u`` leaving state ``p`` fills the register
``reg = (u << 6) | p``; generator ``g`` emits the parity of ``g & reg``
and the next state is ``reg >> 1``.

The decoder is a radix-2 butterfly.  Predecessors ``2j`` and ``2j + 1``
differ only in the oldest bit and both lead to next states ``j`` (input
0) and ``j + 32`` (input 1).  Both generators tap the newest and the
oldest register bit, so flipping either flips both coded bits, and with
``x_j`` the branch metric of input 0 leaving ``2j``::

    new[j]      = max(m[2j] + x_j, m[2j+1] - x_j)
    new[j + 32] = max(m[2j] - x_j, m[2j+1] + x_j)

A coded bit ``c`` with LLR ``l`` (positive favours 0) adds
``(1 - 2c) * l / 2``, so ``x_j`` is one of ``p, q, -p, -q`` with
``p = (l0 + l1) / 2`` and ``q = (l0 - l1) / 2``.  A step is four ufuncs
into buffers made once per call: ``m[0::2] + [x; -x]``, ``m[1::2] - [x; -x]``,
their maximum and ``>``.  One ``take`` gathers ``[x; -x]`` for a block
of steps, sized by ``_BLOCK_BYTES`` to stay in cache at any batch.

Traceback reads the survivor decisions back a block of steps at a time,
from the end, as hardware decoders read their survivor memory (Rader,
IEEE Trans. Commun. 1981).  State ``s`` with decision ``d`` came from
``((s & 31) << 1) | d``, so unpacking a block's decisions and OR-ing in
each state's ``(s & 31) << 1`` gives a table of previous states, and each
step is one gather.  The info bit of a step is the MSB of its state.
"""
from __future__ import annotations

import numpy as np

__all__ = ["TAIL_BITS", "conv_encode", "viterbi_decode"]

_GENERATORS = (0o171, 0o133)
TAIL_BITS = 6
_HALF = 1 << (TAIL_BITS - 1)     # butterflies per step: half the 64 states
_NEG = -1e30    # effectively -inf path metric without producing NaNs
_BLOCK_BYTES = 1 << 18  # per block of steps, metrics or traceback: in cache


def _row(j: int) -> int:
    """Row of [p, q, -p, -q] holding x_j, from the bits (c0, c1) that input
    0 emits leaving state 2j: c0 sets the sign, c0 != c1 picks q over p."""
    c0, c1 = (bin(g & (j << 1)).count("1") & 1 for g in _GENERATORS)
    return 2 * c0 + (c0 ^ c1)


_ROW = np.array([_row(j) for j in range(_HALF)])
_ROW2 = np.stack((_ROW, _ROW ^ 2))      # rows of x_j and of -x_j
# state s's predecessor, less its decision bit, as a column: (s & 31) << 1
_PREV_BASE = ((np.arange(2 * _HALF, dtype=np.uint8) & (_HALF - 1))
              << 1)[:, None]


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode and zero-terminate; output has 2 * (n + 6) coded bits."""
    arr = np.asarray(bits)
    rows = np.atleast_2d(arr.astype(np.uint8))
    b, n = rows.shape
    t = n + TAIL_BITS
    padded = np.zeros((b, t), dtype=np.uint8)
    padded[:, :n] = rows
    coded = np.zeros((b, 2 * t), dtype=np.uint8)
    for gi, g in enumerate(_GENERATORS):
        branch = np.zeros((b, t), dtype=np.uint8)
        for i in range(TAIL_BITS + 1):
            if (g >> (TAIL_BITS - i)) & 1:
                branch[:, i:] ^= padded[:, :t - i]
        coded[:, gi::2] = branch
    return coded[0] if arr.ndim == 1 else coded


def viterbi_decode(llrs: np.ndarray, n_info: int | None = None) -> np.ndarray:
    """Hard info bits from coded-bit LLRs (positive means bit 0).

    Accepts one codeword or a (batch, 2T) array and runs all batch entries
    through the trellis together.  Bits equal a full add-compare-select's:
    negation is exact and IEEE defines ``a - x`` as ``a + (-x)``, so max and
    the strict ``>`` see the same values and ties keep the even predecessor.
    Each step's decisions are packed eight codewords to a byte, 8 bytes per
    codeword.  Traceback starts in the zero state, matching the tail, and
    unpacks one block of steps at a time into a uint8 (steps, 64, batch)
    table of at most ``_BLOCK_BYTES``.  Returns a C-ordered uint8
    (batch, n_info) array, or (n_info,) for one codeword.
    """
    arr = np.asarray(llrs, dtype=np.float64)
    rows = np.atleast_2d(arr)
    if rows.ndim != 2 or rows.shape[1] % 2:
        raise ValueError(f"LLRs must be (2T,) or (batch, 2T), not {arr.shape}")
    b, width = rows.shape
    t_steps = width // 2
    if n_info is None:
        n_info = t_steps - TAIL_BITS
    if not 1 <= n_info <= t_steps - TAIL_BITS:
        raise ValueError("info length inconsistent with LLR length")

    # state-major arrays: row s holds state s of every codeword
    l0, l1 = rows[:, 0::2].T, rows[:, 1::2].T
    pq = np.empty((t_steps, 2, b))
    np.add(l0, l1, out=pq[:, 0])
    np.subtract(l0, l1, out=pq[:, 1])
    pq *= 0.5
    metrics = np.full((2 * _HALF, b), _NEG)
    metrics[0] = 0.0
    even, odd = metrics[0::2], metrics[1::2]
    stay, flip = np.empty((2, 2, _HALF, b))     # from 2j, from 2j + 1
    stay2, flip2 = stay.reshape(2 * _HALF, b), flip.reshape(2 * _HALF, b)
    block = max(1, _BLOCK_BYTES // (2 * _HALF * 8 * max(b, 1)))
    pm = np.empty((block, 4, b))                # [p, q, -p, -q] per step
    x = np.empty((block, 2, _HALF, b))          # [x_j; -x_j] per step
    flags = np.empty((block, 2 * _HALF, b), dtype=bool)
    decisions = np.empty((t_steps, 2 * _HALF, (b + 7) // 8), dtype=np.uint8)
    for t in range(0, t_steps, block):         # t: the block's first step
        n = min(block, t_steps - t)
        pm[:n, :2] = pq[t:t + n]
        np.negative(pm[:n, :2], out=pm[:n, 2:])
        np.take(pm[:n], _ROW2, axis=1, out=x[:n], mode="clip")  # unbuffered
        for i in range(n):
            np.add(even, x[i], out=stay)
            np.subtract(odd, x[i], out=flip)
            np.maximum(stay2, flip2, out=metrics)
            np.greater(flip2, stay2, out=flags[i])
        decisions[t:t + n] = np.packbits(flags[:n], axis=2, bitorder="little")
    # traceback from the all-zero terminating state; path[t] holds the
    # state after step t, one uint8 per codeword
    states = np.zeros(b, dtype=np.intp)
    cols = np.arange(b)
    path = np.empty((t_steps, b), dtype=np.uint8)
    block = max(1, _BLOCK_BYTES // (2 * _HALF * max(b, 1)))  # uint8 table
    for hi in range(t_steps, 0, -block):      # hi: one past the block's end
        lo = max(0, hi - block)
        prev = np.unpackbits(decisions[lo:hi], axis=2, count=b,
                             bitorder="little")
        prev |= _PREV_BASE
        for i in range(hi - lo - 1, -1, -1):
            path[lo + i] = states
            states = prev[i, states, cols]
    out = np.right_shift(path[:n_info].T, TAIL_BITS - 1, order="C")
    return out[0] if arr.ndim == 1 else out
