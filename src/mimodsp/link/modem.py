"""Gray-mapped square constellations with hard and max-log soft demapping.

Bit convention: a square QAM symbol is two Gray PAM axes.  Its ``2m``
bits interleave across them, even positions (0, 2, ...) forming the
in-phase label and odd positions the quadrature label, each
most-significant first.  The interleave is read only as the
``(axis bits, 2)`` shape of a symbol's bits, I then Q in the last axis,
by :func:`_axis_labels` and both demappers.  The all-zero label
sits in the first quadrant at maximum amplitude, so QPSK maps ``00`` to
``(1 + j) / sqrt(2)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress

import numpy as np

from ..channel import _name_errors, _raise

__all__ = ["Constellation", "map_bits", "demap_hard", "demap_soft"]

_ORDERS = {"qpsk": 2, "16qam": 4, "64qam": 6, "256qam": 8}


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power square QAM with Gray labeling."""

    name: str
    bits_per_symbol: int
    axis_levels: np.ndarray     # normalized amplitude per axis label

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        _raise(_name_errors("constellation", name, _ORDERS))
        key = name.lower()
        bps = _ORDERS[key]
        # odd integer amplitude per Gray axis label, +max at Gray rank 0
        n = 1 << (bps // 2)
        idx = np.arange(n)
        raw = np.empty(n)
        raw[idx ^ (idx >> 1)] = (n - 1) - 2 * idx
        levels = raw / np.sqrt(2.0 * np.mean(raw ** 2))
        return cls(name=key, bits_per_symbol=bps, axis_levels=levels)

    @property
    def axis_bits(self) -> int:
        return self.bits_per_symbol // 2


def _axis_labels(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """(..., symbols, 2) I and Q labels of a flat or (streams, n) bit array."""
    bits = np.asarray(bits, dtype=np.uint8)
    n, rest = divmod(bits.shape[-1], c.bits_per_symbol)
    if rest:
        raise ValueError("bit count must be a multiple of bits_per_symbol")
    w = 1 << np.arange(c.axis_bits, dtype=np.uint8)[::-1]
    return w @ bits.reshape(*bits.shape[:-1], n, c.axis_bits, 2)


def map_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Symbols for a flat or (streams, n) bit array, MSB-first labels."""
    return c.axis_levels[_axis_labels(bits, c)].view(complex)[..., 0]


def _level_distances(symbols: np.ndarray, c: Constellation):
    """Per level, in label order: (..., symbols, 2) squared I, Q distances."""
    v = np.ascontiguousarray(symbols, dtype=complex)[..., None].view(float)
    return ((v - level) ** 2 for level in c.axis_levels)


def _nearest_labels(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """(..., symbols, 2) uint8 nearest-level labels, ties as in argmin."""
    dists = _level_distances(symbols, c)
    best = next(dists)
    labels = np.zeros(best.shape, dtype=np.uint8)
    for label, d in enumerate(dists, 1):
        np.copyto(labels, label, where=d < best)
        np.minimum(best, d, out=best)
    return labels


def demap_hard(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Nearest-point decision, returned as bits in mapping order."""
    shifts = np.arange(c.axis_bits - 1, -1, -1, dtype=np.int64)
    labels = _nearest_labels(symbols, c)
    *lead, n, _ = labels.shape
    bits = (labels[..., None, :] >> shifts[:, None]) & 1
    return bits.reshape(*lead, n * c.bits_per_symbol)


def demap_soft(symbols: np.ndarray, c: Constellation, noise_var: float) -> np.ndarray:
    """Max-log LLRs, positive when bit 0 is the likelier hypothesis.

    Each axis is demapped independently (the square constellation is a
    product of two PAM sets), so the per-bit LLR is the difference of the
    squared distances to the nearest level in each bit hypothesis,
    divided by the per-axis noise variance.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    dists = list(_level_distances(symbols, c))
    *lead, n, _ = dists[0].shape
    llrs = np.empty((*lead, n, c.axis_bits, 2))
    for j in range(c.axis_bits):  # min over a hypothesis's levels is exact
        b = (np.arange(len(dists)) >> (c.axis_bits - 1 - j)) & 1
        d0, d1 = (reduce(np.minimum, compress(dists, b == v)) for v in (0, 1))
        np.subtract(d1, d0, out=llrs[..., j, :])
    llrs /= noise_var / 2.0
    return llrs.reshape(*lead, n * c.bits_per_symbol)
