"""Gray-mapped square constellations with hard and max-log soft demapping.

Bit convention: a square QAM symbol is two Gray PAM axes.  Its ``2m``
bits interleave across them, even positions (0, 2, ...) forming the
in-phase label and odd positions the quadrature label, each
most-significant first.  The interleave is read only as the
``[..., axis::2]`` slice of a symbol's bits (axis 0 is I, axis 1 is Q),
which :func:`map_bits` and both demappers take.  The all-zero label
sits in the first quadrant at maximum amplitude, so QPSK maps ``00`` to
``(1 + j) / sqrt(2)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        key = name.lower()
        if key not in _ORDERS:
            raise ValueError(f"unknown constellation {name!r}")
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

    @property
    def points(self) -> np.ndarray:
        """Every symbol, indexed by its integer label (bits MSB first)."""
        bps = self.bits_per_symbol
        labels = np.arange(1 << bps)[:, None]
        bits = (labels >> np.arange(bps - 1, -1, -1)) & 1
        return map_bits(bits.ravel(), self)


def map_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Symbols for a flat or (streams, n) bit array, MSB-first labels."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-1] % c.bits_per_symbol:
        raise ValueError("bit count must be a multiple of bits_per_symbol")
    sym = bits.reshape(*bits.shape[:-1], -1, c.bits_per_symbol)
    w = 1 << np.arange(c.axis_bits - 1, -1, -1)
    return (c.axis_levels[sym[..., 0::2] @ w]
            + 1j * c.axis_levels[sym[..., 1::2] @ w])


def demap_hard(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Nearest-point decision, returned as bits in mapping order."""
    symbols = np.asarray(symbols)
    bits = np.empty((*symbols.shape, c.bits_per_symbol), dtype=np.int64)
    shifts = np.arange(c.axis_bits - 1, -1, -1)
    for axis, values in enumerate((symbols.real, symbols.imag)):
        label = np.argmin((values[..., None] - c.axis_levels) ** 2, axis=-1)
        bits[..., axis::2] = (label[..., None] >> shifts) & 1
    return bits.reshape(*symbols.shape[:-1], -1)


def demap_soft(symbols: np.ndarray, c: Constellation, noise_var: float) -> np.ndarray:
    """Max-log LLRs, positive when bit 0 is the likelier hypothesis.

    Each axis is demapped independently (the square constellation is a
    product of two PAM sets), so the per-bit LLR is the difference of the
    squared distances to the nearest level in each bit hypothesis,
    divided by the per-axis noise variance.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
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
