"""Gray-mapped square constellations with hard and max-log soft demapping.

Bit convention: a ``2m``-bit symbol interleaves its bits across the two
axes, even positions (0, 2, ...) forming the in-phase label and odd
positions the quadrature label, each most-significant first.  The
all-zero label sits in the first quadrant at maximum amplitude, so QPSK
maps ``00`` to ``(1 + j) / sqrt(2)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Constellation", "map_bits", "demap_hard", "demap_soft"]

_ORDERS = {"qpsk": 2, "16qam": 4, "64qam": 6, "256qam": 8}


def _axis_levels(axis_bits: int) -> np.ndarray:
    """Amplitude per axis label, Gray-ordered, unnormalized odd integers."""
    n = 1 << axis_bits
    idx = np.arange(n)
    gray = idx ^ (idx >> 1)
    levels = np.empty(n)
    levels[gray] = (n - 1) - 2 * idx     # +max at Gray rank 0, descending
    return levels


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power square QAM with Gray labeling."""

    name: str
    bits_per_symbol: int
    points: np.ndarray          # indexed by the integer symbol label
    axis_levels: np.ndarray     # normalized amplitude per axis label

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        key = name.lower()
        if key not in _ORDERS:
            raise ValueError(f"unknown constellation {name!r}")
        bps = _ORDERS[key]
        axis_bits = bps // 2
        raw = _axis_levels(axis_bits)
        norm = np.sqrt(2.0 * np.mean(raw ** 2))
        levels = raw / norm
        labels = np.arange(1 << bps)
        i_label, q_label = _split_axis_labels(labels, axis_bits)
        points = levels[i_label] + 1j * levels[q_label]
        return cls(name=key, bits_per_symbol=bps, points=points, axis_levels=levels)

    @property
    def axis_bits(self) -> int:
        return self.bits_per_symbol // 2


def _split_axis_labels(labels: np.ndarray, axis_bits: int):
    """Integer symbol label -> (I label, Q label) per the interleaving."""
    i_label = np.zeros_like(labels)
    q_label = np.zeros_like(labels)
    for j in range(axis_bits):
        # symbol bit positions 2j (I) and 2j+1 (Q), MSB first within the axis
        shift_i = 2 * axis_bits - 1 - 2 * j
        shift_q = shift_i - 1
        i_label = (i_label << 1) | ((labels >> shift_i) & 1)
        q_label = (q_label << 1) | ((labels >> shift_q) & 1)
    return i_label, q_label


def _bits_to_labels(bits: np.ndarray, bps: int) -> np.ndarray:
    if bits.shape[-1] % bps:
        raise ValueError("bit count must be a multiple of bits_per_symbol")
    shaped = bits.reshape(*bits.shape[:-1], -1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return (shaped * weights).sum(axis=-1)


def map_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Symbols for a flat or (streams, n) bit array, MSB-first labels."""
    bits = np.asarray(bits, dtype=np.int64)
    return c.points[_bits_to_labels(bits, c.bits_per_symbol)]


def _axis_hard(values: np.ndarray, c: Constellation) -> np.ndarray:
    d2 = (values[..., None] - c.axis_levels) ** 2
    return np.argmin(d2, axis=-1)


def _labels_to_bits(labels: np.ndarray, bps: int) -> np.ndarray:
    shifts = np.arange(bps - 1, -1, -1)
    bits = (labels[..., None] >> shifts) & 1
    return bits.reshape(*labels.shape[:-1], -1)


def demap_hard(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Nearest-point decision, returned as bits in mapping order."""
    symbols = np.asarray(symbols)
    i_label = _axis_hard(symbols.real, c)
    q_label = _axis_hard(symbols.imag, c)
    ab = c.axis_bits
    label = np.zeros_like(i_label)
    for j in range(ab):
        i_bit = (i_label >> (ab - 1 - j)) & 1
        q_bit = (q_label >> (ab - 1 - j)) & 1
        label = (label << 2) | (i_bit << 1) | q_bit
    return _labels_to_bits(label, c.bits_per_symbol)


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
    n_axis = 1 << ab
    axis_labels = np.arange(n_axis)
    llrs = np.empty((*symbols.shape, c.bits_per_symbol))
    half_nv = noise_var / 2.0
    for axis, values in ((0, symbols.real), (1, symbols.imag)):
        d2 = (values[..., None] - c.axis_levels) ** 2
        for j in range(ab):
            mask1 = ((axis_labels >> (ab - 1 - j)) & 1).astype(bool)
            d0 = np.min(d2[..., ~mask1], axis=-1)
            d1 = np.min(d2[..., mask1], axis=-1)
            llrs[..., 2 * j + axis] = (d1 - d0) / half_nv
    return llrs.reshape(*symbols.shape[:-1], -1) if symbols.ndim > 1 else llrs.reshape(-1)
