"""Group-based decentralized processing and interconnect accounting.

Antennas are split into equally sized contiguous groups; each group forms
its partial Gram matrix and matched-filter output locally and only those
K-sized results travel to the central node.  Aggregation is a plain sum,
so the decentralized results equal the centralized ones up to summation
reassociation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .channel import gram

__all__ = ["local_gram", "local_mf", "aggregate", "InterconnectConfig",
           "interconnect_rate"]


def _row_blocks(arr: np.ndarray, groups: int) -> List[np.ndarray]:
    """Views of ``arr``'s rows in ``groups`` equal, contiguous blocks."""
    arr = np.asarray(arr)
    if groups < 1 or len(arr) < 1:
        raise ValueError("antenna and group counts must be positive")
    c, rest = divmod(len(arr), groups)
    if rest:
        raise ValueError(f"group count {groups} does not divide {len(arr)} antennas")
    return [arr[b * c:(b + 1) * c] for b in range(groups)]


def local_gram(g_hat: np.ndarray, groups: int) -> List[np.ndarray]:
    """Per-group partial Gram matrices ``G_b^H G_b``, in group order."""
    return [gram(g_b) for g_b in _row_blocks(g_hat, groups)]


def local_mf(g_hat: np.ndarray, y: np.ndarray, groups: int) -> List[np.ndarray]:
    """Per-group matched-filter partials ``G_b^H y_b``, in group order."""
    return [np.conj(g_b.T) @ y_b for g_b, y_b in
            zip(_row_blocks(g_hat, groups), _row_blocks(y, groups))]


def aggregate(partials: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of per-group partials in group order (deterministic reduction)."""
    if not len(partials):
        raise ValueError("nothing to aggregate")
    return sum(partials[1:], partials[0].copy())


@dataclass(frozen=True)
class InterconnectConfig:
    """OFDM framing and word width behind the aggregation links; the
    defaults are 20 MHz LTE framing at 100 antennas and 24-bit samples."""

    r_samp: float = 30.72e6
    n_data: int = 1200
    n_sub: int = 2048
    n_cp: int = 146
    w_bits: int = 24
    m: int = 100

    def __post_init__(self):
        if not min(self.r_samp, self.n_data, self.n_sub, self.n_cp, self.w_bits, self.m) > 0:
            raise ValueError("all interconnect parameters must be positive")
        if self.n_data > self.n_sub:
            raise ValueError("data subcarriers cannot exceed the FFT size")
        try:
            finite = all(map(math.isfinite, interconnect_rate(self)))
        except OverflowError:   # a count too large for a float
            finite = False
        if not finite:
            raise ValueError("r_samp, w_bits and m: the aggregate rate must "
                             "be finite")


def interconnect_rate(cfg: InterconnectConfig) -> Tuple[float, float]:
    """Per-antenna useful sample rate and total aggregate bit rate.

    After OFDM processing only the data subcarriers remain, so the useful
    rate is ``r_samp * n_data / (n_sub + n_cp)``; forwarding every
    antenna's samples at ``w_bits`` per complex sample costs
    ``m * r_ofdm * w_bits`` bits per second.
    """
    r_ofdm = cfg.r_samp * cfg.n_data / (cfg.n_sub + cfg.n_cp)
    return r_ofdm, cfg.m * r_ofdm * cfg.w_bits

