"""Group-based decentralized processing and interconnect accounting.

Antennas are split into equally sized contiguous groups; each group forms
its partial Gram matrix and matched-filter output locally and only those
K-sized results travel to the central node.  Aggregation is a plain sum,
so the decentralized results equal the centralized ones up to summation
reassociation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .channel import gram

__all__ = [
    "GroupPartition",
    "partition",
    "split_rows",
    "local_gram",
    "aggregate_gram",
    "local_mf",
    "aggregate_mf",
    "InterconnectConfig",
    "interconnect_rate",
]


@dataclass(frozen=True)
class GroupPartition:
    """Contiguous split of ``m`` antennas into ``b`` equal groups."""

    m: int
    b: int

    def __post_init__(self):
        if self.m < 1 or self.b < 1:
            raise ValueError("antenna and group counts must be positive")
        if self.m % self.b:
            raise ValueError(f"group count {self.b} does not divide {self.m} antennas")

    @property
    def c(self) -> int:
        return self.m // self.b

    def rows(self, group: int) -> slice:
        if not 0 <= group < self.b:
            raise IndexError(f"group {group} out of range")
        return slice(group * self.c, (group + 1) * self.c)


def partition(m: int, b: int) -> GroupPartition:
    return GroupPartition(m=m, b=b)


def split_rows(arr: np.ndarray, part: GroupPartition) -> List[np.ndarray]:
    """Views of the per-group row blocks of an (M, ...) array."""
    arr = np.asarray(arr)
    if arr.shape[0] != part.m:
        raise ValueError("row count does not match partition")
    return [arr[part.rows(g)] for g in range(part.b)]


def local_gram(g_hat: np.ndarray, part: GroupPartition) -> List[np.ndarray]:
    """Per-group partial Gram matrices ``G_b^H G_b``."""
    return [gram(g_b) for g_b in split_rows(g_hat, part)]


def aggregate_gram(partials: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of per-group partials in group order (deterministic reduction).

    Partial Grams and matched-filter partials aggregate alike, so
    :func:`aggregate_mf` is this same function.
    """
    if not len(partials):
        raise ValueError("nothing to aggregate")
    acc = partials[0].copy()
    for part_b in partials[1:]:
        acc += part_b
    return acc


def local_mf(g_b: np.ndarray, y_b: np.ndarray) -> np.ndarray:
    """One group's matched-filter partial ``G_b^H y_b``."""
    return np.conj(np.asarray(g_b).T) @ np.asarray(y_b)


aggregate_mf = aggregate_gram


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
        if min(self.r_samp, self.n_data, self.n_sub, self.n_cp, self.w_bits, self.m) <= 0:
            raise ValueError("all interconnect parameters must be positive")
        if self.n_data > self.n_sub:
            raise ValueError("data subcarriers cannot exceed the FFT size")


def interconnect_rate(cfg: InterconnectConfig) -> Tuple[float, float]:
    """Per-antenna useful sample rate and total aggregate bit rate.

    After OFDM processing only the data subcarriers remain, so the useful
    rate is ``r_samp * n_data / (n_sub + n_cp)``; forwarding every
    antenna's samples at ``w_bits`` per complex sample costs
    ``m * r_ofdm * w_bits`` bits per second.
    """
    r_ofdm = cfg.r_samp * cfg.n_data / (cfg.n_sub + cfg.n_cp)
    return r_ofdm, cfg.m * r_ofdm * cfg.w_bits

