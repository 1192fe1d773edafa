"""Analytic cost models: multiplication counts, circuit area, converter power.

Everything here is a closed-form evaluation; nothing is measured.  Counts
follow the real-multiplication convention (a complex multiply is four real
ones, additions are not counted).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgoCost",
    "table2_cost",
    "exact_inverse_cost",
    "filter_area",
    "adder_area",
    "multiplier_area",
    "adc_power",
    "dac_fom",
    "dynamic_power",
    "ALGORITHMS",
    "ITERATIVE",
]

ALGORITHMS = ("nsa", "chd", "mqrd", "cd")
ITERATIVE = ("nsa", "cd")       # the algorithms that take an iteration count


@dataclass(frozen=True)
class AlgoCost:
    """Real-multiplication budget split into setup and steady-state parts."""

    algorithm: str
    per_realization: float
    per_use: float

    def total(self, p: int) -> float:
        if p < 1:
            raise ValueError("coherence length must be at least one use")
        return self.per_realization + p * self.per_use


def table2_cost(alg: str, m: int, k: int, l: int | None = None) -> AlgoCost:
    """Real multiplications of the approximate detection back ends.

    Per-realization work covers the Gram computation plus the series,
    factorization, or nothing at all (coordinate descent has no setup);
    per-use work covers the matched filter plus the solve.  ``l`` is the
    series order or sweep count where the algorithm has one.
    """
    if not m >= k >= 1:
        raise ValueError("need M >= K >= 1")
    alg = alg.lower()
    gram = 2 * m * k * (k + 1)          # Hermitian Gram, triangle only
    mf = 4 * k * m                      # matched filter per use
    if alg in ITERATIVE and (l is None or l < 1):
        raise ValueError(f"{alg} needs an iteration count")
    if alg == "nsa":
        per_real = gram + 8 * k ** 2 + 4 * (l - 1) * k ** 3
        per_use = 4 * k ** 2 + mf
    elif alg == "chd":
        per_real = gram + 4 * k * (k + 1) * (k + 2) / 6
        per_use = 4 * k ** 2 + 4 * k + mf
    elif alg == "mqrd":
        per_real = gram + 4 * k ** 3 / 3 + 3 * k ** 2 / 2 - 31 * k / 3
        per_use = 6 * k ** 2 - 2 * k + mf
    elif alg == "cd":
        per_real = 0
        per_use = 4 * m * (l - 1) + 4 * k * m * l
    else:
        raise ValueError(f"unknown algorithm {alg!r}")
    return AlgoCost(algorithm=alg, per_realization=per_real, per_use=per_use)


def exact_inverse_cost(m: int, k: int) -> int:
    """Multiplications for the explicit Gram inverse: ``M K^2 + K^3``."""
    if not m >= k >= 1:
        raise ValueError("need M >= K >= 1")
    return m * k ** 2 + k ** 3


def adder_area(n: int) -> float:
    """Area model of an n-bit adder: ``n log2 n``."""
    if n < 1:
        raise ValueError("width must be positive")
    return n * np.log2(n)


def multiplier_area(n: int, m: int) -> float:
    """Area model of an n x m bit multiplier: ``n m``."""
    if n < 1 or m < 1:
        raise ValueError("widths must be positive")
    return float(n * m)


def filter_area(t: int, m: int, n: int) -> float:
    """Area model of a T-tap filter with m- and n-bit operands.

    ``2 T (m + n) log2(m + n) + 2 T m n``: accumulators plus multipliers,
    in real arithmetic (it is an area model, not a gate count, so log2 is
    not rounded up).
    """
    if t < 1 or m < 1 or n < 1:
        raise ValueError("taps and widths must be positive")
    return 2 * t * (m + n) * np.log2(m + n) + 2 * t * m * n


def adc_power(fom_j_per_cs: float, enob: float, fs: float) -> float:
    """Converter power from its energy-per-conversion-step figure of merit."""
    if fom_j_per_cs <= 0 or fs <= 0:
        raise ValueError("figure of merit and sample rate must be positive")
    return fom_j_per_cs * 2.0 ** enob * fs


def dac_fom(vpp: float, fout: float, sfdr_db: float, power: float) -> float:
    """Transmit-converter figure of merit ``Vpp f_out 10^(SFDR/20) / P``."""
    if min(vpp, fout, power) <= 0:
        raise ValueError("vpp, fout, and power must be positive")
    return vpp * fout * 10.0 ** (sfdr_db / 20.0) / power


def dynamic_power(alpha_c: float, vdd: float, fs: float) -> float:
    """Switched-capacitance dynamic power ``alpha_C Vdd^2 fs``."""
    if alpha_c < 0 or vdd < 0 or fs < 0:
        raise ValueError("inputs must be nonnegative")
    return alpha_c * vdd ** 2 * fs
