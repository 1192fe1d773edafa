"""Analytic multiplication counts of the detection back ends.

Everything here is a closed-form evaluation; nothing is measured.  Counts
follow the real-multiplication convention (a complex multiply is four real
ones, additions are not counted).
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AlgoCost",
    "table2_cost",
    "exact_inverse_cost",
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

