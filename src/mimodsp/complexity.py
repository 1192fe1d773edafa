"""Analytic multiplication counts of the detection back ends.

Everything here is a closed-form evaluation; nothing is measured.  Counts
follow the real-multiplication convention (a complex multiply is four real
ones, additions are not counted).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .channel import _array_errors, _count_errors, _name_errors, _raise

__all__ = [
    "AlgoCost",
    "table2_cost",
    "CostTableConfig",
    "exact_inverse_cost",
    "ALGORITHMS",
    "ITERATIVE",
]

ALGORITHMS = ("nsa", "chd", "mqrd", "cd")
ITERATIVE = ("nsa", "cd")       # the algorithms that take an iteration count


@dataclass(frozen=True)
class AlgoCost:
    """Real-multiplication budget split into setup and steady-state parts."""

    per_realization: float
    per_use: float

    def total(self, coherence_uses: int) -> float:
        _raise(_count_errors(coherence_uses=coherence_uses))
        return self.per_realization + coherence_uses * self.per_use


def table2_cost(alg: str, m: int, k: int, l: int | None = None) -> AlgoCost:
    """Real multiplications of the approximate detection back ends.

    Per-realization work covers the Gram computation plus the series,
    factorization, or nothing at all (coordinate descent has no setup);
    per-use work covers the matched filter plus the solve.  ``l`` is the
    series order or sweep count where the algorithm has one.
    """
    _raise(_array_errors(m, k) + _name_errors("alg", alg, ALGORITHMS))
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
    else:   # cd
        per_real = 0
        per_use = 4 * m * (l - 1) + 4 * k * m * l
    return AlgoCost(per_realization=per_real, per_use=per_use)


def exact_inverse_cost(m: int, k: int) -> int:
    """Multiplications for the explicit Gram inverse: ``M K^2 + K^3``."""
    _raise(_array_errors(m, k))
    return m * k ** 2 + k ** 3


@dataclass(frozen=True)
class CostTableConfig:
    """The complexity table: ``algorithms`` at each of ``k_list`` users;
    ``validate`` names bad fields."""

    m: int
    k_list: Tuple[int, ...]
    nsa_order: int = 3
    coherence_uses: int = 512
    algorithms: Tuple[str, ...] = ALGORITHMS

    def validate(self) -> None:
        """The counts and names here; ``table2_cost``'s own rules (k <= m,
        an iteration count) tried one key at a time, so that its message
        is prefixed with the key at fault."""
        _raise(_count_errors(m=self.m, k_list=self.k_list,
                             coherence_uses=self.coherence_uses)
               + _name_errors("algorithms", self.algorithms, ALGORITHMS))
        for key, alg, k in ([("k_list", "chd", k) for k in self.k_list]
                            + [("nsa_order", a, 1) for a in self.algorithms]):
            try:
                table2_cost(alg, self.m, k, self.nsa_order)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
