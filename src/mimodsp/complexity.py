"""Analytic multiplication counts of the detection back ends.

Everything here is a closed-form evaluation; nothing is measured.  Counts
follow the real-multiplication convention (a complex multiply is four real
ones, additions are not counted).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .channel import _count_errors

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
        errs = _count_errors(coherence_uses=coherence_uses)
        if errs:
            raise ValueError(errs[0])
        return self.per_realization + coherence_uses * self.per_use


def _check_sizes(m: int, k: int) -> None:
    if not m >= k >= 1:
        raise ValueError(f"need M >= K >= 1, got M = {m}, K = {k}")


def table2_cost(alg: str, m: int, k: int, l: int | None = None) -> AlgoCost:
    """Real multiplications of the approximate detection back ends.

    Per-realization work covers the Gram computation plus the series,
    factorization, or nothing at all (coordinate descent has no setup);
    per-use work covers the matched filter plus the solve.  ``l`` is the
    series order or sweep count where the algorithm has one.
    """
    _check_sizes(m, k)
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
    return AlgoCost(per_realization=per_real, per_use=per_use)


def exact_inverse_cost(m: int, k: int) -> int:
    """Multiplications for the explicit Gram inverse: ``M K^2 + K^3``."""
    _check_sizes(m, k)
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
        """The counts here; ``table2_cost``'s rules (k <= m, an iteration
        count, a known name) tried one key at a time, the other arguments
        at values they accept, so that its message is prefixed with the
        key at fault; ``AlgoCost.total`` names ``coherence_uses`` itself."""
        errs = _count_errors(m=self.m, k_list=self.k_list)
        if errs:
            raise ValueError("; ".join(errs))
        checks = [("k_list", "chd", self.m, k, None) for k in self.k_list]
        checks += [(key, a, 1, 1, l) for a in self.algorithms
                   for key, l in (("algorithms", 1),
                                  ("nsa_order", self.nsa_order))]
        for key, alg, m, k, l in checks:
            try:
                table2_cost(alg, m, k, l)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        AlgoCost(0, 0).total(self.coherence_uses)
