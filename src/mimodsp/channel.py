"""I.i.d. Rayleigh channels, pilot-based estimation, the Gram matrix and
channel hardening."""
from __future__ import annotations

from typing import List, Union

import numpy as np

__all__ = [
    "stream_rng",
    "as_rng",
    "draw_iid_rayleigh",
    "estimate_ls",
    "gram",
    "hardening_variance",
]

RngLike = Union[int, np.random.Generator]


def stream_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a named stream under one master seed.

    Streams are split by seeding ``SeedSequence(master_seed)`` with the
    integer tuple ``path`` as spawn key, so (seed, path) pairs map to
    reproducible, non-overlapping streams regardless of how many other
    streams exist or in which order they are drawn from.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


def as_rng(seed_or_rng: RngLike) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def draw_iid_rayleigh(m: int, k: int, rng: RngLike) -> np.ndarray:
    """(m, k) matrix with i.i.d. circularly symmetric CN(0, 1) entries."""
    r = as_rng(rng)
    return (r.standard_normal((m, k)) + 1j * r.standard_normal((m, k))) / np.sqrt(2.0)


def estimate_ls(g: np.ndarray, pilot_snr_db: float, rng: RngLike) -> np.ndarray:
    """Least-squares channel estimate from one block of unitary pilots.

    Users send the columns of a scaled DFT matrix, so the K x K pilot block
    is unitary and the LS estimate is the true channel plus i.i.d.
    CN(0, sigma^2) error with ``sigma^2 = 10 ** (-pilot_snr_db / 10)``.
    ``pilot_snr_db`` runs from -300 dB, as in the configs, to +inf, which
    returns a copy of the true channel.
    """
    _raise(_range_errors("pilot_snr_db", pilot_snr_db, -300.0, np.inf))
    g = np.asarray(g)
    if np.isinf(pilot_snr_db) and pilot_snr_db > 0:
        return g.copy()
    m, k = g.shape
    sigma = 10.0 ** (-pilot_snr_db / 20.0)
    pilots = np.fft.fft(np.eye(k)) / np.sqrt(k)
    y = g @ pilots + sigma * draw_iid_rayleigh(m, k, rng)
    return y @ np.conj(pilots.T)


def gram(g: np.ndarray) -> np.ndarray:
    """K x K Gram matrix ``G^H G``."""
    g = np.asarray(g)
    return np.conj(g.T) @ g


def _count_errors(**counts) -> List[str]:
    """``"<name>: must be at least 1"`` for each count below 1 (``entries
    must``, for a tuple of counts); None passes.

    This, :func:`_range_errors` and :func:`_name_errors` state every rule
    of the configs and entry points; :func:`_raise` raises what they
    return."""
    errs = []
    for name, n in counts.items():
        many = isinstance(n, tuple)
        if n is not None and min(n if many else (n,), default=1) < 1:
            errs.append(f"{name}: {'entries ' if many else ''}"
                        "must be at least 1")
    return errs


def _range_errors(key: str, value, low: float, high: float) -> List[str]:
    """The error of ``key`` if ``value`` (each entry, for a tuple) lies
    outside its stated range [low, high], as NaN does; None passes."""
    many = isinstance(value, tuple)
    for v in value if many else (value,):
        if v is not None and not low <= v <= high:
            bound = f"at most {high}" if v > high else f"at least {low}"
            return [f"{key}: {'entries ' if many else ''}must be {bound}, "
                    f"got {v!r}"]
    return []


def _name_errors(key: str, value, names) -> List[str]:
    """The error of ``key`` unless ``value`` (each entry, for a tuple), in
    any case, is one of the lower-case ``names``."""
    for v in value if isinstance(value, tuple) else (value,):
        if v.lower() not in names:
            return [f"{key}: unknown {v!r}, not one of {sorted(names)}"]
    return []


def _array_errors(m: int, k: int) -> List[str]:
    """The errors of an array of ``m`` antennas serving ``k`` users."""
    errs = _count_errors(m=m, k=k)
    if k > m:
        errs.append(f"k: {k} users exceed {m} antennas")
    return errs


def _raise(errs: List[str], error=ValueError) -> None:
    """Raise ``errs``, if any, as one ``error``."""
    if errs:
        raise error("; ".join(errs))


def hardening_variance(m: int, trials: int, rng: RngLike) -> float:
    """Sample variance of ``||g||^2 / m`` over single-user channel draws.

    For i.i.d. CN(0, 1) entries the statistic concentrates at 1 with
    variance ``1 / m``, which is the usual channel-hardening yardstick.
    """
    _raise(_count_errors(m=m, trials=trials))
    r = as_rng(rng)
    vals = np.empty(trials)
    for t in range(trials):
        g = draw_iid_rayleigh(m, 1, r)
        vals[t] = float(np.sum(np.abs(g) ** 2)) / m
    return float(np.var(vals))

