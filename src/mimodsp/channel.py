"""Channel generation, pilot-based estimation, and Gram utilities."""
from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "stream_rng",
    "as_rng",
    "draw_iid_rayleigh",
    "draw_los_ula",
    "estimate_ls",
    "gram",
    "diag_dominance",
    "hardening_variance",
    "rx_power",
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


def draw_los_ula(m: int, k: int, angles_rad: np.ndarray,
                 spacing: float = 0.5) -> np.ndarray:
    """Line-of-sight columns for a uniform linear array.

    Column k is ``exp(j * 2 pi * spacing * m_idx * sin(angle_k))`` over
    antenna index ``m_idx``; ``spacing`` is in carrier wavelengths and
    ``angles_rad`` holds one departure angle per user.
    """
    angles = np.atleast_1d(np.asarray(angles_rad, dtype=float))
    if angles.shape != (k,):
        raise ValueError(f"expected {k} angles, got {angles.shape}")
    idx = np.arange(m)[:, None]
    return np.exp(2j * np.pi * spacing * idx * np.sin(angles)[None, :])


def estimate_ls(g: np.ndarray, pilot_snr_db: float, rng: RngLike) -> np.ndarray:
    """Least-squares channel estimate from one block of unitary pilots.

    Users send the columns of a scaled DFT matrix, so the K x K pilot block
    is unitary and the LS estimate is the true channel plus i.i.d.
    CN(0, sigma^2) error with ``sigma^2 = 10 ** (-pilot_snr_db / 10)``.
    ``pilot_snr_db = inf`` returns a copy of the true channel.
    """
    g = np.asarray(g)
    if np.isinf(pilot_snr_db) and pilot_snr_db > 0:
        return g.copy()
    m, k = g.shape
    r = as_rng(rng)
    sigma = 10.0 ** (-pilot_snr_db / 20.0)
    pilots = np.fft.fft(np.eye(k)) / np.sqrt(k)
    w = (r.standard_normal((m, k)) + 1j * r.standard_normal((m, k))) / np.sqrt(2.0)
    y = g @ pilots + sigma * w
    return y @ np.conj(pilots.T)


def gram(g: np.ndarray) -> np.ndarray:
    """K x K Gram matrix ``G^H G``."""
    g = np.asarray(g)
    return np.conj(g.T) @ g


def diag_dominance(z: np.ndarray) -> float:
    """Largest off-diagonal magnitude over the smallest diagonal magnitude.

    Small values mean the Gram is close to a scaled identity, which is the
    regime the approximate solvers rely on; the ratio shrinks like
    ``1 / sqrt(M)`` for independent Rayleigh columns.
    """
    z = np.asarray(z)
    k = z.shape[0]
    if k == 1:
        return 0.0
    off = np.abs(z - np.diag(np.diag(z)))
    return float(off.max() / np.abs(np.diag(z)).min())


def hardening_variance(m: int, trials: int, rng: RngLike) -> float:
    """Sample variance of ``||g||^2 / m`` over single-user channel draws.

    For i.i.d. CN(0, 1) entries the statistic concentrates at 1 with
    variance ``1 / m``, which is the usual channel-hardening yardstick.
    """
    r = as_rng(rng)
    vals = np.empty(trials)
    for t in range(trials):
        g = draw_iid_rayleigh(m, 1, r)
        vals[t] = float(np.sum(np.abs(g) ** 2)) / m
    return float(np.var(vals))


def rx_power(p_tx: float, g_tx: float, g_rx: float, d: float, exponent: float) -> float:
    """Received power under log-distance path loss: ``g_tx g_rx d^-n p_tx``."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return float(g_tx * g_rx * d ** (-exponent) * p_tx)
