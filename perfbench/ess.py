"""Rank-normalized split-R-hat and bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC" (arXiv 1903.08008): chains are split in
half, draws are replaced by normal scores of their pooled ranks, and the
autocorrelation sum is truncated by Geyer's initial monotone sequence.

Every function takes draws of one scalar quantity as an array of shape
(chains, draws).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

__all__ = ["bulk_ess", "split_rhat"]


def _as_chains(draws) -> np.ndarray:
    x = np.asarray(draws, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError(f"expected (chains, draws >= 4) draws, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("draws are not all finite")
    return x


def _split(x: np.ndarray) -> np.ndarray:
    """Each chain cut into its first and second half; an odd middle draw is
    dropped so that both halves have the same length."""
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, -half:]], axis=0)


def _z_scale(x: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled average ranks, with Blom's offsets."""
    ranks = rankdata(x, method="average", axis=None).reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased (divisor n) autocovariance of each chain at lags 0..n-1."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    n_fft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=n_fft, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=n_fft, axis=1)[:, :n] / n


def _ess(x: np.ndarray) -> float:
    """ESS of (chains, draws) by Geyer's initial monotone sequence over the
    multi-chain autocorrelation estimate of Vehtari et al., eq. (10)."""
    m, n = x.shape
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        raise ValueError("draws are constant; ESS is undefined")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Initial positive sequence: sum pairs (rho[2k], rho[2k+1]) while the
    # pair sum stays positive.
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: negative[0]] if negative.size else pairs
    # Initial monotone sequence: pair sums never increase.
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    total = m * n
    return float(total / max(tau, 1.0 / math.log10(total)))


def bulk_ess(draws) -> float:
    """Bulk ESS: the ESS of the rank-normalized split chains."""
    return _ess(_z_scale(_split(_as_chains(draws))))


def _rhat(x: np.ndarray) -> float:
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean()
    between = n * x.mean(axis=1).var(ddof=1)
    return math.sqrt(((n - 1.0) / n * within + between / n) / within)


def split_rhat(draws) -> float:
    """Rank-normalized split-R-hat: the larger of the bulk R-hat and the
    R-hat of the draws folded about their median."""
    split = _split(_as_chains(draws))
    folded = np.abs(split - np.median(split))
    return max(_rhat(_z_scale(split)), _rhat(_z_scale(folded)))
