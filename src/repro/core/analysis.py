"""Closed-form analysis of the delay scheme (paper equations 1-12).

These functions implement the paper's Zipfian analysis exactly, so that
simulations can be cross-checked against theory in tests and benchmark
output can report paper-predicted values next to measured ones.

Conventions: ranks are 1-based; ``alpha`` is the Zipf parameter of the
popularity (or update-rate) distribution; ``beta`` is the operator-chosen
penalty exponent; ``fmax`` is the frequency of the most popular item;
``n`` is the number of tuples.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalised Zipf probabilities for ranks 1..n.

    >>> zipf_weights(2, 1.0)
    array([0.66666667, 0.33333333])
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(alpha))
    return weights / weights.sum()


def generalized_harmonic(n: int, s: float) -> float:
    """H(n, s) = sum_{i=1}^{n} i^-s (the generalized harmonic number)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((ranks ** (-float(s))).sum())


def power_sum(n: int, p: float) -> float:
    """sum_{i=1}^{n} i^p, computed stably for large n."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    # Direct vectorised sum; for huge n fall back to the Euler-Maclaurin
    # leading terms to avoid allocating enormous arrays.
    if n <= 10_000_000:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return float((ranks ** float(p)).sum())
    if p == -1.0:
        return math.log(n) + 0.5772156649015329 + 1.0 / (2 * n)
    return (n ** (p + 1)) / (p + 1) + (n ** p) / 2.0


# -- popularity-based delays (§2.1, §2.2) ---------------------------------


def popularity_delay(
    rank: int,
    n: int,
    fmax: float,
    alpha: float,
    beta: float = 0.0,
    cap: Optional[float] = None,
) -> float:
    """Equation (1): delay of the rank-``rank`` tuple, optionally capped.

    ``d = i^(α+β) / (N · fmax)``, clamped to ``cap`` when given (§2.2).
    """
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if fmax <= 0:
        raise ConfigError(f"fmax must be positive, got {fmax}")
    delay = (rank ** (alpha + beta)) / (n * fmax)
    if cap is not None:
        delay = min(delay, cap)
    return delay


def cap_rank(
    n: int, fmax: float, alpha: float, beta: float, dmax: float
) -> int:
    """Equation (5) inverted: the rank M at which delay reaches ``dmax``.

    Tuples ranked deeper than M are all served at the cap. The result is
    clamped to [1, n].
    """
    if dmax <= 0:
        raise ConfigError(f"dmax must be positive, got {dmax}")
    exponent = alpha + beta
    if exponent <= 0:
        return n
    m = (dmax * n * fmax) ** (1.0 / exponent)
    return max(1, min(n, int(math.floor(m))))


def total_extraction_delay(
    n: int,
    fmax: float,
    alpha: float,
    beta: float = 0.0,
    cap: Optional[float] = None,
) -> float:
    """Equations (2)/(6): total delay to extract all ``n`` tuples.

    Without a cap this is ``(1/(N·fmax)) · Σ i^(α+β)``; with a cap the
    tuples past the cap rank M each cost ``dmax`` (eq. 6).
    """
    exponent = alpha + beta
    if cap is None:
        return power_sum(n, exponent) / (n * fmax)
    m = cap_rank(n, fmax, alpha, beta, cap)
    head = power_sum(m, exponent) / (n * fmax)
    # Clamp each head term at the cap too (the rank-M tuple may exceed
    # dmax slightly because M is floored).
    head = min(head, m * cap)
    return head + (n - m) * cap


def median_rank(n: int, alpha: float) -> int:
    """Exact median rank of a Zipf(α) distribution over n items.

    The smallest rank m with cumulative probability >= 1/2: the rank of
    the item that serves the median request.
    """
    weights = zipf_weights(n, alpha)
    cumulative = np.cumsum(weights)
    return int(np.searchsorted(cumulative, 0.5) + 1)


def median_rank_asymptotic(n: int, alpha: float) -> float:
    """Equation (3): the asymptotic order of the median rank.

    Returns the Θ-class representative (no hidden constant):
    ``2^(1/(α-1)) · N`` for α < 1 — note the exponent is negative, so
    this shrinks relative to N as α→1⁻ — ``sqrt(N)`` for α = 1, and
    ``log N`` for α > 1.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if alpha < 1.0:
        return (2.0 ** (1.0 / (alpha - 1.0))) * n
    if alpha == 1.0:
        return math.sqrt(n)
    return math.log(n)


def median_delay(
    n: int,
    fmax: float,
    alpha: float,
    beta: float = 0.0,
    cap: Optional[float] = None,
) -> float:
    """Median per-request delay for legitimate users.

    The delay of the median-rank tuple (the cap does not change the
    median rank, per §2.2).
    """
    return popularity_delay(median_rank(n, alpha), n, fmax, alpha, beta, cap)


def adversary_to_user_ratio(
    n: int,
    fmax: float,
    alpha: float,
    beta: float = 0.0,
    cap: Optional[float] = None,
) -> float:
    """Equations (4)/(7): total adversary delay over median user delay."""
    med = median_delay(n, fmax, alpha, beta, cap)
    if med == 0:
        return math.inf
    return total_extraction_delay(n, fmax, alpha, beta, cap) / med


def ratio_asymptotic(n: int, alpha: float, beta: float) -> float:
    """Equation (4)'s Θ-class representative for d_total/d_med."""
    if alpha < 1.0:
        return (2.0 ** ((alpha + beta) / (1.0 - alpha))) * n
    if alpha == 1.0:
        return n ** ((beta + 3.0) / 2.0)
    return n * (n / math.log(n)) ** (alpha + beta)


# -- update-rate-based delays (§3) ------------------------------------------


def update_delay(
    rank: int,
    n: int,
    rmax: float,
    alpha: float,
    c: float,
    cap: Optional[float] = None,
) -> float:
    """Equation (9): delay of the rank-``rank`` tuple by update rate.

    ``d(i) = (c/N) · i^α / rmax`` where rank 1 is the most frequently
    updated tuple.
    """
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if rmax <= 0:
        raise ConfigError(f"rmax must be positive, got {rmax}")
    if c <= 0:
        raise ConfigError(f"c must be positive, got {c}")
    delay = (c / n) * (rank ** alpha) / rmax
    if cap is not None:
        delay = min(delay, cap)
    return delay


def total_update_extraction_delay(
    n: int, rmax: float, alpha: float, c: float, cap: Optional[float] = None
) -> float:
    """Total extraction delay under the update-rate scheme."""
    if cap is None:
        return (c / (n * rmax)) * power_sum(n, alpha)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    delays = np.minimum((c / n) * (ranks ** alpha) / rmax, cap)
    return float(delays.sum())


def staleness_fraction(c: float, alpha: float) -> float:
    """Equation (12): S ≈ (c/(1+α))^(1/α), clamped to [0, 1].

    The fraction of the dataset guaranteed stale by the time a
    sequential extraction completes, for delay constant ``c``.
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if c <= 0:
        return 0.0
    return min(1.0, (c / (1.0 + alpha)) ** (1.0 / alpha))


def required_c_for_staleness(target: float, alpha: float) -> float:
    """Invert eq. (12): the constant c achieving staleness ``target``."""
    if not 0 < target <= 1:
        raise ConfigError(f"target staleness must be in (0, 1], got {target}")
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    return (target ** alpha) * (1.0 + alpha)


def exact_stale_fraction(
    n: int, rmax: float, alpha: float, c: float, cap: Optional[float] = None
) -> float:
    """Exact staleness from equations (10)-(11), no approximation.

    An item at rank i (update rate ``r_i = rmax·i^-α``) is stale when
    the total extraction delay is at least its update period ``1/r_i``.
    Returns the stale fraction of the dataset.
    """
    d_total = total_update_extraction_delay(n, rmax, alpha, c, cap)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    rates = rmax * ranks ** (-float(alpha))
    stale = int((d_total >= 1.0 / rates).sum())
    return stale / n


# -- distribution fitting -----------------------------------------------------


def fit_zipf_alpha(frequencies: Sequence[float]) -> float:
    """Least-squares estimate of α from rank-ordered frequencies.

    Fits ``log f_i = log f_1 - α log i`` over the strictly positive
    entries of an already rank-sorted frequency list. Used to verify the
    synthetic traces exhibit the skew the paper's datasets had.
    """
    cleaned = [f for f in frequencies if f > 0]
    if len(cleaned) < 2:
        raise ConfigError("need at least two positive frequencies to fit")
    ranks = np.log(np.arange(1, len(cleaned) + 1, dtype=np.float64))
    values = np.log(np.asarray(cleaned, dtype=np.float64))
    slope, _intercept = np.polyfit(ranks, values, 1)
    return float(-slope)
