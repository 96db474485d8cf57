"""Reference computations for checking moelab's outputs, written without moelab.

Each function restates a definition directly from its formula, so that a
benchmark run can compare the library against something it does not share
code with:

* the top-K sparse softmax gated Gaussian mixture of experts (log-density,
  mean log-likelihood),
* the Hellinger distance between two conditional densities, in closed form
  for single Gaussian experts and by trapezoid quadrature otherwise,
* the residuals of the polynomial system that sets the over-specified
  exponents, read off as power-series coefficients,
* the positive-mass selected sets of a measure.

A mixture is a ``Mixture`` of plain arrays: beta0 (k,), beta1 (k, d),
a (k, d), b (k,), sigma (k,).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class Mixture(NamedTuple):
    beta0: np.ndarray
    beta1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray


def mixture(beta0, beta1, a, b, sigma) -> Mixture:
    beta0 = np.asarray(beta0, dtype=float).reshape(-1)
    k = beta0.size
    return Mixture(
        beta0,
        np.asarray(beta1, dtype=float).reshape(k, -1),
        np.asarray(a, dtype=float).reshape(k, -1),
        np.asarray(b, dtype=float).reshape(-1),
        np.asarray(sigma, dtype=float).reshape(-1),
    )


# ---------------------------------------------------------------------------
# Gated mixture density
# ---------------------------------------------------------------------------

def topk_mask(logits: np.ndarray, K: int) -> np.ndarray:
    """(n, k) mask of the K largest logits of each row.

    Component i is selected when fewer than K components outrank it; j
    outranks i when its logit is larger, or equal with j < i.  This is the
    selection of a stable descending argsort: ties go to the smaller index.
    """
    k = logits.shape[1]
    li = logits[:, :, None]
    lj = logits[:, None, :]
    earlier = np.arange(k)[None, :] < np.arange(k)[:, None]  # [i, j]: j < i
    outranked_by = (lj > li) | ((lj == li) & earlier[None, :, :])
    return outranked_by.sum(axis=2) < K


def _logsumexp_rows(s: np.ndarray) -> np.ndarray:
    m = s.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.exp(s - m).sum(axis=-1))


def log_gate(mix: Mixture, K: int, X: np.ndarray) -> np.ndarray:
    """(n, k) log gate weights: softmax of beta1.x + beta0 over the top-K
    set ranked by beta1.x alone; -inf outside the set."""
    logits = X @ mix.beta1.T
    scores = np.where(topk_mask(logits, K), logits + mix.beta0[None, :], -np.inf)
    return scores - _logsumexp_rows(scores)[:, None]


def log_density(mix: Mixture, K: int, X, y) -> np.ndarray:
    """log g(y_j | x_j) for paired inputs X (n, d) and responses y (n,)."""
    X = np.asarray(X, dtype=float).reshape(len(y), -1)
    y = np.asarray(y, dtype=float)
    mu = X @ mix.a.T + mix.b[None, :]
    z = (y[:, None] - mu) / mix.sigma[None, :]
    log_f = -0.5 * z * z - np.log(mix.sigma)[None, :] - _HALF_LOG_2PI
    return _logsumexp_rows(log_gate(mix, K, X) + log_f)


def mean_log_likelihood(mix: Mixture, K: int, X, y) -> float:
    return float(np.mean(log_density(mix, K, X, y)))


def density_grid(mix: Mixture, K: int, X, y_grid) -> np.ndarray:
    """(n_x, n_y) conditional densities g(y | x) = sum_i w_i(x) N(y; a_i.x + b_i,
    sigma_i^2) on a y grid at each x."""
    X = np.asarray(X, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    w = np.exp(log_gate(mix, K, X))  # (n_x, k), exactly 0 off the top-K set
    mu = X @ mix.a.T + mix.b[None, :]
    z = (y_grid[None, :, None] - mu[:, None, :]) / mix.sigma[None, None, :]
    phi = np.exp(-0.5 * z * z) / (mix.sigma[None, None, :] * math.sqrt(2.0 * math.pi))
    return np.einsum("xk,xyk->xy", w, phi)


# ---------------------------------------------------------------------------
# Hellinger distance
# ---------------------------------------------------------------------------

def gaussian_hellinger(mu1, s1, mu2, s2):
    """Closed-form Hellinger distance between N(mu1, s1^2) and N(mu2, s2^2)."""
    mu1, s1, mu2, s2 = (np.asarray(v, dtype=float) for v in (mu1, s1, mu2, s2))
    v = s1 * s1 + s2 * s2
    h2 = 1.0 - np.sqrt(2.0 * s1 * s2 / v) * np.exp(-((mu1 - mu2) ** 2) / (4.0 * v))
    return np.sqrt(np.maximum(h2, 0.0))


def hellinger_quadrature(mix_a: Mixture, K_a: int, mix_b: Mixture, K_b: int, X, y_grid) -> np.ndarray:
    """Hellinger distance at each x: trapezoid rule for
    0.5 * integral (sqrt(g_a) - sqrt(g_b))^2 dy, then the square root."""
    y_grid = np.asarray(y_grid, dtype=float)
    diff2 = (np.sqrt(density_grid(mix_a, K_a, X, y_grid)) - np.sqrt(density_grid(mix_b, K_b, X, y_grid))) ** 2
    h2 = 0.5 * np.sum(0.5 * (diff2[:, 1:] + diff2[:, :-1]) * np.diff(y_grid)[None, :], axis=1)
    return np.sqrt(np.clip(h2, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Polynomial system (input dimension 1)
# ---------------------------------------------------------------------------

def _truncated_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of two bivariate series in (u, s), both truncated to degree r
    in each variable, with coefficient C[p, q] of u^p s^q."""
    r1 = A.shape[0]
    C = np.zeros_like(A)
    for p in range(r1):
        for q in range(r1):
            if A[p, q] != 0.0:
                C[p:, q:] += A[p, q] * B[: r1 - p, : r1 - q]
    return C


def series_coefficients(z1, z2, z3, z4, z5, r: int) -> np.ndarray:
    """C[p, q] = sum_i z5_i^2 [u^p s^q] exp(z1_i u + z2_i u s + z3_i s + z4_i s^2)
    for p, q <= r.

    This is the scale-doubled convention: one power of s from z4 counts as
    two, because the exponent carries z4 s^2.  The (eta1, eta2) equation of
    the system is C[eta1, eta2] = 0 for 1 <= eta1 + eta2 <= r.
    """
    z1, z2, z3, z4, z5 = (np.asarray(v, dtype=float).reshape(-1) for v in (z1, z2, z3, z4, z5))
    total = np.zeros((r + 1, r + 1))
    for i in range(z3.size):
        P = np.zeros((r + 1, r + 1))
        P[1, 0], P[1, 1], P[0, 1] = z1[i], z2[i], z3[i]
        if r >= 2:
            P[0, 2] = z4[i]
        # P has no constant term, so P^j only reaches u^p s^q with j <= p + q <= 2r.
        term = np.zeros((r + 1, r + 1))
        term[0, 0] = 1.0
        series = term.copy()
        for j in range(1, 2 * r + 1):
            term = _truncated_product(term, P) / j
            series += term
        total += z5[i] ** 2 * series
    return total


def max_abs_residual(z1, z2, z3, z4, z5, r: int) -> float:
    """Largest |C[eta1, eta2]| over the equations of the order-r system."""
    C = series_coefficients(z1, z2, z3, z4, z5, r)
    return max(abs(C[p, q]) for p in range(r + 1) for q in range(r + 1) if 1 <= p + q <= r)


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

# A set has positive mass when it is chosen at no fewer than this many sample
# inputs: moelab.partition's default threshold of 2/n_mc, as a count.
MIN_COUNT = 2


def positive_mass_subsets(mix: Mixture, K: int, X) -> list:
    """Selected sets (sorted index tuples) chosen at no fewer than MIN_COUNT
    of the sample inputs X, in ascending order."""
    mask = topk_mask(np.asarray(X, dtype=float) @ mix.beta1.T, K)
    codes, counts = np.unique(mask @ (1 << np.arange(mask.shape[1])), return_counts=True)
    sets = [tuple(i for i in range(mask.shape[1]) if code >> i & 1)
            for code, c in zip(codes.tolist(), counts.tolist()) if c >= MIN_COUNT]
    return sorted(sets)

