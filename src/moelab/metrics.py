"""Voronoi cell assignment and the parameter-space loss functions D1/D2/D3,
plus Hellinger-distance estimators between conditional densities.

The three losses share one skeleton: assign every fitted component to the
nearest true component, score each true component's cell by weighted parameter
differences plus a weight-aggregation term, and take the maximum of the cell
sums over all K-subsets of true components.  They differ only in the exponents
applied inside cells with more than one member:

* D1: first powers everywhere (exact-specified regime),
* D2: exponents rbar(|C|) on the gating slope and intercept differences and
  rbar(|C|)/2 on the expert slope and scale differences (Gaussian experts),
* D3: squares (strongly identifiable expert families).

The outer maximum over all K-subsets is the sum of the K largest cell terms;
an explicit list of candidate subsets is searched one by one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import MixingMeasure, log_joint
from .polysys import rbar_fn

ALL_TERMS = frozenset({"beta1", "a", "b", "sigma", "weight"})
EXPERT_TERMS = frozenset({"a", "b", "sigma"})


@dataclass(frozen=True)
class VoronoiAssignment:
    """For each true component j, the set of fitted indices nearest to it."""

    cells: tuple

    def __post_init__(self):
        cells = tuple(tuple(sorted(int(i) for i in cell)) for cell in self.cells)
        flat = [i for cell in cells for i in cell]
        if sorted(flat) != list(range(len(flat))):
            raise InvalidArgumentError("cells must partition the fitted indices")
        object.__setattr__(self, "cells", cells)


def _theta_matrix(G: MixingMeasure) -> np.ndarray:
    """Concatenated parameter vectors (beta1, a, b, sigma), one row per component."""
    return np.concatenate(
        [G.beta1, G.a, G.b[:, None], G.sigma[:, None]], axis=1
    )


def assign_voronoi(G_fit: MixingMeasure, G_true: MixingMeasure) -> VoronoiAssignment:
    """Nearest-true-component assignment under the Euclidean norm on theta.

    Ties go to the smaller true index; empty cells are allowed.
    """
    if G_fit.d != G_true.d:
        raise InvalidArgumentError(f"dimension mismatch: fit d={G_fit.d}, true d={G_true.d}")
    tf = _theta_matrix(G_fit)
    tt = _theta_matrix(G_true)
    dists = np.linalg.norm(tf[:, None, :] - tt[None, :, :], axis=2)
    nearest = np.argmin(dists, axis=1)  # argmin takes the first minimum: smaller j
    cells = tuple(
        tuple(np.nonzero(nearest == j)[0].tolist()) for j in range(G_true.k)
    )
    return VoronoiAssignment(cells=cells)


@dataclass(frozen=True)
class LossReport:
    """A loss value plus the K-subset attaining the outer max and its breakdown."""

    value: float
    argmax_subset: tuple
    per_cell_terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "argmax_subset", tuple(int(j) for j in self.argmax_subset))
        object.__setattr__(self, "per_cell_terms", tuple(float(t) for t in self.per_cell_terms))
        object.__setattr__(self, "value", float(self.value))
        if abs(self.value - sum(self.per_cell_terms)) > 1e-12 * max(1.0, abs(self.value)):
            raise InvalidArgumentError("value must equal the sum of per_cell_terms")

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "argmax_subset": list(self.argmax_subset),
                "per_cell_terms": list(self.per_cell_terms),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LossReport":
        obj = json.loads(text)
        return cls(obj["value"], tuple(obj["argmax_subset"]), tuple(obj["per_cell_terms"]))


def _fitted_weights(G_fit: MixingMeasure, G_true: MixingMeasure, renormalize: bool) -> np.ndarray:
    """exp(beta0_i) of the fitted components, optionally rescaled so that the
    fitted total mass matches the true total mass.

    The likelihood cannot see a common shift of the gating intercepts: it
    scales every exp(beta0_i) by one factor.  Renormalization removes that
    factor; together with :func:`_translated_fit` it scores the fit modulo the
    whole common (beta0, beta1) translation.  Off by default: the loss
    definitions compare raw weights.
    """
    w = np.exp(G_fit.beta0)
    if renormalize:
        w = w * (np.exp(G_true.beta0).sum() / w.sum())
    return w


def _translated_fit(G_fit: MixingMeasure, G_true: MixingMeasure, renormalize: bool) -> MixingMeasure:
    """The fit with every gating slope shifted by one common vector t1, or the
    fit itself when renormalize is off.

    The likelihood cannot see a common shift of the gating slopes either.  t1
    is the exp(beta0)-weighted mean slope of the fit minus the same mean of
    the truth, so the shifted fit does not depend on which member of its
    translation class was fitted, and a translated truth maps back onto the
    truth.  The shift is applied before the Voronoi assignment.
    """
    if not renormalize:
        return G_fit
    w_fit, w_true = np.exp(G_fit.beta0), np.exp(G_true.beta0)
    t1 = w_fit @ G_fit.beta1 / w_fit.sum() - w_true @ G_true.beta1 / w_true.sum()
    return MixingMeasure.from_arrays(
        G_fit.beta0, G_fit.beta1 - t1, G_fit.a, G_fit.b, G_fit.sigma,
        family=G_fit.family, dof=G_fit.dof,
    )


def _loss_skeleton(G_fit, G_true, K, exponent_fn, *, renormalize=False, subsets=None, terms=ALL_TERMS):
    """Shared evaluator: exponent_fn(cell_size) -> (p_gate, p_expert).

    p_gate applies to ||d_beta1|| and |d_b|; p_expert to ||d_a|| and |d_sigma|.
    """
    terms = frozenset(terms)
    if not terms <= ALL_TERMS:
        raise InvalidArgumentError(f"unknown loss terms {terms - ALL_TERMS}")
    k_star = G_true.k
    if not 1 <= K <= k_star:
        raise InvalidArgumentError(f"need 1 <= K <= k*={k_star}, got K={K}")
    w = _fitted_weights(G_fit, G_true, renormalize)
    G_fit = _translated_fit(G_fit, G_true, renormalize)
    assignment = assign_voronoi(G_fit, G_true)
    w_true = np.exp(G_true.beta0)

    d_beta1 = np.linalg.norm(G_fit.beta1[:, None, :] - G_true.beta1[None, :, :], axis=2)
    d_a = np.linalg.norm(G_fit.a[:, None, :] - G_true.a[None, :, :], axis=2)
    d_b = np.abs(G_fit.b[:, None] - G_true.b[None, :])
    d_sigma = np.abs(G_fit.sigma[:, None] - G_true.sigma[None, :])

    cell_term = np.zeros(k_star)
    for j, cell in enumerate(assignment.cells):
        total = 0.0
        if cell:
            p_gate, p_expert = exponent_fn(len(cell))
            for i in cell:
                acc = 0.0
                if "beta1" in terms:
                    acc += d_beta1[i, j] ** p_gate
                if "b" in terms:
                    acc += d_b[i, j] ** p_gate
                if "a" in terms:
                    acc += d_a[i, j] ** p_expert
                if "sigma" in terms:
                    acc += d_sigma[i, j] ** p_expert
                total += w[i] * acc
        if "weight" in terms:
            total += abs(sum(w[i] for i in cell) - w_true[j])
        cell_term[j] = total

    if subsets is None:
        # The K largest terms, the smaller index first on ties: the
        # lexicographically first maximizer over all K-subsets.
        subsets = [np.sort(np.argsort(-cell_term, kind="stable")[:K])]
    best_value = -math.inf
    best_subset = None
    for subset in subsets:
        subset = tuple(sorted(int(j) for j in subset))
        if len(subset) != K or any(not 0 <= j < k_star for j in subset):
            raise InvalidArgumentError(f"subset {subset} is not a K-subset of the true components")
        value = float(sum(cell_term[j] for j in subset))
        if value > best_value:
            best_value = value
            best_subset = subset
    if best_subset is None:
        raise InvalidArgumentError("no candidate subsets supplied")
    return LossReport(
        value=best_value,
        argmax_subset=best_subset,
        per_cell_terms=tuple(cell_term[j] for j in best_subset),
    )


def loss_d1(G_fit, G_true, K, *, renormalize=False, subsets=None, terms=ALL_TERMS) -> LossReport:
    """Exact-specified Voronoi loss: first-power differences in every cell.

    ``terms`` restricts which summands enter (e.g. the expert-only restriction
    {"a", "b", "sigma"}); ``subsets`` restricts the outer max, e.g. to the
    selected sets with positive region mass from
    :func:`moelab.partition.positive_mass_subsets`.  ``renormalize`` scores
    the fit modulo the common (beta0, beta1) translation: fitted weights are
    rescaled to the true total mass and fitted gating slopes shifted by the
    difference of the exp(beta0)-weighted mean slopes, before the Voronoi
    assignment.  A translated truth then scores 0.
    """
    return _loss_skeleton(
        G_fit, G_true, K, lambda m: (1.0, 1.0),
        renormalize=renormalize, subsets=subsets, terms=terms,
    )


def loss_d2(G_fit, G_true, K, rbar_fn, *, renormalize=False, subsets=None) -> LossReport:
    """Over-specified Gaussian loss: slow exponents from the polynomial system.

    Cells of size 1 use first powers; a cell of size m > 1 uses rbar_fn(m) on
    the gating-slope and intercept differences and rbar_fn(m)/2 on the expert
    slope and scale differences.  ``renormalize`` and ``subsets`` act as in
    :func:`loss_d1`.
    """

    def exponents(m):
        if m <= 1:
            return (1.0, 1.0)
        r = float(rbar_fn(m))
        return (r, r / 2.0)

    return _loss_skeleton(
        G_fit, G_true, K, exponents, renormalize=renormalize, subsets=subsets
    )


def loss_d3(G_fit, G_true, K, *, renormalize=False, subsets=None) -> LossReport:
    """Over-specified loss for strongly identifiable expert families: squares.

    ``renormalize`` and ``subsets`` act as in :func:`loss_d1`.
    """
    return _loss_skeleton(
        G_fit, G_true, K, lambda m: (1.0, 1.0) if m <= 1 else (2.0, 2.0),
        renormalize=renormalize, subsets=subsets,
    )


def voronoi_loss(G_fit, G_true, K, metric, *, rbar_policy="exact", renormalize=False,
                 terms=None, subsets=None) -> LossReport:
    """D1, D2 or D3 by name; ``rbar_policy`` sets D2's exponents and ``terms``
    restricts D1's summands (D2 and D3 take every term)."""
    common = dict(renormalize=renormalize, subsets=subsets)
    if metric == "d1":
        return loss_d1(G_fit, G_true, K, terms=ALL_TERMS if terms is None else terms, **common)
    if metric == "d2":
        return loss_d2(G_fit, G_true, K, rbar_fn(rbar_policy), **common)
    if metric == "d3":
        return loss_d3(G_fit, G_true, K, **common)
    raise InvalidArgumentError(f"unknown loss metric {metric!r}")


# ---------------------------------------------------------------------------
# Hellinger distance between conditional densities
# ---------------------------------------------------------------------------

def default_y_grid(G_a: MixingMeasure, G_b: MixingMeasure, bounds, n_points: int = 2001) -> np.ndarray:
    """Quadrature grid spanning every component mean by 8 max scales.

    The mean of each expert varies over the input box; the grid covers the
    extreme means of both measures.  Gaussian and Laplace tails are below
    1e-14 beyond 8 scales.
    """
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    lo, hi = math.inf, -math.inf
    sig_max = 0.0
    for G in (G_a, G_b):
        low_part = np.minimum(G.a * bounds[None, :, 0], G.a * bounds[None, :, 1])
        high_part = np.maximum(G.a * bounds[None, :, 0], G.a * bounds[None, :, 1])
        lo = min(lo, float(np.min(low_part.sum(axis=1) + G.b)))
        hi = max(hi, float(np.max(high_part.sum(axis=1) + G.b)))
        sig_max = max(sig_max, float(G.sigma.max()))
    return np.linspace(lo - 8.0 * sig_max, hi + 8.0 * sig_max, n_points)


# x rows scored per pass of expected_hellinger.  Its (rows, k, y points)
# temporaries take about 2 MiB at k = 3 and the default 2001-point grid;
# blocks of 8 and 32 rows ran slower than 16.
HELLINGER_BLOCK = 16


def _hellinger_rows(G_a, K_a, G_b, K_b, X, y_grid) -> np.ndarray:
    """Pointwise Hellinger distance at every row of X, shape (n,)."""
    y_grid = np.asarray(y_grid, dtype=float).reshape(-1)
    if y_grid.size < 2:
        raise InvalidArgumentError("y_grid needs at least 2 points")
    if np.any(np.diff(y_grid) <= 0):
        raise InvalidArgumentError("y_grid must be strictly increasing")
    root_a = np.sqrt(np.exp(log_joint(G_a, X, y_grid[None, :], K_a)).sum(axis=1))
    root_b = np.sqrt(np.exp(log_joint(G_b, X, y_grid[None, :], K_b)).sum(axis=1))
    h2 = 0.5 * np.trapezoid((root_a - root_b) ** 2, y_grid, axis=-1)
    return np.sqrt(np.clip(h2, 0.0, 1.0))


def hellinger_pointwise(G_a, K_a, G_b, K_b, x, y_grid) -> float:
    """Hellinger distance between the two conditional densities at one x.

    Trapezoid quadrature of (sqrt(g_a) - sqrt(g_b))^2 over the grid, halved,
    square-rooted, clipped to [0, 1].
    """
    return float(_hellinger_rows(G_a, K_a, G_b, K_b, np.reshape(x, (1, -1)), y_grid)[0])


@dataclass(frozen=True)
class HellingerEstimate:
    mean: float
    stderr: float
    n_mc: int


def expected_hellinger(G_a, K_a, G_b, K_b, sampler, n_mc: int, y_grid, seed=0) -> HellingerEstimate:
    """Monte-Carlo average over x of the pointwise Hellinger distance, scored
    HELLINGER_BLOCK draws at a time."""
    if n_mc < 1:
        raise InvalidArgumentError("n_mc must be >= 1")
    rng = np.random.default_rng(seed)
    X = np.asarray(sampler(rng, n_mc), dtype=float)
    vals = np.concatenate([
        _hellinger_rows(G_a, K_a, G_b, K_b, X[i : i + HELLINGER_BLOCK], y_grid)
        for i in range(0, n_mc, HELLINGER_BLOCK)
    ])
    stderr = float(vals.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else 0.0
    return HellingerEstimate(mean=float(vals.mean()), stderr=stderr, n_mc=n_mc)


def two_gaussian_hellinger(mu1, sigma1, mu2, sigma2) -> float:
    """Closed-form Hellinger distance between N(mu1, sigma1^2) and N(mu2, sigma2^2).

    Independent oracle for the quadrature estimator.
    """
    s2 = sigma1**2 + sigma2**2
    h2 = 1.0 - math.sqrt(2.0 * sigma1 * sigma2 / s2) * math.exp(-((mu1 - mu2) ** 2) / (4.0 * s2))
    return math.sqrt(max(h2, 0.0))
