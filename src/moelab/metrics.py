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
* D3: squares, the exponents of strongly identifiable experts; moelab's
  experts are Gaussian, whose over-specified exponents are D2's, so D3 is a
  comparison loss for them.

The assignment is one (k,) array, the index of each fitted component's
nearest true component.  :func:`assign_voronoi` turns it into cells; the
losses score every fitted component against its own true component and sum
each cell with ``np.bincount`` over that index.

The outer maximum is one reduction over candidate K-subsets, the K largest
cell terms or an explicit list: the first largest sum.  A NaN cell term (an
overflowing weight times a zero distance) ranks first and its sum is the
max, so the loss is NaN, which a sweep reports as a failed row.

:func:`score` turns a :class:`LossSpec` into one of these losses or the
expected Hellinger distance; the sweeps and the CLI all score through it.

The Hellinger estimators integrate each conditional density over a y grid
from each input's K selected experts only: their (K, n, m) joint is
``model._selected_log_joint``, the rows of ``log_joint``'s (k, n, m) one
that are not -inf, so each density sums the same terms in the same order,
bit for bit, at a K/k share of the exponentials and sums.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import partition
from .errors import InvalidArgumentError
from .model import (
    MixingMeasure,
    _as_rows,
    _check_sparsity,
    _checked_box,
    _exp,
    _selected_log_joint,
    _softmax,
    uniform_box_sampler,
)
from .polysys import rbar, rbar_fn

ALL_TERMS = frozenset({"beta1", "a", "b", "sigma", "weight"})
METRICS = ("d1", "d2", "d3", "hellinger")


@dataclass(frozen=True)
class LossSpec:
    """Which discrepancy a sweep reports, and how it is evaluated.

    D1, D2 and D3 take their outer max over the data_K-subsets of the truth's
    components; ``positive_mass_only`` restricts it to the subsets flagged by
    ``partition.positive_mass_subsets`` at ``partition.MASS_N_MC`` draws.
    :func:`score` turns a spec into a loss.
    """

    metric: str = "d1"
    rbar_policy: str = "exact"
    renormalize: bool = False  # score modulo the common (beta0, beta1) translation
    terms: tuple = None  # D1 term restriction, e.g. ("a", "b", "sigma")
    positive_mass_only: bool = False
    hellinger_n_mc: int = 200
    y_points: int = 2001

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidArgumentError(f"metric must be one of {METRICS}")
        rbar(2, self.rbar_policy)  # raises on an unknown policy
        if self.positive_mass_only and self.metric == "hellinger":
            raise InvalidArgumentError("positive_mass_only restricts D1, D2 and D3, not hellinger")
        if self.terms is not None:
            if self.metric != "d1":
                raise InvalidArgumentError(f"loss terms restrict D1 only, not {self.metric}")
            if not set(self.terms) <= ALL_TERMS:
                raise InvalidArgumentError(f"unknown loss terms {set(self.terms) - ALL_TERMS}")
        for name, low in (("hellinger_n_mc", 1), ("y_points", 2)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise InvalidArgumentError(f"{name} must be an integer >= {low}, got {value!r}")


def _nearest(G_fit: MixingMeasure, G_true: MixingMeasure) -> np.ndarray:
    """(k,) index of each fitted component's nearest true component under the
    Euclidean norm on theta = (beta1, a, b, sigma); ties go to the smaller
    true index."""
    if G_fit.d != G_true.d:
        raise InvalidArgumentError(f"dimension mismatch: fit d={G_fit.d}, true d={G_true.d}")
    tf, tt = (np.concatenate([G.beta1, G.a, G.b[:, None], G.sigma[:, None]], axis=1)
              for G in (G_fit, G_true))
    return np.argmin(np.linalg.norm(tf[:, None, :] - tt[None, :, :], axis=2), axis=1)


def assign_voronoi(G_fit: MixingMeasure, G_true: MixingMeasure) -> tuple:
    """The Voronoi cells: for each true component, the sorted tuple of the
    fitted indices nearest to it (:func:`_nearest`); cells may be empty."""
    near = _nearest(G_fit, G_true)
    return tuple(tuple(np.flatnonzero(near == j).tolist()) for j in range(G_true.k))


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


def _scored_fit(G_fit: MixingMeasure, G_true: MixingMeasure, renormalize: bool):
    """(weights, fitted measure) the losses score: raw, exp(beta0_i) and the fit.

    The likelihood cannot see a common shift of the gating intercepts, nor
    one of the gating slopes.  With ``renormalize`` the weights are the fit's
    softmax of beta0 (:func:`~moelab.model._softmax`) times the truth's total
    mass, and every slope is shifted by t1, the fit's softmax-weighted mean
    slope minus the truth's.  The fit is then scored modulo the whole common
    (beta0, beta1) translation, of any size: it does not matter which member
    of its translation class was fitted, and a translated truth maps back
    onto the truth.  The shift is applied before the Voronoi assignment.  Off
    by default: the loss definitions compare raw weights.
    """
    if not renormalize:
        return np.exp(G_fit.beta0), G_fit
    p, p_true = (_softmax(G.beta0[:, None].copy())[1][:, 0] for G in (G_fit, G_true))
    t1 = p @ G_fit.beta1 - p_true @ G_true.beta1
    G_fit = MixingMeasure.from_arrays(G_fit.beta0, G_fit.beta1 - t1, G_fit.a, G_fit.b, G_fit.sigma)
    return p * np.exp(G_true.beta0).sum(), G_fit


# A fit with huge parameters (exp(beta0) or a distance's power overflowing)
# scores an infinite or NaN loss, without a warning.
@np.errstate(over="ignore", invalid="ignore")
def _loss_skeleton(G_fit, G_true, K, exponent_fn, *, renormalize=False, subsets=None, terms=ALL_TERMS):
    """Shared evaluator: exponent_fn(cell_size) -> (p_gate, p_expert) for
    cells of two or more members; singleton and empty cells take first powers.

    p_gate applies to ||d_beta1|| and |d_b|; p_expert to ||d_a|| and |d_sigma|.
    Each fitted component is scored against its nearest true component, and
    a cell's term is the bincount of its members' scores over that index.
    """
    k_star = G_true.k
    _check_sparsity(K, k_star)
    w, G_fit = _scored_fit(G_fit, G_true, renormalize)
    near = _nearest(G_fit, G_true)
    exponents = [(1.0, 1.0) if m <= 1 else exponent_fn(m) for m in np.bincount(near, minlength=k_star).tolist()]
    p_gate, p_expert = zip(*(exponents[j] for j in near.tolist()))  # per fitted component
    acc = np.zeros(G_fit.k)
    for name, fit, true, p in (("beta1", G_fit.beta1, G_true.beta1, p_gate), ("b", G_fit.b, G_true.b, p_gate),
                               ("a", G_fit.a, G_true.a, p_expert), ("sigma", G_fit.sigma, G_true.sigma, p_expert)):
        if name in terms:
            diff = fit - true[near]
            dist = np.linalg.norm(diff, axis=1) if diff.ndim == 2 else np.abs(diff)
            # Scalar powers: NumPy's array ** can differ from them in the last
            # bit.  A float64 scalar's ** is C pow, as a Python float's is, but
            # overflows to inf where a Python float raises OverflowError.
            acc += [x**e for x, e in zip(dist, p)]
    cell_term = np.bincount(near, weights=w * acc, minlength=k_star)
    if "weight" in terms:
        cell_term += np.abs(np.bincount(near, weights=w, minlength=k_star) - np.exp(G_true.beta0))

    if subsets is None:
        # The K largest terms, a NaN first and the smaller index first on
        # ties: the lexicographically first maximizer over all K-subsets.
        subsets = [np.lexsort((-cell_term, ~np.isnan(cell_term)))[:K]]
    candidates = [tuple(sorted(int(j) for j in subset)) for subset in subsets]
    for subset in candidates:
        if len(subset) != K or any(not 0 <= j < k_star for j in subset):
            raise InvalidArgumentError(f"subset {subset} is not a K-subset of the true components")
    if not candidates:
        raise InvalidArgumentError("no candidate subsets supplied")
    values = [float(sum(cell_term[j] for j in subset)) for subset in candidates]
    best = int(np.argmax(values))  # the first maximizer, or the first NaN
    return LossReport(values[best], candidates[best], tuple(cell_term[j] for j in candidates[best]))


def loss_d1(G_fit, G_true, K, *, renormalize=False, subsets=None, terms=ALL_TERMS) -> LossReport:
    """Exact-specified Voronoi loss: first-power differences in every cell.

    ``terms`` restricts which summands enter (e.g. the expert-only restriction
    {"a", "b", "sigma"}); ``subsets`` restricts the outer max, e.g. to the
    selected sets with positive region mass from
    :func:`moelab.partition.positive_mass_subsets`.  ``renormalize`` scores
    the fit modulo the common (beta0, beta1) translation (:func:`_scored_fit`):
    a translated truth scores 0.
    """
    return _loss_skeleton(
        G_fit, G_true, K, lambda m: (1.0, 1.0),
        renormalize=renormalize, subsets=subsets, terms=terms,
    )


def loss_d2(G_fit, G_true, K, rbar_fn, *, renormalize=False, subsets=None) -> LossReport:
    """Over-specified Gaussian loss: slow exponents from the polynomial system.

    A cell of m >= 2 members uses rbar_fn(m) on the gating-slope and
    intercept differences and rbar_fn(m)/2 on the expert slope and scale
    differences; smaller cells use first powers, as in every loss.
    ``renormalize`` and ``subsets`` act as in :func:`loss_d1`.
    """
    return _loss_skeleton(
        G_fit, G_true, K, lambda m: (float(rbar_fn(m)), rbar_fn(m) / 2.0),
        renormalize=renormalize, subsets=subsets,
    )


def loss_d3(G_fit, G_true, K, *, renormalize=False, subsets=None) -> LossReport:
    """Over-specified loss with squares in cells of two or more members, the
    exponents of strongly identifiable experts; smaller cells use first powers.

    ``renormalize`` and ``subsets`` act as in :func:`loss_d1`.
    """
    return _loss_skeleton(
        G_fit, G_true, K, lambda m: (2.0, 2.0),
        renormalize=renormalize, subsets=subsets,
    )


# ---------------------------------------------------------------------------
# Hellinger distance between conditional densities
# ---------------------------------------------------------------------------

def _check_same_d(G_a: MixingMeasure, G_b: MixingMeasure) -> None:
    """Two measures compared on one input space must share its dimension."""
    if G_a.d != G_b.d:
        raise InvalidArgumentError(f"dimension mismatch: G_a d={G_a.d}, G_b d={G_b.d}")


def default_y_grid(G_a: MixingMeasure, G_b: MixingMeasure, bounds, n_points: int = LossSpec.y_points) -> np.ndarray:
    """Quadrature grid spanning every component mean by 8 max scales.

    The mean of each expert varies over the input box; the grid covers the
    extreme means of both measures.  A Gaussian expert keeps 1.2e-15 of its
    mass beyond 8 scales of its mean.
    """
    _check_same_d(G_a, G_b)
    if not (isinstance(n_points, numbers.Integral) and n_points >= 2):
        raise InvalidArgumentError(f"a y grid needs an integer n_points >= 2, got {n_points!r}")
    bounds = _checked_box(bounds, G_a.d)
    lo, hi = math.inf, -math.inf
    sig_max = max(float(G_a.sigma.max()), float(G_b.sigma.max()))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing grid is rejected below
        for G in (G_a, G_b):
            low_part = np.minimum(G.a * bounds[None, :, 0], G.a * bounds[None, :, 1])
            high_part = np.maximum(G.a * bounds[None, :, 0], G.a * bounds[None, :, 1])
            lo = np.minimum(lo, np.min(low_part.sum(axis=1) + G.b))  # NaN propagates
            hi = np.maximum(hi, np.max(high_part.sum(axis=1) + G.b))
        lo, hi = lo - 8.0 * sig_max, hi + 8.0 * sig_max
        if not np.isfinite(hi - lo):  # a finite width makes both ends and the step finite
            raise InvalidArgumentError(f"the y grid [{lo}, {hi}] of these measures on bounds {bounds.tolist()} "
                                       "overflows")
    return np.linspace(lo, hi, n_points)


# x rows scored per pass of expected_hellinger, into one (K, rows, y points)
# buffer per measure reused for the whole call, K its selected components
# (0.24 MiB per selected component at the default 2001-point grid).  Rows
# are scored independently, so the block size changes no value beyond the
# rounding of the matrix products.  At k = 3, 200 x and 2001 y on a 2-core
# x86 host, the fastest of 12 calls took 14-16 ms at 16 and 32 rows, 16-17 ms
# at 8 and 23 ms at 200, when every component was scored.
HELLINGER_BLOCK = 16


def _quadrature(y_grid) -> tuple:
    """(points, weights) of the trapezoid rule on a grid of at least 2 finite,
    increasing points, the weights halved: weights @ f is Hellinger's
    0.5 * np.trapezoid(f, points) up to rounding, one product per row."""
    y_grid = np.asarray(y_grid, dtype=float).reshape(-1)
    if y_grid.size < 2:
        raise InvalidArgumentError("y_grid needs at least 2 points")
    if not np.all(np.isfinite(y_grid)):
        raise InvalidArgumentError(f"y_grid must be finite, got a point {y_grid[~np.isfinite(y_grid)][0]}")
    steps = np.diff(y_grid)
    if np.any(steps <= 0):
        raise InvalidArgumentError("y_grid must be strictly increasing")
    weights = np.zeros(y_grid.size)
    weights[1:] += steps
    weights[:-1] += steps
    weights *= 0.25  # the trapezoid's half and Hellinger's
    return y_grid, weights


def _root_density(G, K, X, y_grid, out) -> np.ndarray:
    """sqrt of the conditional density of G on the y grid at every row of X,
    (n, m), summed over each row's K selected components only; their
    (K, n, m) joint is computed in ``out`` when given.  The y grid's tails
    sit far below every expert, so the joint is exponentiated by
    :func:`~moelab.model._exp`, clear of np.exp's slow underflow path.  The
    components off a selection add exact zeros to the full (k, n, m) sum,
    so skipping them changes no bit."""
    joint = _selected_log_joint(G, X, y_grid[None, :], K, out=out)
    _exp(joint, out=joint)
    density = joint.sum(axis=0)
    return np.sqrt(density, out=density)


def _hellinger_rows(G_a, K_a, G_b, K_b, X, quadrature, out_a=None, out_b=None) -> np.ndarray:
    """Pointwise Hellinger distance at every row of X, checked (n, d) rows,
    shape (n,), by a :func:`_quadrature`'s points and weights; the two
    joints are computed in out_a and out_b when given."""
    y_grid, weights = quadrature
    gap = _root_density(G_a, K_a, X, y_grid, out_a)
    gap -= _root_density(G_b, K_b, X, y_grid, out_b)
    gap *= gap
    return np.sqrt(np.clip(gap @ weights, 0.0, 1.0))


def hellinger_pointwise(G_a, K_a, G_b, K_b, x, y_grid) -> float:
    """Hellinger distance between the two conditional densities at one x.

    Trapezoid quadrature of (sqrt(g_a) - sqrt(g_b))^2 over the grid, halved,
    square-rooted, clipped to [0, 1].
    """
    _check_same_d(G_a, G_b)
    _check_sparsity(K_a, G_a.k)
    _check_sparsity(K_b, G_b.k)
    X = _as_rows(np.reshape(x, (1, -1)), G_a.d)
    return float(_hellinger_rows(G_a, K_a, G_b, K_b, X, _quadrature(y_grid))[0])


@dataclass(frozen=True)
class HellingerEstimate:
    mean: float
    stderr: float

    @property
    def value(self) -> float:
        """The estimate, named as :attr:`LossReport.value` is."""
        return self.mean


def expected_hellinger(G_a, K_a, G_b, K_b, sampler, n_mc: int, y_grid, seed=0) -> HellingerEstimate:
    """Monte-Carlo average over x of the pointwise Hellinger distance, scored
    HELLINGER_BLOCK draws at a time into two joint buffers allocated once,
    (K_a, rows, m) and (K_b, rows, m).  The draws must be n_mc finite rows."""
    _check_same_d(G_a, G_b)
    _check_sparsity(K_a, G_a.k)
    _check_sparsity(K_b, G_b.k)
    if n_mc < 1:
        raise InvalidArgumentError("n_mc must be >= 1")
    quadrature = _quadrature(y_grid)
    rng = np.random.default_rng(seed)
    X = _as_rows(sampler(rng, n_mc), G_a.d)
    if X.shape[0] != n_mc:
        raise InvalidArgumentError(f"the sampler drew {X.shape[0]} inputs, not n_mc={n_mc}")
    rows, m = min(n_mc, HELLINGER_BLOCK), quadrature[0].size
    buf_a = np.empty((K_a, rows, m))
    buf_b = np.empty((K_b, rows, m))
    blocks = (X[i : i + rows] for i in range(0, n_mc, rows))
    vals = np.concatenate([
        _hellinger_rows(G_a, K_a, G_b, K_b, Xi, quadrature, buf_a[:, : len(Xi)], buf_b[:, : len(Xi)])
        for Xi in blocks
    ])
    stderr = float(vals.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else 0.0
    return HellingerEstimate(mean=float(vals.mean()), stderr=stderr)


def two_gaussian_hellinger(mu1, sigma1, mu2, sigma2) -> float:
    """Closed-form Hellinger distance between N(mu1, sigma1^2) and N(mu2, sigma2^2).

    Independent oracle for the quadrature estimator.
    """
    s2 = sigma1**2 + sigma2**2
    h2 = 1.0 - math.sqrt(2.0 * sigma1 * sigma2 / s2) * math.exp(-((mu1 - mu2) ** 2) / (4.0 * s2))
    return math.sqrt(max(h2, 0.0))


# ---------------------------------------------------------------------------
# Scoring by LossSpec: the one path of the sweeps and of the CLI
# ---------------------------------------------------------------------------

def loss_subsets(spec: LossSpec, G_true: MixingMeasure, K: int, bounds=None, seed=0):
    """The K-subsets a spec's outer max runs over.  Under
    ``positive_mass_only`` they are the truth's selected sets with positive
    region mass on the box (None: the unit box), flagged from
    ``partition.MASS_N_MC`` draws seeded ``seed``; otherwise None, meaning
    every K-subset."""
    if not spec.positive_mass_only:
        return None
    sampler = uniform_box_sampler(_checked_box(bounds, G_true.d))
    return partition.positive_mass_subsets(G_true, K, sampler, partition.MASS_N_MC, seed=seed)


def score(spec: LossSpec, G_fit, K_fit, G_true, K_true, bounds=None, seed=0, subsets=None):
    """The loss ``spec`` names between a fit at sparsity K_fit and the truth
    at K_true: a :class:`LossReport` of D1, D2 or D3, or the
    :class:`HellingerEstimate`; both carry the number as ``value``.

    D1, D2 and D3 take their outer max at K_true, over ``subsets`` when
    given, else over :func:`loss_subsets` of the spec at ``bounds`` and
    ``seed``.  Hellinger averages ``spec.hellinger_n_mc`` inputs drawn
    uniformly from ``bounds`` (None: the unit box) by an rng seeded ``seed``,
    each over the :func:`default_y_grid` of ``spec.y_points`` points.  Every
    metric rejects a fit and a truth of different input dimensions.
    """
    if G_fit.d != G_true.d:
        raise InvalidArgumentError(f"dimension mismatch: fit d={G_fit.d}, true d={G_true.d}")
    if spec.metric == "hellinger":
        bounds = _checked_box(bounds, G_true.d)
        grid = default_y_grid(G_fit, G_true, bounds, spec.y_points)
        return expected_hellinger(G_fit, K_fit, G_true, K_true, uniform_box_sampler(bounds),
                                  spec.hellinger_n_mc, grid, seed=seed)
    if subsets is None:
        subsets = loss_subsets(spec, G_true, K_true, bounds, seed)
    common = dict(renormalize=spec.renormalize, subsets=subsets)
    if spec.metric == "d1":
        return loss_d1(G_fit, G_true, K_true, terms=ALL_TERMS if spec.terms is None else spec.terms,
                       **common)
    if spec.metric == "d2":
        return loss_d2(G_fit, G_true, K_true, rbar_fn(spec.rbar_policy), **common)
    return loss_d3(G_fit, G_true, K_true, **common)
