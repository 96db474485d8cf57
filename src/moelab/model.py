"""Core model: mixing measures, the top-K sparse softmax gate, expert densities
and synthetic data generation.

Conventions used throughout the library:

* ``sigma`` is a standard deviation / scale, never a variance.  One convention
  is applied consistently everywhere; rate experiments are invariant to it.
* The gate ranks experts by the gating slopes alone (``beta1 . x``); the bias
  ``beta0`` enters only after selection, inside the softmax.
* Ties in the ranking are broken toward the smaller component index.  Tie
  inputs form a measure-zero set in theory but are reachable in floating point.
* All density work is done in the log domain with max-subtraction, through
  one kernel, :func:`log_joint`: log gate weight plus expert log density per
  component, -inf outside the top-K selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import AssumptionError, InvalidArgumentError

GAUSSIAN = "gaussian"
LAPLACE = "laplace"
STUDENT_T = "student-t"
FAMILIES = (GAUSSIAN, LAPLACE, STUDENT_T)

_LOG_2PI = math.log(2.0 * math.pi)


def _as_vector(v, name):
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class ExpertParams:
    """Linear-expert parameters: mean a.x + b, scale sigma > 0."""

    a: np.ndarray
    b: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "a", _as_vector(self.a, "a"))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not math.isfinite(self.b) or not math.isfinite(self.sigma):
            raise InvalidArgumentError("b and sigma must be finite")
        if self.sigma <= 0.0:
            raise InvalidArgumentError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class GateParams:
    """Gating parameters of one component: bias beta0, slope vector beta1."""

    beta0: float
    beta1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta1", _as_vector(self.beta1, "beta1"))
        object.__setattr__(self, "beta0", float(self.beta0))
        if not math.isfinite(self.beta0):
            raise InvalidArgumentError("beta0 must be finite")


@dataclass(frozen=True)
class MixingMeasure:
    """An ordered list of gated-expert components plus the expert family.

    The component weight exp(beta0_i) is always derived from the gating bias,
    never stored separately.
    """

    components: tuple
    family: str = GAUSSIAN
    dof: float = 5.0

    def __post_init__(self):
        comps = tuple(
            (gate, expert) if isinstance(gate, GateParams) else (GateParams(*gate), ExpertParams(*expert))
            for gate, expert in self.components
        )
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise InvalidArgumentError("a mixing measure needs at least one component")
        if self.family not in FAMILIES:
            raise InvalidArgumentError(f"unknown family {self.family!r}")
        if self.family == STUDENT_T and not self.dof > 2.0:
            raise InvalidArgumentError("student-t requires dof > 2")
        d = comps[0][0].beta1.size
        for gate, expert in comps:
            if gate.beta1.size != d or expert.a.size != d:
                raise InvalidArgumentError("all components must share the input dimension")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0][0].beta1.size

    # Stacked parameter views, shaped (k,) or (k, d).
    @property
    def beta0(self) -> np.ndarray:
        return np.array([g.beta0 for g, _ in self.components])

    @property
    def beta1(self) -> np.ndarray:
        return np.stack([g.beta1 for g, _ in self.components])

    @property
    def a(self) -> np.ndarray:
        return np.stack([e.a for _, e in self.components])

    @property
    def b(self) -> np.ndarray:
        return np.array([e.b for _, e in self.components])

    @property
    def sigma(self) -> np.ndarray:
        return np.array([e.sigma for _, e in self.components])

    @classmethod
    def from_arrays(cls, beta0, beta1, a, b, sigma, family=GAUSSIAN, dof=5.0):
        beta0 = np.asarray(beta0, dtype=float).reshape(-1)
        k = beta0.size
        beta1 = np.asarray(beta1, dtype=float).reshape(k, -1)
        a = np.asarray(a, dtype=float).reshape(k, -1)
        b = np.asarray(b, dtype=float).reshape(-1)
        sigma = np.asarray(sigma, dtype=float).reshape(-1)
        comps = tuple(
            (GateParams(beta0[i], beta1[i]), ExpertParams(a[i], b[i], sigma[i]))
            for i in range(k)
        )
        return cls(comps, family=family, dof=dof)

    # -- assumption checks ------------------------------------------------
    def is_pinned(self, tol: float = 0.0) -> bool:
        """Last component has beta1 == 0 and beta0 == 0 (identifiability)."""
        gate = self.components[-1][0]
        return bool(np.all(np.abs(gate.beta1) <= tol) and abs(gate.beta0) <= tol)

    def has_distinct_experts(self) -> bool:
        """All (a_i, b_i, sigma_i) triples are pairwise distinct."""
        seen = set()
        for _, e in self.components:
            key = (tuple(e.a.tolist()), e.b, e.sigma)
            if key in seen:
                return False
            seen.add(key)
        return True

    def is_input_dependent(self) -> bool:
        """At least one gating slope is nonzero."""
        return bool(np.any(self.beta1 != 0.0))

    def truth_violations(self) -> list:
        """Names of the modelling assumptions this measure violates as a truth."""
        out = []
        if not self.is_pinned():
            out.append("U.2 (last component not pinned to beta1=0, beta0=0)")
        if not self.has_distinct_experts():
            out.append("U.3 (expert parameters not pairwise distinct)")
        if not self.is_input_dependent():
            out.append("U.4 (all gating slopes are zero)")
        return out


def true_measure(beta0, beta1, a, b, sigma, family=GAUSSIAN, dof=5.0) -> MixingMeasure:
    """Construct a ground-truth measure, enforcing the U.2-U.4 checks."""
    G = MixingMeasure.from_arrays(beta0, beta1, a, b, sigma, family=family, dof=dof)
    violations = G.truth_violations()
    if violations:
        raise AssumptionError(violations)
    return G


@dataclass(frozen=True)
class Dataset:
    """Paired inputs/responses with the bounding box the inputs came from."""

    x: np.ndarray
    y: np.ndarray
    bounds: np.ndarray = field(default=None)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.shape[0] != y.size or y.size < 1:
            raise InvalidArgumentError("need |x| == |y| >= 1")
        bad = ~(np.all(np.isfinite(x), axis=1) & np.isfinite(y))
        if np.any(bad):
            raise InvalidArgumentError(f"non-finite x or y at sample index {int(np.argmax(bad))}")
        bounds = self.bounds
        if bounds is None:
            bounds = np.stack([x.min(axis=0), x.max(axis=0)], axis=1)
        bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
        if bounds.shape[0] != x.shape[1]:
            raise InvalidArgumentError("bounds must have one (lo, hi) pair per dimension")
        if np.any(x < bounds[:, 0] - 1e-12) or np.any(x > bounds[:, 1] + 1e-12):
            raise AssumptionError(["U.1 (inputs outside the bounded box)"])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.x.shape[1]


# ---------------------------------------------------------------------------
# Gate, expert densities and their log joint
# ---------------------------------------------------------------------------

def _as_rows(X, d: int) -> np.ndarray:
    """Inputs as an (n, d) array; a 1-D array holds consecutive d-vectors."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1 and X.size % d == 0:
        X = X.reshape(-1, d)
    if X.ndim != 2 or X.shape[1] != d:
        raise InvalidArgumentError(f"x must have rows of dimension d={d}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("x must be finite")
    return X


def _selection_mask(logits: np.ndarray, K: int) -> np.ndarray:
    """Row-wise top-K mask for a (n, k) logit matrix, stable tie-break."""
    if K == logits.shape[1]:
        return np.ones(logits.shape, dtype=bool)
    order = np.argsort(-logits, axis=1, kind="stable")[:, :K]
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, order, True, axis=1)
    return mask


def _masked_logsumexp(scores: np.ndarray) -> np.ndarray:
    """Logsumexp over axis 1, the components, of scores that may hold -inf.

    Every row must keep at least one finite entry (the gate always selects
    one expert), so the row max is finite and exp(-inf - max) underflows to 0.
    """
    m = np.max(scores, axis=1, keepdims=True)
    return m[:, 0] + np.log(np.sum(np.exp(scores - m), axis=1))


def gate_log_weights(G: MixingMeasure, X, K: int) -> np.ndarray:
    """Log gate weights for a batch of inputs, shape (n, k).

    Entries outside the per-row top-K selection are -inf.  The ranking uses
    the slopes only; the bias is added before the softmax.
    """
    X = _as_rows(X, G.d)
    if not 1 <= K <= G.k:
        raise InvalidArgumentError(f"K must satisfy 1 <= K <= {G.k}, got {K}")
    logits = X @ G.beta1.T
    mask = _selection_mask(logits, K)
    scores = np.where(mask, logits + G.beta0[None, :], -np.inf)
    return scores - _masked_logsumexp(scores)[:, None]


def _log_density_from_z(family: str, z: np.ndarray, sigma, dof: float) -> np.ndarray:
    """log f(y | mu, sigma) given z = (y - mu) / sigma."""
    log_sig = np.log(sigma)
    if family == GAUSSIAN:
        return -0.5 * z * z - log_sig - 0.5 * _LOG_2PI
    if family == LAPLACE:
        return -np.abs(z) - log_sig - math.log(2.0)
    if family == STUDENT_T:
        nu = dof
        c = gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0) - 0.5 * math.log(nu * math.pi)
        return c - log_sig - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)
    raise InvalidArgumentError(f"unknown family {family!r}")


def expert_log_density_matrix(G: MixingMeasure, X, y) -> np.ndarray:
    """Per-expert log densities log f(y | a_i.x + b_i, sigma_i).

    ``y`` is (n,), one response per row of ``X``, giving shape (n, k); or
    (n, m) / (1, m), m responses per row, giving (n, k, m).  Components sit
    on axis 1 either way, so reductions over them run along a long axis.
    """
    X = _as_rows(X, G.d)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim > 2 or y.shape[0] not in (1, X.shape[0]):
        raise InvalidArgumentError(f"y of shape {y.shape} does not pair with {X.shape[0]} inputs")
    mu, sigma = X @ G.a.T + G.b, G.sigma
    if y.ndim == 2:
        mu, sigma = mu[:, :, None], sigma[:, None]
    z = (y[:, None] - mu) / sigma
    return _log_density_from_z(G.family, z, sigma, G.dof)


def log_joint(G: MixingMeasure, X, y, K: int) -> np.ndarray:
    """log gate_i(x) + log f(y | expert i) for every component i, -inf outside
    the top-K selection at x; shaped as :func:`expert_log_density_matrix`.

    The gate is evaluated once per row of ``X``, so a y grid of shape (1, m)
    is scored against every row without repeating it.
    """
    logw = gate_log_weights(G, X, K)
    logf = expert_log_density_matrix(G, X, y)
    return (logw[:, :, None] if logf.ndim == 3 else logw) + logf


def conditional_log_density(G: MixingMeasure, K: int, X, y) -> np.ndarray:
    """log g_G(y | x) = log sum_i gate_i(x) f(y | expert i), shape (n,) for
    paired y or (n, m) for m responses per row."""
    return _masked_logsumexp(log_joint(G, X, y, K))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def uniform_box_sampler(bounds):
    """Sampler drawing x uniformly from a per-dimension box.

    Returns a callable f(rng, n) -> (n, d) array; the convention shared by the
    Monte-Carlo helpers in :mod:`moelab.partition` and :mod:`moelab.metrics`.
    """
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise InvalidArgumentError("bounds must satisfy lo <= hi")

    def sample(rng, n):
        u = rng.random((int(n), bounds.shape[0]))
        return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])

    return sample


def unit_box(d: int) -> np.ndarray:
    return np.tile(np.array([[0.0, 1.0]]), (d, 1))


def sample_dataset(G: MixingMeasure, K: int, n: int, seed, bounds=None) -> Dataset:
    """Draw n i.i.d. pairs: x uniform on the box, then y from the gated mixture.

    Deterministic given the seed.  The truth measure must pass the U.2-U.4
    checks; violations raise :class:`AssumptionError` listing them.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    violations = G.truth_violations()
    if violations:
        raise AssumptionError(violations)
    if bounds is None:
        bounds = unit_box(G.d)
    sampler = uniform_box_sampler(bounds)
    rng = np.random.default_rng(seed)
    X = sampler(rng, n)
    logw = gate_log_weights(G, X, K)
    w = np.exp(logw)
    cdf = np.cumsum(w, axis=1)
    u = rng.random(n)
    idx = np.sum(cdf < u[:, None], axis=1)
    idx = np.minimum(idx, G.k - 1)
    mu = np.sum(X * G.a[idx], axis=1) + G.b[idx]
    sig = G.sigma[idx]
    if G.family == GAUSSIAN:
        y = mu + sig * rng.standard_normal(n)
    elif G.family == LAPLACE:
        y = mu + sig * rng.laplace(0.0, 1.0, size=n)
    else:
        y = mu + sig * rng.standard_t(G.dof, size=n)
    return Dataset(x=X, y=y, bounds=bounds)


# ---------------------------------------------------------------------------
# Text serialization of measures
# ---------------------------------------------------------------------------

def measure_to_text(G: MixingMeasure) -> str:
    """Human-readable measure document; round-trips bit-exactly.

    Header line ``family=<name> d=<int> k=<int> [dof=<float>]`` followed by one
    component per line: ``beta0 beta1[0..d) a[0..d) b sigma``.
    """
    head = f"family={G.family} d={G.d} k={G.k}"
    if G.family == STUDENT_T:
        head += f" dof={_fmt(G.dof)}"
    lines = [head]
    for gate, expert in G.components:
        fields = [gate.beta0, *gate.beta1.tolist(), *expert.a.tolist(), expert.b, expert.sigma]
        lines.append(" ".join(_fmt(v) for v in fields))
    return "\n".join(lines) + "\n"


def measure_from_text(text: str) -> MixingMeasure:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise InvalidArgumentError("empty measure document")
    try:
        head = dict(tok.split("=", 1) for tok in lines[0].split())
        family, d, k = head["family"], int(head["d"]), int(head["k"])
        dof = float(head.get("dof", 5.0))
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    except KeyError as exc:
        raise InvalidArgumentError(f"measure header missing field {exc}") from exc
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed measure document: {exc}") from exc
    if d < 1 or k < 1:
        raise InvalidArgumentError(f"measure header needs d >= 1 and k >= 1, got d={d}, k={k}")
    if len(rows) != k:
        raise InvalidArgumentError(f"expected {k} component lines, got {len(rows)}")
    for vals in rows:
        if len(vals) != 2 * d + 3:
            raise InvalidArgumentError(f"component line has {len(vals)} fields, expected {2 * d + 3}")
    v = np.array(rows)
    return MixingMeasure.from_arrays(
        v[:, 0], v[:, 1 : 1 + d], v[:, 1 + d : 1 + 2 * d], v[:, 1 + 2 * d], v[:, 2 + 2 * d],
        family=family, dof=dof,
    )


def _fmt(v: float) -> str:
    return format(float(v), ".17g")
