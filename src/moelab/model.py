"""Core model: mixing measures, the top-K sparse softmax gate, expert densities
and synthetic data generation.

Conventions used throughout the library:

* A mixing measure is its stacked component arrays: gating biases beta0 (k,)
  and slopes beta1 (k, d), expert slopes a (k, d), intercepts b (k,) and
  scales sigma (k,), row i being component i.  Every estimator (EM, the
  Voronoi losses, Hellinger) works on these arrays directly.
* ``sigma`` is a standard deviation / scale, never a variance.  One convention
  is applied consistently everywhere; rate experiments are invariant to it.
* The gate ranks experts by the gating slopes alone (``beta1 . x``); the bias
  ``beta0`` enters only after selection, inside the softmax.
* Ties in the ranking are broken toward the smaller component index.  Tie
  inputs form a measure-zero set in theory but are reachable in floating point.
* All density work is done in the log domain with max-subtraction, through
  one kernel, :func:`log_joint`: log gate weight plus expert log density per
  component, -inf outside the top-K selection.  Its two halves, the
  :class:`GatePass` and :func:`_expert_log_densities`, are also EM's gate and
  expert density, and EM's log joint is the same sum of the gate's log
  weights and the densities.  The kernel makes four passes over one array:
  the residual, its square, the scale -1 / (2 sigma^2), and one constant per
  component and row, log sigma + log(2 pi) / 2 less the log gate weight.
  Its halves take a mean per component and row, and a scale per component
  or per component and row, so :func:`_selected_log_joint` runs the same
  passes on each input's K selected components only, gathered by the
  gate's top-K mask: Hellinger's (K, n, m) joint, the rows of the (k, n, m)
  one that are not -inf.  A caller that passes ``out=`` (as Hellinger does,
  block by block) allocates no (K, n, m) temporaries.
* Every normalization over the components (the gate's softmax, EM's
  responsibilities, every log-likelihood, the renormalized Voronoi losses'
  weights) is one kernel, :func:`_softmax`.
  An input with no finite score, such as a response no expert gives any
  density, gets logsumexp -inf, with no warning.
* Log joints are exponentiated by :func:`_exp`, which clamps arguments at
  ``_EXP_FLOOR`` and writes 0 below it: in :func:`_softmax` and in the
  Hellinger densities, a far expert's log joint sits thousands of nats
  down, and NumPy's SIMD ``exp`` computes every lane whose result
  underflows on a scalar path.  With NumPy 2.4 on an AVX-512 x86 host a
  lane took about 0.9 ns for a normal result, 4-18 ns below -746, 4 ns at
  -inf and 115 ns in the subnormal band.  A top-K gate's softmax and the
  sampler's gate weights, -inf off the selection, go through :func:`_exp`
  too.  A dense gate's softmax keeps ``np.exp``: its arguments underflow
  only for weights below 1e-304, and the clamp's extra passes would cost it
  more than they save.
* Components sit on axis 0: an array over components and inputs is (k, n),
  or (k, n, m) with m responses per input, and sums over components reduce
  axis 0.  NumPy reduces a short last axis slowly: at n = 1e4 the max over
  k = 3 components takes about 50 times longer on (n, k) than on (k, n).
* Inputs are (n, d) rows, and a :class:`Dataset` stores them column-major
  (Fortran order): the (k, n) @ (n, d) products of EM's gating step and the
  (k, d) @ (d, n) projections then run on BLAS's fast layout for d >= 2.  At
  n = 1e4, d = 2 and k = 3 on a 2-core AVX-512 x86 host, ``resp @ X`` took
  9-10 us column-major against 16-24 us row-major, with equal bits.  Every
  projection ``W @ X.T`` of rows W (k, d) onto the inputs goes through
  :func:`_project`, which at d = 1 multiplies by broadcasting instead: a
  matmul with an inner dimension of 1 took 60-100 us there against 10 us,
  and each entry is one product either way, so the bits are equal.
* An input box is a (d, 2) array of finite lo <= hi pairs, one per input
  dimension.  Every reader of a box checks it with :func:`_checked_box`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AssumptionError, InvalidArgumentError

_LOG_2PI = math.log(2.0 * math.pi)
_FLOAT_MAX = np.finfo(float).max


# eq=False: arrays have no single truth value, so measures compare by identity
@dataclass(frozen=True, eq=False)
class MixingMeasure:
    """k gated Gaussian-expert components as stacked arrays.

    Row i of beta0 (k,), beta1 (k, d), a (k, d), b (k,) and sigma (k,) is
    component i.  The arrays are stored as read-only float copies; a flat
    beta1 or a holding k * d values is read row by row.  The component weight
    exp(beta0_i) is always derived from the gating bias, never stored
    separately.
    """

    beta0: np.ndarray
    beta1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        names = ("beta0", "beta1", "a", "b", "sigma")
        try:
            arrays = [np.array(getattr(self, name), dtype=float) for name in names]
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"measure parameters must be numeric arrays: {exc}") from exc
        k = arrays[0].size
        d = arrays[1].size // max(k, 1)
        if k < 1 or d < 1:
            raise InvalidArgumentError(f"a measure needs k >= 1 and d >= 1, got k={k}, d={d}")
        for name, arr, shape in zip(names, arrays, ((k,), (k, d), (k, d), (k,), (k,))):
            if arr.size != math.prod(shape) or arr.ndim > len(shape) or (arr.ndim == 2 and arr.shape != shape):
                raise InvalidArgumentError(f"{name} of shape {arr.shape} does not fit k={k}, d={d}")
            arr = arr.reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} must be finite, got {arr.tolist()}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.all(self.sigma > 0.0):
            raise InvalidArgumentError(f"sigma must be > 0, got {self.sigma.tolist()}")

    @property
    def k(self) -> int:
        return self.beta0.size

    @property
    def d(self) -> int:
        return self.beta1.shape[1]

    @classmethod
    def from_arrays(cls, beta0, beta1, a, b, sigma):
        """The measure with these arrays; the same as the constructor."""
        return cls(beta0, beta1, a, b, sigma)

    def truth_violations(self) -> list:
        """Names of the modelling assumptions this measure violates as a truth."""
        out = []
        if np.any(self.beta1[-1] != 0.0) or self.beta0[-1] != 0.0:
            out.append("U.2 (last component not pinned to beta1=0, beta0=0)")
        experts = np.column_stack([self.a, self.b, self.sigma]).tolist()
        if len(set(map(tuple, experts))) < self.k:
            out.append("U.3 (expert parameters not pairwise distinct)")
        if not np.any(self.beta1 != 0.0):
            out.append("U.4 (all gating slopes are zero)")
        return out


def _check_truth(G: MixingMeasure) -> MixingMeasure:
    """G if it passes a truth's U.2-U.4 checks, else AssumptionError naming the violations."""
    violations = G.truth_violations()
    if violations:
        raise AssumptionError(violations)
    return G


def true_measure(beta0, beta1, a, b, sigma) -> MixingMeasure:
    """Construct a ground-truth measure, enforcing the U.2-U.4 checks."""
    return _check_truth(MixingMeasure.from_arrays(beta0, beta1, a, b, sigma))


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
        bounds = self.bounds if self.bounds is not None else np.stack([x.min(axis=0), x.max(axis=0)], axis=1)
        bounds = _checked_box(bounds, x.shape[1])
        if np.any(x < bounds[:, 0] - 1e-12) or np.any(x > bounds[:, 1] + 1e-12):
            raise AssumptionError(["U.1 (inputs outside the bounded box)"])
        object.__setattr__(self, "x", np.asfortranarray(x))  # column-major: see the module docstring
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


def _check_sparsity(K: int, k: int, name: str = "K") -> None:
    """The gate selects K of k components, so K is an integer 1 <= K <= k."""
    if not (isinstance(K, numbers.Integral) and 1 <= K <= k):
        raise InvalidArgumentError(f"need 1 <= {name} <= k, got {name}={K}, k={k}")


def _selection_mask(logits: np.ndarray, K: int) -> np.ndarray:
    """Top-K mask of a (k, n) logit matrix, one selection per input.

    Component i ranks behind every j with a larger logit and every j < i with
    an equal one, and is selected iff fewer than K rank ahead of it: the
    order of a stable descending sort, ties to the smaller index.
    """
    k = logits.shape[0]
    ahead = np.zeros(logits.shape, dtype=np.intp)
    for j in range(k):
        ahead[:j] += logits[j] > logits[:j]
        ahead[j + 1 :] += logits[j] >= logits[j + 1 :]
    return ahead < K


def _top_k(logits: np.ndarray, K: int):
    """The gate's selection on (k, n) logits: the :func:`_selection_mask`,
    or None at K = k, where every component is selected."""
    return None if K == logits.shape[0] else _selection_mask(logits, K)


def _project(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W @ X.T, shape (k, n), for rows W (k, d) and inputs X (n, d), bit for
    bit; at d = 1 by a broadcast multiply, which is several times faster
    than a matmul with an inner dimension of 1."""
    return W * X.T if X.shape[1] == 1 else W @ X.T


# exp(x) is a normal float, computed on NumPy's vector path, for x >= this
# floor; log(tiny) is about -708.4, and on AVX-512 the scalar path starts near
# -707.8, so the floor keeps a margin below both.
_EXP_FLOOR = -700.0


def _exp(x: np.ndarray, out=None) -> np.ndarray:
    """np.exp(x) where x >= ``_EXP_FLOOR``, +0.0 below it (and at -inf);
    NaN and +inf pass through.  ``out`` may be x itself.

    The arguments are clamped at the floor before ``np.exp`` and the clamped
    lanes are zeroed after it, so no lane reaches the slow path of underflowing
    results.  A result below exp(-700) ~ 1e-304 is lost, which no sum that
    also holds a term near 1 can see.  ``np.exp(..., where=)`` is no
    substitute: a masked ufunc leaves the SIMD loop.
    """
    keep = np.greater_equal(x, _EXP_FLOOR)  # False at NaN, and NaN * 0 is NaN
    out = np.maximum(x, _EXP_FLOOR, out=out)
    np.exp(out, out=out)
    out *= keep
    return out


def _softmax(e: np.ndarray, exp=_exp):
    """(lse, w): the logsumexp over axis 0, the components, of scores e (k, n)
    or (k, n, m) that may hold -inf, and their softmax weights, in place in e.
    The default ``exp``, :func:`_exp`, gives 0 for -inf lanes and far experts
    without np.exp's slow path; the largest term is exactly 1, so the sum
    cannot see what it drops.  An input with no finite score has lse -inf."""
    m = e.max(axis=0)
    m[m == -np.inf] = 0.0  # no finite score: every term is exp(-inf) = 0
    np.subtract(e, m, out=e)
    exp(e, out=e)
    Z = e.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return m + np.log(Z), np.divide(e, Z, out=e)


class GatePass(NamedTuple):
    """The top-K softmax gate at fixed (beta0, beta1) on fixed inputs.

    ``logw`` are the log gate weights (k, n), -inf off the selection: the
    scores beta1 . x + beta0 less ``lse``, their logsumexp over components
    (n,).  ``w`` are the weights (k, n), the scores' :func:`_softmax`.
    """

    beta0: np.ndarray
    beta1: np.ndarray
    logw: np.ndarray
    lse: np.ndarray
    w: np.ndarray

    @classmethod
    def at(cls, X, beta0, beta1, K: int) -> GatePass:
        """The gate at (beta0, beta1) under the top-K selection of beta1."""
        logits = _project(beta1, X)
        return cls._of(beta0, beta1, _top_k(logits, K), logits)

    @classmethod
    def under(cls, X, beta0, beta1, mask) -> GatePass:
        """The gate at (beta0, beta1) under a given selection (None: all)."""
        return cls._of(beta0, beta1, mask, _project(beta1, X))

    @classmethod
    def _of(cls, beta0, beta1, mask, logits) -> GatePass:
        """The gate from fresh logits beta1 . x, made its log weights in place:
        -inf off ``mask``, plus beta0, less their logsumexp.  A masked gate
        exponentiates by :func:`_exp`."""
        if mask is not None:
            logits = np.where(mask, logits, -np.inf)
        logits += beta0[:, None]
        lse, w = _softmax(logits.copy(), np.exp if mask is None else _exp)
        logits -= lse
        return cls(beta0, beta1, logits, lse, w)


def gate_log_weights(G: MixingMeasure, X, K: int) -> np.ndarray:
    """Log gate weights for a batch of inputs, shape (k, n).

    Entries outside the per-input top-K selection are -inf.  The ranking
    uses the slopes only; the bias is added before the softmax.
    """
    X = _as_rows(X, G.d)
    _check_sparsity(K, G.k)
    return GatePass.at(X, G.beta0, G.beta1, K).logw


def _expert_log_densities(X, y, a, b, sigma, out=None, logw=None) -> np.ndarray:
    """Gaussian log N(y | a_i.x + b_i, sigma_i^2), plus ``logw`` (k, n) when
    given, at stacked expert arrays, on inputs already checked to be finite
    (n, d) rows: (k, n) for y (n,), (k, n, m) for y (n, m) or (1, m).

    Four passes over one array, ``out`` when given: the residual r = y - mu,
    r *= r (:func:`_squared_residuals`), then r *= -1 / (2 sigma^2) and
    r -= log sigma + log(2 pi) / 2 - logw, one value per component and row
    (:func:`_scaled_densities`).  EM's expert step runs the two halves apart,
    as it reads the squares between them, and Hellinger runs them on each
    row's selected components only (:func:`_selected_log_joint`).  An entry
    is -inf where r * r or its scaled value overflows, and wherever logw is
    -inf, off a top-K selection.  Below sigma ~ 5e-155, 1 / (2 sigma^2) is
    not a float: the factor is clamped at the largest float, which keeps the
    density exact at r = 0 and -inf or far below 0 elsewhere.  Above
    sigma ~ 1.3e154 the factor is -0, and an entry whose r * r overflows is
    NaN; none of these warns.
    """
    return _scaled_densities(_squared_residuals(_means(X, a, b), y, out), sigma[:, None], logw)


def _means(X, a, b) -> np.ndarray:
    """The expert means a_i.x + b_i, (k, n), at every component and row."""
    mu = _project(a, X)
    mu += b[:, None]
    return mu


def _squared_residuals(mu, y, out=None) -> np.ndarray:
    """The kernel's first half: (y - mu)^2 at means mu (c, n), one per
    component and row, in ``out`` when given; for paired y and no ``out``,
    written over mu."""
    if y.ndim == 2:
        mu = mu[:, :, None]
    elif out is None:
        out = mu
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.subtract(y, mu, out=out)
        r *= r
    return r


def _scaled_densities(r, sigma, logw=None) -> np.ndarray:
    """The kernel's second half: the log densities of squared residuals r
    (c, n) or (c, n, m), written over r, at scales sigma, (c, 1) for one per
    component or (c, n) for one per component and row, plus ``logw``
    (c, n) when given."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = np.maximum(-0.5 / sigma**2, -_FLOAT_MAX)
        const = np.log(sigma) + 0.5 * _LOG_2PI
        if logw is not None:
            const = const - logw
        if r.ndim == 3:
            scale, const = scale[:, :, None], const[:, :, None]
        r *= scale
        r -= const
    return r


def _selected_log_joint(G: MixingMeasure, X, y, K: int, out=None) -> np.ndarray:
    """The rows of :func:`log_joint` that the top-K gate selects: at each
    input, its K components' log gate weights plus expert log densities,
    (K, n) or (K, n, m), on inputs already checked to be finite (n, d) rows
    and 1 <= K <= k.  The selected components keep ascending order, so
    component j's slice holds each input's j-th selected component; at K = k
    the selection is every component.  Each input's selection is read from
    the gate's top-K mask, and the gate's log weights and the experts' means
    and scales are gathered by it before the kernel's four passes, which run
    on the K selected components only, in ``out`` when given.
    """
    logits = _project(G.beta1, X)
    mask = _top_k(logits, K)
    logw = GatePass._of(G.beta0, G.beta1, mask, logits).logw
    # nonzero walks the (n, k) transpose input by input, components ascending
    inputs, comps = np.nonzero((np.ones(logw.shape, dtype=bool) if mask is None else mask).T)
    inputs, comps = inputs.reshape(-1, K).T, comps.reshape(-1, K).T  # (K, n)
    at = comps * X.shape[0] + inputs  # their flat positions in a (k, n) array
    mu, logw = _means(X, G.a, G.b).take(at), logw.take(at)
    return _scaled_densities(_squared_residuals(mu, y, out), G.sigma[comps], logw)


def _paired(X: np.ndarray, y) -> np.ndarray:
    """Responses y as (n,), one per row of X, or (n, m) / (1, m), m per row."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim > 2 or y.shape[0] not in (1, X.shape[0]):
        raise InvalidArgumentError(f"y of shape {y.shape} does not pair with {X.shape[0]} inputs")
    return y


def expert_log_density_matrix(G: MixingMeasure, X, y) -> np.ndarray:
    """Per-expert Gaussian log densities log N(y | a_i.x + b_i, sigma_i^2).

    ``y`` is (n,), one response per row of ``X``, giving shape (k, n); or
    (n, m) / (1, m), m responses per row, giving (k, n, m).  Components sit
    on axis 0 either way, so a reduction over them adds whole slices.
    """
    X = _as_rows(X, G.d)
    return _expert_log_densities(X, _paired(X, y), G.a, G.b, G.sigma)


def log_joint(G: MixingMeasure, X, y, K: int, out=None) -> np.ndarray:
    """log gate_i(x) + log f(y | expert i) for every component i, -inf outside
    the top-K selection at x; shaped as :func:`expert_log_density_matrix`,
    components on axis 0: (k, n) for paired y, (k, n, m) for a y grid.

    The gate is evaluated once per row of ``X``, so a y grid of shape (1, m)
    is scored against every row without repeating it.  The log gate weights
    enter the expert densities' per-row constant, so the joint is computed
    in one array, ``out`` when given, by the densities' four passes.
    """
    X = _as_rows(X, G.d)
    y = _paired(X, y)
    return _expert_log_densities(X, y, G.a, G.b, G.sigma, out=out, logw=gate_log_weights(G, X, K))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _checked_box(bounds, d: int = None) -> np.ndarray:
    """Bounds as a (d, 2) float array of finite lo <= hi pairs of finite
    width; None is the unit box.  Without ``d``, every two values are one pair."""
    if bounds is None:
        return np.tile([[0.0, 1.0]], (d, 1))
    try:
        box = np.array(bounds, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"bounds must be numeric: {exc}") from exc
    d = box.size // 2 if d is None else d
    if box.size != 2 * d or d < 1:
        raise InvalidArgumentError(f"bounds need one lo,hi pair per dimension (d={d}), got {box.tolist()}")
    box = box.reshape(d, 2)
    if not (np.all(np.isfinite(box)) and np.all(box[:, 0] <= box[:, 1])):
        raise InvalidArgumentError(f"bounds must be finite with lo <= hi, got {box.tolist()}")
    if any(hi - lo == math.inf for lo, hi in box.tolist()):  # Python floats overflow without a warning
        raise InvalidArgumentError(f"bounds need a finite width hi - lo, got {box.tolist()}")
    return box


def uniform_box_sampler(bounds):
    """Sampler drawing x uniformly from a per-dimension box.

    Returns a callable f(rng, n) -> (n, d) array; the convention shared by the
    Monte-Carlo helpers in :mod:`moelab.partition` and :mod:`moelab.metrics`.
    """
    bounds = _checked_box(bounds)

    def sample(rng, n):
        u = rng.random((int(n), bounds.shape[0]))
        return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])

    return sample


def sample_dataset(G: MixingMeasure, K: int, n: int, seed, bounds=None) -> Dataset:
    """Draw n i.i.d. pairs: x uniform on the box, then y from the gated mixture.

    Deterministic given the seed.  The truth measure must pass the U.2-U.4
    checks; violations raise :class:`AssumptionError` listing them.  A draw
    whose gate or response overflows is an InvalidArgumentError, not a warning.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    _check_truth(G)
    bounds = _checked_box(bounds, G.d)
    rng = np.random.default_rng(seed)
    X = uniform_box_sampler(bounds)(rng, n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing draw is rejected below
        cdf = np.cumsum(_exp(gate_log_weights(G, X, K)), axis=0)  # -inf off a top-K selection
        idx = np.minimum(np.sum(cdf < rng.random(n), axis=0), G.k - 1)
        mu = np.sum(X * G.a[idx], axis=1) + G.b[idx]
        y = mu + G.sigma[idx] * rng.standard_normal(n)
    bad = ~(np.isfinite(cdf[-1]) & np.isfinite(y))
    if bad.any():
        raise InvalidArgumentError(f"the draw at sample index {np.argmax(bad)} overflows on bounds {bounds.tolist()}")
    return Dataset(x=X, y=y, bounds=bounds)


# ---------------------------------------------------------------------------
# Text serialization of measures
# ---------------------------------------------------------------------------

# The expert family every measure document names in its header: the only one
_FAMILY = "gaussian"


def measure_to_text(G: MixingMeasure) -> str:
    """Human-readable measure document; round-trips bit-exactly.

    Header line ``family=gaussian d=<int> k=<int>`` followed by one component
    per line: ``beta0 beta1[0..d) a[0..d) b sigma``.
    """
    head = f"family={_FAMILY} d={G.d} k={G.k}"
    rows = np.column_stack([G.beta0, G.beta1, G.a, G.b, G.sigma])
    lines = [head] + [" ".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _settings(pairs, known, what: str) -> dict:
    """{key: value} of (key, value) pairs; a key outside ``known`` or given
    twice is an error, so a misspelt or repeated setting never passes."""
    out = {}
    for key, value in pairs:
        if key not in known:
            raise InvalidArgumentError(f"unknown {what} key {key!r}")
        if key in out:
            raise InvalidArgumentError(f"repeated {what} key {key!r}")
        out[key] = value
    return out


def measure_from_text(text: str) -> MixingMeasure:
    """The measure of a :func:`measure_to_text` document; the header sets
    each of family, d and k once, and the family must be gaussian."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise InvalidArgumentError("empty measure document")
    head = _settings((tok.partition("=")[::2] for tok in lines[0].split()),
                     ("family", "d", "k"), "measure header")
    try:
        family, d, k = head["family"], int(head["d"]), int(head["k"])
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    except KeyError as exc:
        raise InvalidArgumentError(f"measure header missing field {exc}") from exc
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed measure document: {exc}") from exc
    if family != _FAMILY:
        raise InvalidArgumentError(f"unsupported expert family {family!r}: experts are {_FAMILY}")
    if d < 1 or k < 1:
        raise InvalidArgumentError(f"measure header needs d >= 1 and k >= 1, got d={d}, k={k}")
    if len(rows) != k:
        raise InvalidArgumentError(f"expected {k} component lines, got {len(rows)}")
    for vals in rows:
        if len(vals) != 2 * d + 3:
            raise InvalidArgumentError(f"component line has {len(vals)} fields, expected {2 * d + 3}")
    v = np.array(rows)
    return MixingMeasure(v[:, 0], v[:, 1 : 1 + d], v[:, 1 + d : 1 + 2 * d], v[:, 1 + 2 * d], v[:, 2 + 2 * d])


def _fmt(v: float) -> str:
    """The number format of every text artifact: 17 digits round-trip a float."""
    return format(float(v), ".17g")
