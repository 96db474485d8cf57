"""Maximum-likelihood fitting by EM.

The E-step and the expert M-step are closed form; the gating parameters have
no closed-form update, so the M-step ascends the expected complete-data
log-likelihood by coordinate (block) gradient steps with backtracking.

The top-K selection at each input is held fixed while the gating blocks move:
the selection is piecewise constant in the parameters, so its gradient is zero
almost everywhere.  Selections are refreshed at the next E-step.  A selection
flip between iterations can in principle lower the data log-likelihood, so the
gating update is reverted outright in that (rare) case; the worst case is an
accepted zero step, which keeps the EM ascent property intact.

EM and :func:`~moelab.model.log_joint` share one gate and one expert
density: :func:`fit` works on a measure's stacked arrays, beta0 (k,),
beta1 (k, d), a (k, d), b (k,) and sigma (k,), from the initialization to
the returned measure, which it builds once.  Its gate is a
:class:`~moelab.model.GatePass`, one evaluation of the selected softmax that
keeps its masked logits, logsumexp and weights.  A gating proposal moves
the logits by a known shift, so it is scored from the current pass's
logsumexp and weights by the softmax shift identity (:func:`_shifted`), with
no masked softmax; only a step too large for the identity gets an exact
pass.  Each M-step only proposes parameters: :func:`fit` builds the exact
gate at the gating step's parameters, under their own top-K selection, and
scores each proposal with one helper (:func:`_scored`), so nothing drifts
across iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidArgumentError
from .model import (
    Dataset,
    GatePass,
    MixingMeasure,
    _check_sparsity,
    _exp,
    _expert_log_densities,
    _masked_logsumexp,
    _project,
    log_joint,
)

# Monotonicity slack per EM step, in mean log-likelihood units.
ASCENT_SLACK = 1e-9
SIGMA_FLOOR = 1e-3  # lower bound of every fitted expert scale


@dataclass(frozen=True)
class InitSpec:
    """Near-truth initialization: a cell plan plus per-parameter jitter.

    ``cell_plan[i]`` names the true component whose parameters seed fitted
    component i; every true component must seed at least one fitted one.
    """

    truth: MixingMeasure
    cell_plan: tuple
    noise_std: float = 0.05

    def __post_init__(self):
        plan = tuple(int(j) for j in self.cell_plan)
        if set(plan) != set(range(self.truth.k)):
            raise InvalidArgumentError(
                f"cell plan {plan} must partition the fitted components over all "
                f"{self.truth.k} true components with no empty cell"
            )
        if not self.noise_std >= 0.0:
            raise InvalidArgumentError("noise_std must be >= 0")
        object.__setattr__(self, "cell_plan", plan)

    @property
    def k(self) -> int:
        return len(self.cell_plan)


# Rejected draws before random_cell_plan samples its surjection directly.  A
# draw is surjective with probability k*! S(k, k*) / k*^k, which is k! / k^k
# at k = k* (2.3e-8 at 20), so rejection alone has no useful bound.
PLAN_DRAWS = 64


def random_cell_plan(k: int, k_star: int, rng) -> tuple:
    """Uniform random surjective assignment of k fitted onto k* true components.

    Up to ``PLAN_DRAWS`` uniform assignments are drawn and the first
    surjective one is kept; after that, :func:`_uniform_surjection` draws
    one.  Both are uniform over the surjections, so the plan is too.
    """
    if not 1 <= k_star <= k:
        raise InvalidArgumentError(f"need 1 <= k* <= k, got k={k}, k*={k_star}")
    for _ in range(PLAN_DRAWS):
        plan = tuple(int(j) for j in rng.integers(0, k_star, size=k))
        if set(plan) == set(range(k_star)):
            return plan
    return _uniform_surjection(k, k_star, rng)


def _uniform_surjection(k: int, k_star: int, rng) -> tuple:
    """A uniform surjection of k items onto k* labels: a uniform partition
    into k* nonempty blocks, its blocks labelled by a random permutation.

    Items k - 1, ..., 0 are placed in turn.  With n items left (this one
    included) and j blocks still to open, the item opens block j - 1 with
    probability S(n - 1, j - 1) / S(n, j), the share of partitions in which
    it is a singleton; otherwise it joins one of the j blocks the remaining
    items will open, uniformly.  S is the Stirling number of the second kind.
    """
    S = [[1]]  # S[n][j] for 0 <= j <= n
    for n in range(1, k + 1):
        S.append([0] + [j * S[n - 1][j] + S[n - 1][j - 1] for j in range(1, n)] + [1])
    block, j = [0] * k, k_star
    for n in range(k, 0, -1):
        if j <= n - 1 and rng.random() >= S[n - 1][j - 1] / S[n][j]:
            block[n - 1] = int(rng.integers(j))
        else:
            j -= 1
            block[n - 1] = j
    labels = rng.permutation(k_star)
    return tuple(int(labels[b]) for b in block)


@dataclass(frozen=True)
class FitConfig:
    """EM configuration; K is the sparsity of the fitted density of init.k components."""

    K: int
    init: InitSpec
    seed: int = 0
    tol: float = 1e-6
    max_iters: int = 2000
    gating_lr: float = 0.1
    gating_steps_per_m: int = 5

    def __post_init__(self):
        _check_sparsity(self.K, self.init.k)
        _check_fit_settings(self.tol, self.max_iters, self.gating_lr, self.gating_steps_per_m)


def _check_fit_settings(tol, max_iters, gating_lr, gating_steps_per_m) -> None:
    """Reject EM settings that would stall or corrupt a fit instead of failing it.

    A NaN tol never stops EM, a NaN gating_lr freezes the gate, and a negative
    tol turns fits into NaN; max_iters = 0 is allowed and returns the
    initialization untouched (pipeline checks).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")
    if not (np.isfinite(gating_lr) and gating_lr > 0):
        raise InvalidArgumentError(f"gating_lr must be finite and > 0, got {gating_lr}")
    if max_iters < 0 or gating_steps_per_m < 1:
        raise InvalidArgumentError("max_iters >= 0 and gating_steps_per_m >= 1 required")


@dataclass(frozen=True)
class FitResult:
    """A fitted measure and what EM did to reach it.

    ``reverted_experts`` and ``reverted_gating`` count the iterations whose
    expert or gating update the ascent guard undid; ``backtracks`` counts the
    step halvings of the gating line search.
    """

    measure: MixingMeasure
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    reverted_experts: int
    reverted_gating: int
    backtracks: int
    wallclock: float


def init_measure(spec: InitSpec, seed) -> MixingMeasure:
    """Jitter every parameter of the planned true component independently.

    The scale jitter is applied in the log domain so positivity is preserved;
    the pinning convention of the truth is NOT enforced on the fitted measure.
    """
    rng = np.random.default_rng(seed)
    t, s = spec.truth, spec.noise_std
    # one component at a time, in the order beta0, beta1, a, b, sigma
    rows = [(t.beta0[j] + s * rng.standard_normal(),
             t.beta1[j] + s * rng.standard_normal(t.d),
             t.a[j] + s * rng.standard_normal(t.d),
             t.b[j] + s * rng.standard_normal(),
             t.sigma[j] * np.exp(s * rng.standard_normal())) for j in spec.cell_plan]
    return MixingMeasure(*map(np.array, zip(*rows)))


def _resp_from_joint(joint: np.ndarray, norm: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(norm)
    if np.any(bad):
        raise DegenerateDataError(int(np.nonzero(bad)[0][0]))
    # _exp: exactly 0 off the selection (-inf) and for far experts, whose
    # thousands of nats below the norm would put np.exp on its slow path
    resp = joint - norm
    return _exp(resp, out=resp)


def e_step(data: Dataset, G: MixingMeasure, K: int) -> np.ndarray:
    """Responsibilities r[i, j], shape (k, n), columns summing to 1, exactly
    zero outside the top-K selection at x_j."""
    joint = log_joint(G, data.x, data.y, K)
    return _resp_from_joint(joint, _masked_logsumexp(joint))


def _row_products(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The per-row terms of the expert step's normal equations, one row each:
    z_i z_j for i, j < p (p * p rows), then z_i y (p rows), on the design
    Z (n, p); shape (p * p + p, n).

    One row per term keeps the product with the (k, n) responsibilities on
    a fast matrix path, about three times faster than one column per term at
    n = 1e4.  The array depends only on the data, so :func:`fit` builds it
    once."""
    ZT = np.ascontiguousarray(Z.T)
    p, n = ZT.shape
    out = np.empty((p * p + p, n))
    np.multiply(ZT[:, None, :], ZT[None, :, :], out=out[: p * p].reshape(p, p, n))
    np.multiply(ZT, y, out=out[p * p :])
    return out


def _ridge_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One normal-equation system, with a ridge fallback when it is singular
    or its solution is not finite."""
    try:
        beta = np.linalg.solve(A, rhs)
        if np.all(np.isfinite(beta)):
            return beta
    except np.linalg.LinAlgError:
        pass
    lam = 1e-8 * np.trace(A) / A.shape[0]
    if not lam > 0:
        lam = 1e-12
    return np.linalg.solve(A + lam * np.eye(A.shape[0]), rhs)


def _wls_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked weighted least squares: beta (m, p) from the normal equations
    A (m, p, p) and rhs (m, p) in one batched solve.  A singular or
    non-finite system fails the batch, which is then solved system by system
    through :func:`_ridge_solve`; a regular system solves to the same bits
    either way."""
    try:
        beta = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
        if np.all(np.isfinite(beta)):
            return beta
    except np.linalg.LinAlgError:
        pass
    return np.array([_ridge_solve(A_i, rhs_i) for A_i, rhs_i in zip(A, rhs)])


def m_step_experts(Z, y, products, resp, a, b, sigma):
    """Closed-form Gaussian expert updates on the design Z = [X, 1] (n, d + 1):
    a weighted least squares per component, then its weighted residual scale,
    floored at ``SIGMA_FLOOR``.

    The components are solved together: one product of ``resp`` (k, n) with
    ``products``, the design's row products ``_row_products(Z, y)`` that
    :func:`fit` builds once per fit, gives every component's normal
    equations, one batched solve their coefficients, and one pass their
    residual scales.  Components with zero responsibility mass are left
    unchanged.  Returns new stacked (a (k, d), b (k,), sigma (k,)), and raises
    :class:`InvalidArgumentError` unless all are finite and sigma > 0.
    """
    p = Z.shape[1]
    k = resp.shape[0]
    sums = products @ resp.T  # (p * p + p, k)
    mass = resp.sum(axis=1)
    live = mass > 0.0
    beta = np.zeros((k, p))
    beta[live] = _wls_solve(sums[: p * p].T.reshape(k, p, p)[live], sums[p * p :].T[live])
    resid = y - _project(beta, Z)
    resid *= resid
    a, b, sigma = a.copy(), b.copy(), sigma.copy()
    a[live], b[live] = beta[live, :-1], beta[live, -1]
    sigma[live] = np.maximum(np.sqrt(np.vecdot(resp, resid)[live] / mass[live]), SIGMA_FLOOR)
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(sigma).all()
            and (sigma > 0.0).all()):
        raise InvalidArgumentError(f"expert step left a={a}, b={b}, sigma={sigma}")
    return a, b, sigma


# ---------------------------------------------------------------------------
# Gating M-step
# ---------------------------------------------------------------------------

def _gating_setup(X, resp):
    """The surrogate's constants while the gate moves, from resp already 0 off
    the selection: its sums per input rsum (n,) and per component (k,),
    resp @ X (k, d), and the inputs weighted by rsum (n, d)."""
    rsum = resp.sum(axis=0)
    return rsum, resp.sum(axis=1), resp @ X, rsum[:, None] * X


def _gradient(setup, w, block: int) -> np.ndarray:
    """The surrogate's gradient w.r.t. beta0 (block 0) or beta1 (block 1) at
    selected softmax weights w: sum_j (r_ij - rsum_j w_i(x_j)), times x_j for
    beta1, with rsum_j the selected responsibility at x_j; one matrix
    product with w each."""
    rsum, colsum, rX, rsumX = setup
    return colsum - w @ rsum if block == 0 else rX - w @ rsumX


def _surrogate(setup, beta0, beta1, lse) -> float:
    """sum_j sum_i r_ij (beta1_i . x_j + beta0_i) is (resp @ X) . beta1 plus
    the component sums . beta0, so the surrogate needs only the gate's lse."""
    rsum, colsum, rX, _ = setup
    return float((rX * beta1).sum() + colsum @ beta0 - rsum @ lse)


def gating_surrogate(X, resp, mask, beta0, beta1) -> float:
    """Expected complete-data gating log-likelihood with the selection fixed:
    sum_j sum_{i selected at x_j} r_ij log softmax_i(beta1_i . x_j + beta0_i).

    ``resp`` and ``mask`` are (k, n); ``resp`` is zeroed off the selection
    here, and the value is the one :func:`m_step_gating` ascends.
    """
    resp = resp if mask is None else resp * mask
    return _surrogate(_gating_setup(X, resp), beta0, beta1, GatePass.under(X, beta0, beta1, mask).lse)


def gating_gradients(X, resp, mask, beta0, beta1):
    """Analytic gradients of the surrogate w.r.t. beta0 (k,) and beta1 (k, d),
    the ones :func:`m_step_gating` ascends.  Both vanish identically when
    K = 1 (singleton softmax weights are 1).
    """
    setup = _gating_setup(X, resp if mask is None else resp * mask)
    w = GatePass.under(X, beta0, beta1, mask).w
    return _gradient(setup, w, 0), _gradient(setup, w, 1)


# Largest bound c on a proposal's logit shift that :func:`_shifted` scores.
# At |shift| <= c every exp(shift) lies in [exp(-c), exp(c)] and, as the
# weights sum to 1, so does their weighted sum: at c <= 32 (1.3e-14 to 7.9e13)
# nothing overflows or underflows, every argument of exp stays far above
# model._EXP_FLOOR and off np.exp's slow path, and lse + log(sum) rounds
# within about an ulp of |lse| + 32.  On a larger step the sum can overflow
# or underflow, and a -inf logsumexp would score as a +inf gain, so such a
# step is scored by an exact pass.
SHIFT_BOUND = 32.0


def _shifted(lse, w, shift):
    """The logsumexp (n,) and weights (k, n) of a gate with logsumexp ``lse``
    and weights ``w`` after its logits move by ``shift``: (k,), the same at
    every input, or (k, n), bounded by ``SHIFT_BOUND`` in absolute value.

    By the softmax shift identity, lse' = lse + log s and w' = w exp(shift) / s
    with s = sum_i w_i exp(shift_i): no masked logit is exponentiated, and
    w' is 0 wherever w is, off the selection."""
    e = np.exp(shift)
    if e.ndim == 1:
        s = e @ w
        w = w * e[:, None]
    else:
        w = np.multiply(w, e, out=e)
        s = w.sum(axis=0)
    w /= s
    return lse + np.log(s), w


def m_step_gating(X, resp, gate: GatePass, lr: float, steps: int):
    """Coordinate (block) gradient ascent on the gating surrogate.

    ``gate`` is the :class:`GatePass` at the incoming parameters; its top-K
    selection stays frozen while the blocks move, and ``resp`` must be 0 off
    it, as the E-step's responsibilities are.  Each block proposal is
    backtracked (halving the step) until the surrogate does not decrease; the
    worst case accepts a zero step, and a proposal whose surrogate is not
    finite counts as a decrease.  A proposal moves the logits by delta_i
    (beta0) or delta_i . x (beta1), at most c = max_i |delta_i| or
    max_i |delta_i| . max|x| (per axis) in absolute value; at c within
    ``SHIFT_BOUND`` it is scored from the current lse and weights by
    :func:`_shifted`, beyond it by an exact :class:`GatePass`.  Returns the
    updated beta0, beta1 and the number of halvings.
    """
    n = X.shape[0]
    setup = _gating_setup(X, resp)
    x_max = np.abs(X).max(axis=0)
    beta0, beta1, lse, w = gate.beta0, gate.beta1, gate.lse, gate.w
    q = _surrogate(setup, beta0, beta1, lse)
    tol = 1e-12 * max(1.0, abs(q))
    backtracks = 0
    for _ in range(steps):
        for block in (0, 1):  # beta0, then beta1
            grad = _gradient(setup, w, block)
            step_lr = lr
            for _ in range(30):
                delta = step_lr * grad / n
                if block == 0:
                    cand0, cand1, c = beta0 + delta, beta1, np.abs(delta).max()
                else:
                    cand0, cand1, c = beta0, beta1 + delta, (np.abs(delta) @ x_max).max()
                if c <= SHIFT_BOUND:
                    lse_new, w_new = _shifted(lse, w, delta if block == 0 else _project(delta, X))
                else:
                    exact = GatePass.under(X, cand0, cand1, gate.mask)
                    lse_new, w_new = exact.lse, exact.w
                q_new = _surrogate(setup, cand0, cand1, lse_new)
                if np.isfinite(q_new) and q_new >= q - tol:
                    beta0, beta1, lse, w, q = cand0, cand1, lse_new, w_new, q_new
                    break
                step_lr *= 0.5
                backtracks += 1
    if not (np.isfinite(beta0).all() and np.isfinite(beta1).all()):
        raise InvalidArgumentError(f"gating step left beta0={beta0}, beta1={beta1}")
    return beta0, beta1, backtracks


def _scored(logw, logf):
    """The log joint of log gate weights and expert log densities, both (k, n),
    its logsumexp over the components, and the mean log-likelihood."""
    joint = logw + logf
    norm = _masked_logsumexp(joint)
    return joint, norm, float(norm.mean())


# An input whose density overflows to 0 at every component has a NaN logsumexp,
# which the E-step raises as DegenerateDataError; NumPy's warnings add nothing.
@np.errstate(over="ignore", invalid="ignore")
def fit(data: Dataset, cfg: FitConfig) -> FitResult:
    """Alternate E-step, expert M-step and gating M-step until the mean
    log-likelihood moves by less than tol or max_iters is hit.

    Deterministic given (data, cfg).  The trace is nondecreasing within
    1e-9 per step: each M-step proposes parameters, and a proposal that would
    lower the data log-likelihood (a degenerate WLS fallback, a selection
    flip) is reverted.

    The state between iterations is the stacked expert arrays, the
    :class:`GatePass` at the gating parameters, the log gate weights and
    expert log densities, and their :func:`_scored` joint, logsumexp and
    log-likelihood.  Each half proposes its part of the state beside it (the
    gating half with the exact gate at its parameters, under their own top-K
    selection) and reuses the other part; a kept proposal replaces its part,
    and a rejected one is dropped, so a revert recomputes nothing.
    """
    if data.d != cfg.init.truth.d:
        raise InvalidArgumentError("data dimension does not match the init truth")
    t0 = time.perf_counter()
    G = init_measure(cfg.init, cfg.seed)
    K = cfg.K
    X, y = data.x, data.y
    Z = np.asfortranarray(np.column_stack([X, np.ones(data.n)]))  # column-major, as data.x
    products = _row_products(Z, y)
    a, b, sigma = G.a, G.b, G.sigma
    gate = GatePass.at(X, G.beta0, G.beta1, K)
    logw = gate.log_weights()
    logf = _expert_log_densities(X, y, a, b, sigma)
    joint, norm, ll = _scored(logw, logf)
    trace = [ll]
    converged = False
    iterations = reverted_experts = reverted_gating = backtracks = 0
    for iterations in range(1, cfg.max_iters + 1):
        resp = _resp_from_joint(joint, norm)
        experts = m_step_experts(Z, y, products, resp, a, b, sigma)
        logf_e = _expert_log_densities(X, y, *experts)
        joint_e, norm_e, ll_e = _scored(logw, logf_e)
        if ll_e < ll - ASCENT_SLACK:
            # a degenerate WLS fallback, or a scale floor above the current
            # scale, produced a worse point; keep the old experts
            reverted_experts += 1
        else:
            (a, b, sigma), logf, joint, norm, ll = experts, logf_e, joint_e, norm_e, ll_e
        beta0, beta1, halvings = m_step_gating(X, resp, gate, cfg.gating_lr, cfg.gating_steps_per_m)
        backtracks += halvings
        gate_g = GatePass.at(X, beta0, beta1, K)
        logw_g = gate_g.log_weights()
        joint_g, norm_g, ll_g = _scored(logw_g, logf)
        if ll_g < ll - ASCENT_SLACK:
            # selection flip hurt the data likelihood; accept a zero gating step
            reverted_gating += 1
        else:
            gate, logw, joint, norm, ll = gate_g, logw_g, joint_g, norm_g, ll_g
        trace.append(ll)
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    return FitResult(
        measure=MixingMeasure.from_arrays(gate.beta0, gate.beta1, a, b, sigma),
        loglik_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
        reverted_experts=reverted_experts,
        reverted_gating=reverted_gating,
        backtracks=backtracks,
        wallclock=time.perf_counter() - t0,
    )
