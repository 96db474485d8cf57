"""Maximum-likelihood fitting by EM.

The E-step and the expert M-step are closed form; the gating parameters have
no closed-form update, so the M-step ascends the expected complete-data
log-likelihood by coordinate (block) gradient steps with backtracking.  It
works in the E-step's frame: the responsibilities r are 0 off the selection
and sum to 1 at each input, so the surrogate is sum_ij r_ij logw_ij over the
selection, in the gate's log weights logw, and its gradient sum_j (r_ij -
w_ij) (1, x_j) at the gate's weights w (Jordan & Jacobs 1994).

The top-K selection at each input is held fixed while the gating blocks move:
the selection is piecewise constant in the parameters, so its gradient is zero
almost everywhere.  Selections are refreshed at the next E-step.  Both
M-steps propose from one E-step's responsibilities, and each raises its own
block of the expected complete-data log-likelihood, so while the selection
holds the two proposals together are one generalized-EM step (Dempster,
Laird & Rubin 1977), which does not lower the data log-likelihood.
:func:`fit` scores that joint step once and keeps it when the likelihood
holds within ``ASCENT_SLACK``.  When a selection flipped, or the joint step
lowered the likelihood (a degenerate WLS fallback, a scale floor above the
current scale), each half is guarded in turn: the expert step under the
current gate, then the gating step with the experts kept.  A half that
lowers the likelihood is reverted, a zero step, which keeps the EM ascent
property.  22 of the 24 fits of the sparse-2d benchmark workload revert a
gating step after a flip, 21 in their last iteration: the likelihood stays
where the expert step put it, so a fit can stop as converged on that gain
alone, its gate unmoved.

EM and :func:`~moelab.model.log_joint` share one gate and one expert
density: :func:`fit` works on a measure's stacked arrays, beta0 (k,),
beta1 (k, d), a (k, d), b (k,) and sigma (k,), from the initialization to
the returned measure, which it builds once.  Its gate is a
:class:`~moelab.model.GatePass`, one evaluation of the selected softmax that
keeps its log weights, logsumexp and weights.  The gating step builds
none: it shortens each proposal to a logit shift within ``SHIFT_BOUND`` and
scores it by its increment, the linear term's gain less sum_j log s_j, where
s_j is the factor by which the softmax shift identity (:func:`_shifted`)
moves the pass's weights; no sum of raw scores is formed, so a steep gate
does not overflow it.  The expert step forms its residuals as the density
kernel does and hands over the new experts' log densities, so EM runs the
kernel once per fit, at the start.  Each M-step only proposes parameters:
:func:`fit` builds an iteration's one exact gate at the gating step's
parameters, under their own top-K selection, and scores a proposal's log
joint, the gate's log weights plus the expert log densities, with
:func:`_scored`, whose softmax (:func:`~moelab.model._softmax`, the gate's
too) gives the responsibilities with the log-likelihood, so a kept proposal
carries the next E-step.  An iteration whose joint step is kept runs two
softmaxes, the gate's and the joint step's; the halves are scored only when
they are guarded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidArgumentError
from .model import (
    _FLOAT_MAX,
    Dataset,
    GatePass,
    MixingMeasure,
    _check_sparsity,
    _expert_log_densities,
    _means,
    _project,
    _scaled_densities,
    _softmax,
    _squared_residuals,
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
        _check_noise_std(self.noise_std)
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


def _check_noise_std(noise_std) -> None:
    if not 0.0 <= noise_std < np.inf:
        raise InvalidArgumentError("noise_std must be >= 0 and finite")


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
    expert or gating update the ascent guard undid.  Only the half-by-half
    fallback reverts, which runs when the joint step lowered the likelihood
    or a selection flipped.  ``backtracks`` counts the step halvings of the
    gating line search.
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
    A jitter that overflows is an :class:`InvalidArgumentError`, with no warning.
    """
    rng = np.random.default_rng(seed)
    t, s = spec.truth, spec.noise_std
    # one component at a time, in the order beta0, beta1, a, b, sigma
    with np.errstate(over="ignore"):  # an overflow is inf, which MixingMeasure rejects
        rows = [(t.beta0[j] + s * rng.standard_normal(),
                 t.beta1[j] + s * rng.standard_normal(t.d),
                 t.a[j] + s * rng.standard_normal(t.d),
                 t.b[j] + s * rng.standard_normal(),
                 t.sigma[j] * np.exp(s * rng.standard_normal())) for j in spec.cell_plan]
    return MixingMeasure(*map(np.array, zip(*rows)))


def _scored(joint):
    """The responsibilities (k, n) of a log joint (k, n), its softmax over
    the components, and the mean of its logsumexp, the log-likelihood.  An
    input whose logsumexp is not finite, one no expert gives any density,
    is a DegenerateDataError; it is looked for only when the summed
    logsumexp is not finite.  The sum divided by n
    has the bits of ``.mean()``.  A mean below the float range is -inf,
    without a warning: every ascent test rejects it."""
    lse, resp = _softmax(joint)
    with np.errstate(over="ignore"):
        total = np.add.reduce(lse)
    if not np.isfinite(total):
        bad = ~np.isfinite(lse)
        if bad.any():
            raise DegenerateDataError(int(np.argmax(bad)))
    return resp, float(total / lse.size)


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


# An update past the floats is inf or NaN, and a scale <= 0 has no finite
# log, without a warning: the check at the end rejects them.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def m_step_experts(Z, y, products, resp, a, b, sigma):
    """Closed-form Gaussian expert updates on the design Z = [X, 1] (n, d + 1):
    a weighted least squares per component, then its weighted residual scale,
    floored at ``SIGMA_FLOOR``.

    The components are solved together: one product of ``resp`` (k, n) with
    ``products``, the design's row products ``_row_products(Z, y)`` that
    :func:`fit` builds once per fit, gives every component's normal
    equations, one batched solve their coefficients, and one pass their
    residual scales.  Components with zero responsibility mass are left
    unchanged.  The squared residuals y - (a_i.x + b_i) of the new experts,
    the density kernel's first half, give the scales, and its second half
    turns them into the new experts' log densities, bit for bit
    ``model._expert_log_densities(X, y, a, b, sigma)``.  Returns new stacked
    (a (k, d), b (k,), sigma (k,)) and those densities (k, n), and raises
    :class:`InvalidArgumentError` unless all are finite and sigma > 0.
    """
    p = Z.shape[1]
    k = resp.shape[0]
    sums = products @ resp.T  # (p * p + p, k)
    A, rhs = sums[: p * p].T.reshape(k, p, p), sums[p * p :].T
    mass = resp.sum(axis=1)
    live = mass > 0.0
    beta = _wls_solve(A[live], rhs[live])
    a, b, sigma = a.copy(), b.copy(), sigma.copy()
    a[live], b[live] = beta[:, :-1], beta[:, -1]
    sq = _squared_residuals(_means(Z[:, :-1], a, b), y)
    sigma[live] = np.maximum(np.sqrt(np.vecdot(resp, sq)[live] / mass[live]), SIGMA_FLOOR)
    # one check of every parameter: log sigma is finite iff 0 < sigma < inf
    if not np.isfinite(np.concatenate((a.ravel(), b, np.log(sigma)))).all():
        raise InvalidArgumentError(f"expert step left a={a.tolist()}, b={b.tolist()}, sigma={sigma.tolist()}")
    return a, b, sigma, _scaled_densities(sq, sigma[:, None])


# ---------------------------------------------------------------------------
# Gating M-step
# ---------------------------------------------------------------------------

def _surrogate(resp, logw) -> float:
    """sum_ij r_ij logw_ij over the selection, for responsibilities ``resp``
    (k, n) that are 0 off it and log gate weights ``logw`` (k, n) that are
    -inf off it.  Clamping logw at the least float makes each off-selection
    term 0 * -max = -0, not 0 * -inf = NaN."""
    return float(np.dot(resp.ravel(), np.maximum(logw, -_FLOAT_MAX).ravel()))


def gating_surrogate(X, resp, mask, beta0, beta1) -> float:
    """Expected complete-data gating log-likelihood with the selection fixed,
    the one :func:`m_step_gating` ascends: sum_ij r_ij logw_ij over the
    selection, at the log gate weights logw.  ``resp`` and ``mask`` are
    (k, n), and ``resp`` must be 0 off the selection and sum to 1 at each
    input, as the E-step's responsibilities do; it is then sum_j (sum_i
    r_ij eta_ij - lse_j) in the selected logits eta.
    """
    return _surrogate(resp, GatePass.under(X, beta0, beta1, mask).logw)


def gating_gradients(X, resp, mask, beta0, beta1):
    """Analytic gradients of the surrogate w.r.t. beta0 (k,) and beta1 (k, d),
    sum_j (r_ij - w_ij) and that times x_j at the gate's weights w, for
    ``resp`` as :func:`gating_surrogate` takes it.  Both vanish identically
    when K = 1 (singleton softmax weights are 1).
    """
    w = GatePass.under(X, beta0, beta1, mask).w
    return resp.sum(axis=1) - w.sum(axis=1), resp @ X - w @ X


# The trust region of a gating proposal: a bound c on its logit shift, which
# :func:`m_step_gating` shortens to this.  At |shift| <= c every exp(shift)
# and, as the weights sum to 1, their weighted sum lie in [exp(-c), exp(c)]:
# at c <= 32 (1.3e-14 to 7.9e13) nothing overflows or underflows, every
# argument of exp stays far above model._EXP_FLOOR, off np.exp's slow path,
# and log(sum) stays within 32 nats of 0.  The benchmark and acceptance
# fits stay inside: c <= gating_lr * max(1, sum over axes of max x^2) <= 2
# there.
SHIFT_BOUND = 32.0


def _shifted(w, shift):
    """log s (n,) and the weights (k, n) of a gate with weights ``w`` after
    its logits move by ``shift``: (k,), the same at every input, or (k, n),
    bounded by ``SHIFT_BOUND`` in absolute value.

    By the softmax shift identity, the logsumexp moves by log s and
    w' = w exp(shift) / s with s = sum_i w_i exp(shift_i): no masked logit is
    exponentiated, and w' is 0 wherever w is, off the selection."""
    e = np.exp(shift)
    if e.ndim == 1:
        s = e @ w
        w = w * e[:, None]
    else:
        w = np.multiply(w, e, out=e)
        s = w.sum(axis=0)
    w /= s
    return np.log(s), w


def m_step_gating(X, resp, gate: GatePass, lr: float, steps: int):
    """Coordinate (block) gradient ascent on the gating surrogate.

    ``gate`` is the :class:`GatePass` at the incoming parameters; its top-K
    selection stays frozen while the blocks move, and ``resp`` is taken as
    :func:`gating_surrogate` takes it.  A block proposal moves the logits by
    delta_i (beta0) or delta_i . x (beta1), at most c = max_i |delta_i| or
    max_i |delta_i| . max|x| (per axis) in absolute value.  Its step is
    shortened to c <= ``SHIFT_BOUND``, then halved until the surrogate does
    not decrease by more than 1e-12 of its incoming magnitude.  A proposal
    is scored by its increment: the surrogate is linear in the logits less
    sum_j lse_j, so the increment is the linear term's gain, resp's sums
    (beta0) or resp @ X (beta1) dotted with delta, less sum_j log s_j from
    :func:`_shifted`.  The worst case accepts a zero step, and an increment
    that is not finite counts as a decrease, so the returned beta0 and beta1
    are finite.  Returns them and the number of halvings.  Incoming
    parameters whose surrogate is not finite leave no scale for the slack:
    an :class:`InvalidArgumentError`.
    """
    n = X.shape[0]
    q = _surrogate(resp, gate.logw)
    if not math.isfinite(q):
        raise InvalidArgumentError(f"the gating surrogate is not finite at beta0={gate.beta0.tolist()}, "
                                   f"beta1={gate.beta1.tolist()}")
    floor = -1e-12 * max(1.0, abs(q))  # the least accepted increment
    colsum, rX = resp.sum(axis=1), resp @ X
    x_max = np.abs(X).max(axis=0)
    beta0, beta1, w = gate.beta0, gate.beta1, gate.w
    backtracks = 0
    for _ in range(steps):
        for block in (0, 1):  # beta0, then beta1
            lin, grad = (colsum, colsum - w.sum(axis=1)) if block == 0 else (rX, rX - w @ X)
            reach = float(np.abs(grad).max() if block == 0 else (np.abs(grad) @ x_max).max()) / n
            step_lr = lr if lr * reach <= SHIFT_BOUND else SHIFT_BOUND / reach
            for _ in range(30):
                delta = step_lr * grad / n
                log_s, w_new = _shifted(w, delta if block == 0 else _project(delta, X))
                gain = float(np.vdot(lin, delta)) - float(log_s.sum())
                if floor <= gain < math.inf:  # False at NaN and at +-inf
                    beta0, beta1 = (beta0 + delta, beta1) if block == 0 else (beta0, beta1 + delta)
                    w = w_new
                    break
                step_lr *= 0.5
                backtracks += 1
    return beta0, beta1, backtracks


def fit(data: Dataset, cfg: FitConfig) -> FitResult:
    """Alternate E-step, expert M-step and gating M-step until the mean
    log-likelihood moves by less than tol or max_iters is hit.

    Deterministic given (data, cfg).  The trace is nondecreasing within
    1e-9 per step: both M-steps propose parameters from one E-step, and the
    joint step is kept when it holds the likelihood and no top-K selection
    flipped.  Otherwise each half is guarded in turn, and a half that would
    lower the data log-likelihood (a degenerate WLS fallback, a selection
    flip) is reverted.

    The state between iterations is the stacked expert arrays, the
    :class:`GatePass` at the gating parameters, the expert log densities,
    and the responsibilities and log-likelihood :func:`_scored` from the
    gate's log weights plus those densities.  The proposals are scored beside
    the state: a kept one replaces its part, and a rejected one is dropped,
    so a revert recomputes nothing.  An input no expert gives any density
    raises :class:`DegenerateDataError` naming it, without a NumPy warning.
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
    logf = _expert_log_densities(X, y, a, b, sigma)
    resp, ll = _scored(gate.logw + logf)
    trace = [ll]
    converged = False
    iterations = reverted_experts = reverted_gating = backtracks = 0
    for iterations in range(1, cfg.max_iters + 1):
        # both M-steps propose from the E-step's responsibilities, resp
        *experts, logf_e = m_step_experts(Z, y, products, resp, a, b, sigma)
        beta0, beta1, halvings = m_step_gating(X, resp, gate, cfg.gating_lr, cfg.gating_steps_per_m)
        backtracks += halvings
        gate_g = GatePass.at(X, beta0, beta1, K)
        # while the selection holds, the two proposals are one generalized-EM step
        held = K == cfg.init.k or np.array_equal(np.isneginf(gate_g.logw), np.isneginf(gate.logw))
        joint = _scored(gate_g.logw + logf_e) if held else None
        if held and joint[1] >= ll - ASCENT_SLACK:
            (a, b, sigma), logf, gate, (resp, ll) = experts, logf_e, gate_g, joint
        else:
            # guard each half: the experts under the current gate, then the new gate
            resp_e, ll_e = _scored(gate.logw + logf_e)
            if ll_e < ll - ASCENT_SLACK:
                # a degenerate WLS fallback, or a scale floor above the current
                # scale, produced a worse point; keep the old experts
                reverted_experts += 1
            else:
                (a, b, sigma), logf, resp, ll = experts, logf_e, resp_e, ll_e
            resp_g, ll_g = _scored(gate_g.logw + logf)
            if ll_g < ll - ASCENT_SLACK:
                # a selection flip, or a gate fitted to the old experts, hurt
                # the data likelihood; accept a zero gating step
                reverted_gating += 1
            else:
                gate, resp, ll = gate_g, resp_g, ll_g
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
