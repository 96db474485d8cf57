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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidArgumentError
from .model import (
    LAPLACE,
    STUDENT_T,
    Dataset,
    ExpertParams,
    GateParams,
    MixingMeasure,
    _masked_logsumexp,
    _selection_mask,
    conditional_log_density,
    expert_log_density_matrix,
    gate_log_weights,
    log_joint,
)

# Monotonicity slack per EM step, in mean log-likelihood units.
ASCENT_SLACK = 1e-9


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


def random_cell_plan(k: int, k_star: int, rng) -> tuple:
    """Uniform random surjective assignment of k fitted onto k* true components."""
    if k < k_star:
        raise InvalidArgumentError(f"need k >= k*, got k={k}, k*={k_star}")
    while True:
        plan = tuple(int(j) for j in rng.integers(0, k_star, size=k))
        if set(plan) == set(range(k_star)):
            return plan


@dataclass(frozen=True)
class FitConfig:
    """EM configuration; K is the sparsity used in the fitted density."""

    k: int
    K: int
    init: InitSpec
    seed: int = 0
    tol: float = 1e-6
    max_iters: int = 2000
    gating_lr: float = 0.1
    gating_steps_per_m: int = 5
    sigma_floor: float = 1e-3

    def __post_init__(self):
        if not 1 <= self.K <= self.k:
            raise InvalidArgumentError(f"need 1 <= K <= k, got K={self.K}, k={self.k}")
        if self.init.k != self.k:
            raise InvalidArgumentError("init cell plan length must equal k")
        _check_fit_settings(self.tol, self.max_iters, self.gating_lr, self.gating_steps_per_m,
                            self.sigma_floor)


def _check_fit_settings(tol, max_iters, gating_lr, gating_steps_per_m, sigma_floor) -> None:
    """Reject EM settings that would stall or corrupt a fit instead of failing it.

    A NaN tol never stops EM, a NaN gating_lr freezes the gate, and a negative
    tol or sigma_floor turns fits into NaN; max_iters = 0 is allowed and
    returns the initialization untouched (pipeline checks).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")
    if not (np.isfinite(gating_lr) and gating_lr > 0):
        raise InvalidArgumentError(f"gating_lr must be finite and > 0, got {gating_lr}")
    if not sigma_floor > 0:
        raise InvalidArgumentError(f"sigma_floor must be > 0, got {sigma_floor}")
    if max_iters < 0 or gating_steps_per_m < 1:
        raise InvalidArgumentError("max_iters >= 0 and gating_steps_per_m >= 1 required")


@dataclass(frozen=True)
class FitResult:
    measure: MixingMeasure
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    wallclock: float


def init_measure(spec: InitSpec, seed) -> MixingMeasure:
    """Jitter every parameter of the planned true component independently.

    The scale jitter is applied in the log domain so positivity is preserved;
    the pinning convention of the truth is NOT enforced on the fitted measure.
    """
    rng = np.random.default_rng(seed)
    truth = spec.truth
    comps = []
    for j in spec.cell_plan:
        gate, expert = truth.components[j]
        beta0 = gate.beta0 + spec.noise_std * rng.standard_normal()
        beta1 = gate.beta1 + spec.noise_std * rng.standard_normal(truth.d)
        a = expert.a + spec.noise_std * rng.standard_normal(truth.d)
        b = expert.b + spec.noise_std * rng.standard_normal()
        sigma = expert.sigma * np.exp(spec.noise_std * rng.standard_normal())
        comps.append((GateParams(beta0, beta1), ExpertParams(a, b, sigma)))
    return MixingMeasure(tuple(comps), family=truth.family, dof=truth.dof)


def mean_log_likelihood(data: Dataset, G: MixingMeasure, K: int) -> float:
    return float(np.mean(conditional_log_density(G, K, data.x, data.y)))


def _resp_from_joint(joint: np.ndarray, norm: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(norm)
    if np.any(bad):
        raise DegenerateDataError(int(np.nonzero(bad)[0][0]))
    return np.exp(joint - norm)  # exp(-inf) is exactly 0 off the selection


def e_step(data: Dataset, G: MixingMeasure, K: int) -> np.ndarray:
    """Responsibilities r[i, j], shape (k, n), columns summing to 1, exactly
    zero outside the top-K selection at x_j."""
    joint = log_joint(G, data.x, data.y, K)
    return _resp_from_joint(joint, _masked_logsumexp(joint))


def _wls_solve(Z: np.ndarray, w: np.ndarray, y: np.ndarray):
    """Weighted least squares with a ridge fallback on singular systems."""
    A = Z.T @ (w[:, None] * Z)
    rhs = Z.T @ (w * y)
    try:
        beta = np.linalg.solve(A, rhs)
        if not np.all(np.isfinite(beta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        lam = 1e-8 * np.trace(A) / A.shape[0]
        if not lam > 0:
            lam = 1e-12
        beta = np.linalg.solve(A + lam * np.eye(A.shape[0]), rhs)
    return beta


def m_step_experts(data: Dataset, resp: np.ndarray, G: MixingMeasure, sigma_floor: float = 1e-3):
    """Closed-form expert updates; components with zero responsibility mass
    are left unchanged.  Returns the measure with updated expert parameters."""
    n, d = data.x.shape
    Z = np.column_stack([data.x, np.ones(n)])
    comps = []
    for i, (gate, expert) in enumerate(G.components):
        w = resp[i]
        s = float(w.sum())
        if s <= 0.0:
            comps.append((gate, expert))
            continue
        if G.family == LAPLACE:
            expert_new = _laplace_expert(Z, w, data.y, s, d, sigma_floor)
        elif G.family == STUDENT_T:
            expert_new = _student_expert(Z, w, data.y, s, d, sigma_floor, G.dof, expert.sigma)
        else:
            beta = _wls_solve(Z, w, data.y)
            resid = data.y - Z @ beta
            sigma = max(np.sqrt(float(w @ resid**2) / s), sigma_floor)
            expert_new = ExpertParams(a=beta[:d], b=beta[d], sigma=sigma)
        comps.append((gate, expert_new))
    return MixingMeasure(tuple(comps), family=G.family, dof=G.dof)


def _laplace_expert(Z, w, y, s, d, sigma_floor, n_irls: int = 10):
    """Weighted median regression via IRLS, then the Laplace scale MLE."""
    beta = _wls_solve(Z, w, y)
    for _ in range(n_irls):
        resid = y - Z @ beta
        u = w / np.maximum(np.abs(resid), 1e-8)
        beta = _wls_solve(Z, u, y)
    resid = y - Z @ beta
    sigma = max(float(w @ np.abs(resid)) / s, sigma_floor)
    return ExpertParams(a=beta[:d], b=beta[d], sigma=sigma)


def _student_expert(Z, w, y, s, d, sigma_floor, dof, sigma_old):
    """One ECM pass at fixed dof: robustness weights, WLS, scale update."""
    resid0 = y - Z @ _wls_solve(Z, w, y)
    u = (dof + 1.0) / (dof + (resid0 / sigma_old) ** 2)
    beta = _wls_solve(Z, w * u, y)
    resid = y - Z @ beta
    sigma2 = float(w @ (u * resid**2)) / s
    return ExpertParams(a=beta[:d], b=beta[d], sigma=max(np.sqrt(sigma2), sigma_floor))


# ---------------------------------------------------------------------------
# Gating M-step
# ---------------------------------------------------------------------------

def _gating_setup(X, resp, mask):
    """The surrogate's constants while the gate moves: 0 on the selection and
    -inf off it (k, n), and, of resp zeroed off the selection, its sums per
    input (n,) and per component (k,) and resp @ X (k, d)."""
    resp = np.where(mask, resp, 0.0)
    return np.where(mask, 0.0, -np.inf), resp.sum(axis=0), resp.sum(axis=1), resp @ X


def _gating_pass(X, setup, beta0, beta1):
    """The surrogate at (beta0, beta1) and the selected softmax weights w (k, n).

    sum_j sum_i r_ij (beta1_i . x_j + beta0_i) is (resp @ X) . beta1 plus the
    component sums . beta0, so a proposal costs one masked softmax pass.
    """
    off, rsum, colsum, rX = setup
    scores = beta1 @ X.T + beta0[:, None] + off
    m = scores.max(axis=0)
    e = np.exp(scores - m)
    Z = e.sum(axis=0)
    q = float((rX * beta1).sum() + colsum @ beta0 - rsum @ (m + np.log(Z)))
    return q, e / Z


def _gating_grads(X, setup, w):
    """Gradients of the surrogate w.r.t. beta0 (k,) and beta1 (k, d), given
    the weights w of :func:`_gating_pass` at the same point."""
    _, rsum, colsum, rX = setup
    rw = rsum * w
    return colsum - rw.sum(axis=1), rX - rw @ X


def gating_surrogate(X, resp, mask, beta0, beta1) -> float:
    """Expected complete-data gating log-likelihood with the selection fixed:
    sum_j sum_{i selected at x_j} r_ij log softmax_i(beta1_i . x_j + beta0_i).

    ``resp`` and ``mask`` are (k, n); the value is the one
    :func:`m_step_gating` ascends.
    """
    return _gating_pass(X, _gating_setup(X, resp, mask), beta0, beta1)[0]


def gating_gradients(X, resp, mask, beta0, beta1):
    """Analytic gradients of the surrogate w.r.t. beta0 (k,) and beta1 (k, d).

    grad_beta0_i = sum_j (r_ij - rsum_j w_i(x_j)), with rsum_j the selected
    responsibility at x_j; grad_beta1_i adds the x_j factor.  Both vanish
    identically when K = 1 (singleton softmax weights are 1).
    """
    setup = _gating_setup(X, resp, mask)
    return _gating_grads(X, setup, _gating_pass(X, setup, beta0, beta1)[1])


def m_step_gating(data: Dataset, resp: np.ndarray, G: MixingMeasure, K: int,
                  lr: float = 0.1, steps: int = 1):
    """Coordinate (block) gradient ascent on the gating surrogate.

    The per-input top-K selection is frozen at its value under the incoming
    parameters.  Each block proposal is backtracked (halving the step) until
    the surrogate does not decrease; the worst case accepts a zero step.
    Returns the measure with updated gating parameters.
    """
    X = data.x
    n = data.n
    params = [G.beta0, G.beta1]
    setup = _gating_setup(X, resp, _selection_mask(G.beta1 @ X.T, K))
    q, w = _gating_pass(X, setup, *params)
    tol = 1e-12 * max(1.0, abs(q))
    for _ in range(steps):
        for block in (0, 1):  # beta0, then beta1
            grad = _gating_grads(X, setup, w)[block]
            step_lr = lr
            for _ in range(30):
                cand = list(params)
                cand[block] = params[block] + step_lr * grad / n
                q_new, w_new = _gating_pass(X, setup, *cand)
                if q_new >= q - tol:
                    params, q, w = cand, q_new, w_new
                    break
                step_lr *= 0.5
    beta0, beta1 = params
    comps = tuple(
        (GateParams(beta0[i], beta1[i]), expert)
        for i, (_, expert) in enumerate(G.components)
    )
    return MixingMeasure(comps, family=G.family, dof=G.dof)


def fit(data: Dataset, cfg: FitConfig) -> FitResult:
    """Alternate E-step, expert M-step and gating M-step until the mean
    log-likelihood moves by less than tol or max_iters is hit.

    Deterministic given (data, cfg).  The trace is nondecreasing within
    1e-9 per step: the gating update is reverted whenever a selection flip
    would lower the data log-likelihood.
    """
    if data.d != cfg.init.truth.d:
        raise InvalidArgumentError("data dimension does not match the init truth")
    t0 = time.perf_counter()
    G = init_measure(cfg.init, cfg.seed)
    # The expert step leaves the gate part of the joint untouched and the
    # gating step leaves the expert part untouched, so each half is reused.
    logw = gate_log_weights(G, data.x, cfg.K)
    logf = expert_log_density_matrix(G, data.x, data.y)
    joint = logw + logf
    norm = _masked_logsumexp(joint)
    trace = [float(norm.mean())]
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        resp = _resp_from_joint(joint, norm)
        G_experts = m_step_experts(data, resp, G, cfg.sigma_floor)
        logf_e = expert_log_density_matrix(G_experts, data.x, data.y)
        joint_e = logw + logf_e
        norm_e = _masked_logsumexp(joint_e)
        ll_experts = float(norm_e.mean())
        if ll_experts < trace[-1] - ASCENT_SLACK:
            # degenerate WLS fallback produced a worse point; keep the old experts
            G_experts, logf_e, joint_e, norm_e = G, logf, joint, norm
            ll_experts = trace[-1]
        G_next = m_step_gating(data, resp, G_experts, cfg.K, cfg.gating_lr, cfg.gating_steps_per_m)
        logw_n = gate_log_weights(G_next, data.x, cfg.K)
        joint_n = logw_n + logf_e
        norm_n = _masked_logsumexp(joint_n)
        ll_next = float(norm_n.mean())
        if ll_next < ll_experts - ASCENT_SLACK:
            # selection flip hurt the data likelihood; accept a zero gating step
            G_next, logw_n, joint_n, norm_n = G_experts, logw, joint_e, norm_e
            ll_next = ll_experts
        G, logw, logf, joint, norm = G_next, logw_n, logf_e, joint_n, norm_n
        trace.append(ll_next)
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    return FitResult(
        measure=G,
        loglik_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
        wallclock=time.perf_counter() - t0,
    )
