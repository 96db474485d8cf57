import collections
import dataclasses
import itertools
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import moelab as ml
from moelab import em

from conftest import BOX_2D, TRUTH_2D, plain_logsumexp, random_measure


def small_data(bench_truth, n=400, K=2, seed=0):
    return ml.sample_dataset(bench_truth, K, n, seed=seed)


def design(x):
    """The expert step's design matrix [X, 1]."""
    return np.column_stack([x, np.ones(len(x))])


def experts_step(data, resp, G):
    """em.m_step_experts on G's stacked expert arrays: (a, b, sigma)."""
    Z = design(data.x)
    return em.m_step_experts(Z, data.y, em._row_products(Z, data.y), resp, G.a, G.b, G.sigma)


def gating_step(X, resp, G, K, lr, steps):
    """em.m_step_gating from the gate at G's gating parameters: (beta0, beta1)."""
    beta0, beta1, _ = em.m_step_gating(X, resp, ml.model.GatePass.at(X, G.beta0, G.beta1, K), lr=lr, steps=steps)
    return beta0, beta1


def reference_block_ascent(X, resp, K, G, lr, steps):
    """The gating M-step as first-order block ascent on the surrogate with the
    selection frozen at G: per step a beta0 then a beta1 gradient proposal,
    each halved up to 30 times until the surrogate does not decrease.
    Returns beta0, beta1 and the number of halvings."""
    n = X.shape[0]
    mask = ml.model._selection_mask(G.beta1 @ X.T, K)
    beta0, beta1 = G.beta0, G.beta1
    q = em.gating_surrogate(X, resp, mask, beta0, beta1)
    tol = 1e-12 * max(1.0, abs(q))
    halvings = 0
    for _ in range(steps):
        g0, _ = em.gating_gradients(X, resp, mask, beta0, beta1)
        step_lr = lr
        for _ in range(30):
            cand0 = beta0 + step_lr * g0 / n
            q_new = em.gating_surrogate(X, resp, mask, cand0, beta1)
            if q_new >= q - tol:
                beta0, q = cand0, q_new
                break
            step_lr *= 0.5
            halvings += 1
        _, g1 = em.gating_gradients(X, resp, mask, beta0, beta1)
        step_lr = lr
        for _ in range(30):
            cand1 = beta1 + step_lr * g1 / n
            q_new = em.gating_surrogate(X, resp, mask, beta0, cand1)
            if q_new >= q - tol:
                beta1, q = cand1, q_new
                break
            step_lr *= 0.5
            halvings += 1
    return beta0, beta1, halvings


def reference_wls(Z, w, y):
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


def reference_expert_step(data, resp, G):
    """The expert M-step one component at a time on a measure's rows: a
    Gaussian WLS and its weighted residual scale, floored at em.SIGMA_FLOOR."""
    Z, y, d = design(data.x), data.y, data.d
    a, b, sigma = G.a.copy(), G.b.copy(), G.sigma.copy()
    for i, w in enumerate(resp):
        s = float(w.sum())
        if s <= 0.0:
            continue
        beta = reference_wls(Z, w, y)
        sigma[i] = max(np.sqrt(float(w @ (y - Z @ beta) ** 2) / s), em.SIGMA_FLOOR)
        a[i], b[i] = beta[:d], beta[d]
    return ml.MixingMeasure.from_arrays(G.beta0, G.beta1, a, b, sigma)


def reference_fit(data, cfg):
    """EM as a loop over MixingMeasures and the model's public kernels: the
    E-step, the reference expert step with its ascent guard, the reference
    block ascent, and the guard that reverts a gating step (after a
    selection flip) that lowers the log-likelihood.  Returns the measure, the
    trace, iterations, converged and the counts of reverts, halvings and
    selection flips."""
    X, y, K = data.x, data.y, cfg.K
    gate_log_weights = ml.model.gate_log_weights
    densities = ml.model.expert_log_density_matrix
    lse = ml.model._masked_logsumexp
    G = em.init_measure(cfg.init, cfg.seed)
    logw, logf = gate_log_weights(G, X, K), densities(G, X, y)
    joint = logw + logf
    norm = lse(joint)
    trace = [float(norm.mean())]
    counts = dict(reverted_experts=0, reverted_gating=0, backtracks=0, flips=0)
    converged, iterations = False, 0
    for iterations in range(1, cfg.max_iters + 1):
        resp = np.exp(joint - norm)
        G_e = reference_expert_step(data, resp, G)
        logf_e = densities(G_e, X, y)
        joint_e = logw + logf_e
        norm_e = lse(joint_e)
        ll_e = float(norm_e.mean())
        if ll_e < trace[-1] - em.ASCENT_SLACK:
            G_e, logf_e, joint_e, norm_e, ll_e = G, logf, joint, norm, trace[-1]
            counts["reverted_experts"] += 1
        beta0, beta1, halvings = reference_block_ascent(X, resp, K, G_e, cfg.gating_lr, cfg.gating_steps_per_m)
        counts["backtracks"] += halvings
        G_n = ml.MixingMeasure.from_arrays(beta0, beta1, G_e.a, G_e.b, G_e.sigma)
        logw_n = gate_log_weights(G_n, X, K)
        counts["flips"] += not np.array_equal(np.isfinite(logw_n), np.isfinite(logw))
        joint_n = logw_n + logf_e
        norm_n = lse(joint_n)
        ll_n = float(norm_n.mean())
        if ll_n < ll_e - em.ASCENT_SLACK:
            G_n, logw_n, joint_n, norm_n, ll_n = G_e, logw, joint_e, norm_e, ll_e
            counts["reverted_gating"] += 1
        G, logw, logf, joint, norm = G_n, logw_n, logf_e, joint_n, norm_n
        trace.append(ll_n)
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    return G, np.array(trace), iterations, converged, counts


class TestInitMeasure:
    def test_zero_noise_copies_truth(self, bench_truth):
        spec = em.InitSpec(bench_truth, (0, 1), noise_std=0.0)
        G = em.init_measure(spec, seed=5)
        assert np.array_equal(G.beta0, bench_truth.beta0)
        assert np.array_equal(G.beta1, bench_truth.beta1)
        assert np.array_equal(G.sigma, bench_truth.sigma)

    def test_overspecified_cell_sizes(self, bench_truth):
        rng = np.random.default_rng(3)
        plan = em.random_cell_plan(3, 2, rng)
        sizes = sorted(plan.count(j) for j in range(2))
        assert sizes == [1, 2]

    def test_same_seed_same_init(self, bench_truth):
        spec = em.InitSpec(bench_truth, (0, 1, 1), noise_std=0.05)
        G1 = em.init_measure(spec, seed=9)
        G2 = em.init_measure(spec, seed=9)
        assert np.array_equal(G1.beta1, G2.beta1)
        assert np.array_equal(G1.sigma, G2.sigma)

    def test_sigma_stays_positive(self, bench_truth):
        spec = em.InitSpec(bench_truth, (0, 1), noise_std=3.0)
        for seed in range(10):
            assert np.all(em.init_measure(spec, seed).sigma > 0)

    def test_empty_cell_rejected(self, bench_truth):
        with pytest.raises(ml.InvalidArgumentError):
            em.InitSpec(bench_truth, (0, 0, 0), noise_std=0.05)

    @pytest.mark.parametrize("noise_std", [-0.1, float("nan")])
    def test_bad_noise_rejected(self, bench_truth, noise_std):
        with pytest.raises(ml.InvalidArgumentError, match="noise_std must be >= 0"):
            em.InitSpec(bench_truth, (0, 1), noise_std=noise_std)


def surjections(k, k_star):
    return [p for p in itertools.product(range(k_star), repeat=k) if set(p) == set(range(k_star))]


class TestRandomCellPlan:
    def test_k_equal_to_k_star_is_bounded(self):
        # rejection alone needs k^k / k! = 4.3e7 draws on average here
        t0 = time.perf_counter()
        plan = em.random_cell_plan(20, 20, np.random.default_rng(0))
        assert time.perf_counter() - t0 < 0.5
        assert sorted(plan) == list(range(20))

    def test_direct_sampler_is_uniform(self):
        surj = surjections(4, 2)
        assert len(surj) == 14
        rng = np.random.default_rng(41)
        counts = collections.Counter(em._uniform_surjection(4, 2, rng) for _ in range(7000))
        assert set(counts) == set(surj)
        assert stats.chisquare([counts[p] for p in surj]).pvalue > 1e-3

    @pytest.mark.parametrize("k, k_star", [(5, 3), (6, 6), (3, 1)])
    def test_direct_sampler_is_a_surjection(self, k, k_star):
        rng = np.random.default_rng([k, k_star])
        for _ in range(50):
            plan = em._uniform_surjection(k, k_star, rng)
            assert len(plan) == k and set(plan) == set(range(k_star))

    @pytest.mark.parametrize("k, k_star", [(2, 3), (2, 0)])
    def test_rejects_impossible_plans(self, k, k_star):
        with pytest.raises(ml.InvalidArgumentError):
            em.random_cell_plan(k, k_star, np.random.default_rng(0))


class TestEStep:
    def test_single_expert_all_ones(self):
        G = ml.MixingMeasure.from_arrays([0.0], [[1.0]], [[-1.0]], [0.5], [0.8])
        data = ml.Dataset(x=np.linspace(0, 1, 50)[:, None], y=np.zeros(50))
        resp = em.e_step(data, G, 1)
        assert np.all(resp == 1.0)

    def test_top1_rows_are_indicators(self, bench_truth):
        data = small_data(bench_truth, K=1)
        resp = em.e_step(data, bench_truth, 1)
        assert set(np.unique(resp).tolist()) <= {0.0, 1.0}
        np.testing.assert_array_equal(resp.sum(axis=0), 1.0)

    def test_identical_experts_split_evenly(self):
        G = ml.MixingMeasure.from_arrays(
            [0, 0], [[0], [0]], [[1], [1]], [0, 0], [1, 1]
        )
        data = ml.Dataset(x=np.linspace(0, 1, 20)[:, None], y=np.zeros(20))
        resp = em.e_step(data, G, 2)
        np.testing.assert_allclose(resp, 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_normalized_and_sparse(self, seed, bench_truth):
        rng = np.random.default_rng(seed)
        G = random_measure(rng, 4, 1)
        data = small_data(bench_truth, n=200, K=2, seed=seed)
        K = int(rng.integers(1, 5))
        resp = em.e_step(data, G, K)
        np.testing.assert_allclose(resp.sum(axis=0), 1.0, atol=1e-12)
        logw = ml.model.gate_log_weights(G, data.x, K)
        assert np.array_equal(resp == 0.0, np.isneginf(logw)) or np.all(
            (resp > 0) <= np.isfinite(logw)
        )

    @pytest.mark.parametrize("K", [2, 3])
    def test_matches_plain_exp(self, K, bench_truth):
        # the responsibilities are np.exp(joint - lse) wherever the argument
        # is at or above the clamp, 0 below it (and off the selection), and
        # still sum to 1
        data = small_data(bench_truth, n=1000, seed=8)
        G = em.init_measure(em.InitSpec(bench_truth, (0, 1, 1), 0.3), seed=9)
        resp = em.e_step(data, G, K)
        joint = ml.log_joint(G, data.x, data.y, K)
        x = joint - plain_logsumexp(joint)
        above = x >= ml.model._EXP_FLOOR
        assert np.any(np.isfinite(x) & ~above)  # far experts inside the selection
        assert np.array_equal(resp[above], np.exp(x[above]))
        assert np.all(resp[~above] == 0.0) and np.all(resp[np.isneginf(joint)] == 0.0)
        assert np.any(np.isneginf(joint)) == (K < G.k)
        np.testing.assert_allclose(resp.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)


class TestMStepExperts:
    def test_noiseless_interpolation(self):
        x = np.linspace(0, 1, 60)[:, None]
        y = 2.0 * x[:, 0] + 1.0
        data = ml.Dataset(x=x, y=y)
        G = ml.MixingMeasure.from_arrays([0.0], [[0.0]], [[0.0]], [0.0], [1.0])
        resp = np.ones((1, 60))
        a, b, sig = experts_step(data, resp, G)
        assert a[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert b[0] == pytest.approx(1.0, abs=1e-9)
        assert sig[0] == pytest.approx(1e-3)  # floored

    def test_two_point_least_squares(self):
        data = ml.Dataset(x=np.array([[0.0], [1.0]]), y=np.array([0.0, 1.0]))
        G = ml.MixingMeasure.from_arrays([0.0], [[0.0]], [[0.0]], [0.0], [1.0])
        a, b, _ = experts_step(data, np.ones((1, 2)), G)
        assert a[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert b[0] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_design_ridge_fallback(self):
        # all x identical: slope must collapse toward 0, intercept to the mean
        x = np.full((50, 1), 0.4)
        y = np.full(50, 2.0)
        data = ml.Dataset(x=x, y=y, bounds=[[0.0, 1.0]])
        G = ml.MixingMeasure.from_arrays([0.0], [[0.0]], [[0.0]], [0.0], [1.0])
        a, b, _ = experts_step(data, np.ones((1, 50)), G)
        assert a[0, 0] * 0.4 + b[0] == pytest.approx(2.0, abs=1e-6)

    def test_zero_mass_component_unchanged(self, bench_truth):
        data = small_data(bench_truth, n=100)
        resp = np.zeros((2, 100))
        resp[0] = 1.0
        a, b, sigma = experts_step(data, resp, bench_truth)
        assert np.array_equal(a[1], bench_truth.a[1])
        assert (b[1], sigma[1]) == (bench_truth.b[1], bench_truth.sigma[1])

    @pytest.mark.parametrize("case", ["top2-2d", "zero-mass", "one-singular", "all-singular"])
    def test_matches_component_loop(self, case, monkeypatch):
        # the stacked solve against one WLS per component, at rtol 1e-12: the
        # sums run in another order; a singular system (x = 0 wherever its
        # component has mass) fails the batched solve, and every system is
        # then solved alone, the singular ones by the ridge fallback
        rng = np.random.default_rng(17)
        truth = ml.true_measure(**TRUTH_2D)
        if case == "top2-2d":
            data = ml.sample_dataset(truth, 2, 3000, seed=6, bounds=BOX_2D)
            G = em.init_measure(em.InitSpec(truth, (0, 1, 2), 0.3), seed=7)
            resp = em.e_step(data, G, 2)
        else:
            x = rng.uniform(-1.0, 1.0, size=(500, 2))
            x[:100] = 0.0
            if case == "all-singular":
                x[:] = 0.0
            data = ml.Dataset(x=x, y=rng.normal(size=500), bounds=BOX_2D)
            G = random_measure(rng, 3, 2)
            resp = rng.random((3, 500))
            if case == "zero-mass":
                resp[1] = 0.0
            elif case == "one-singular":
                resp[1, 100:] = 0.0
        ridge_solve, ridged = em._ridge_solve, []
        monkeypatch.setattr(em, "_ridge_solve", lambda A, rhs: ridged.append(A) or ridge_solve(A, rhs))
        got = experts_step(data, resp, G)
        want = reference_expert_step(data, resp, G)
        assert len(ridged) == (3 if case.endswith("singular") else 0)
        for field, value in zip(("a", "b", "sigma"), got):
            np.testing.assert_allclose(value, getattr(want, field), rtol=1e-12, atol=0.0)
        if case == "zero-mass":
            assert (got[1][1] == G.b[1]) and (got[2][1] == G.sigma[1]) and np.array_equal(got[0][1], G.a[1])

    @pytest.mark.parametrize("seed", range(6))
    def test_local_maximum_property(self, seed, bench_truth):
        # perturbing an updated expert never raises the weighted likelihood
        rng = np.random.default_rng(seed)
        data = small_data(bench_truth, n=300, seed=seed)
        G0 = random_measure(rng, 2, 1)
        resp = em.e_step(data, G0, 2)
        out = experts_step(data, resp, G0)

        def weighted_ll(a, b, sigma):
            G = ml.MixingMeasure.from_arrays(G0.beta0, G0.beta1, a, b, sigma)
            logf = ml.model.expert_log_density_matrix(G, data.x, data.y)
            return float((resp * logf).sum())

        base = weighted_ll(*out)
        for i in range(2):
            if out[2][i] <= 1e-3:  # floored: boundary, not interior
                continue
            for field in range(3):  # a, b, sigma
                for delta in (-1e-4, 1e-4):
                    pert = [v.copy() for v in out]
                    pert[field][i] += delta
                    assert weighted_ll(*pert) <= base + 1e-9


class TestMStepGating:
    def test_k1_gradients_zero(self, bench_truth):
        data = small_data(bench_truth, K=1)
        resp = em.e_step(data, bench_truth, 1)
        beta0, beta1 = gating_step(data.x, resp, bench_truth, 1, lr=0.5, steps=3)
        assert np.array_equal(beta0, bench_truth.beta0)
        assert np.array_equal(beta1, bench_truth.beta1)

    def test_stationary_when_resp_equals_gate(self):
        G = ml.MixingMeasure.from_arrays(
            [0.1, -0.2], [[1.0], [0.3]], [[1], [2]], [0, 1], [1, 1]
        )
        x = np.linspace(0, 1, 80)[:, None]
        data = ml.Dataset(x=x, y=np.zeros(80))
        resp = np.exp(ml.model.gate_log_weights(G, x, 2))
        beta0, beta1 = gating_step(data.x, resp, G, 2, lr=0.5, steps=4)
        np.testing.assert_allclose(beta0, G.beta0, atol=1e-9)
        np.testing.assert_allclose(beta1, G.beta1, atol=1e-9)

    def test_surrogate_never_decreases(self, bench_truth):
        rng = np.random.default_rng(1)
        data = small_data(bench_truth, n=300)
        G = random_measure(rng, 3, 1)
        resp = em.e_step(data, G, 2)
        mask = ml.model._selection_mask(G.beta1 @ data.x.T, 2)
        q0 = em.gating_surrogate(data.x, resp, mask, G.beta0, G.beta1)
        q1 = em.gating_surrogate(data.x, resp, mask, *gating_step(data.x, resp, G, 2, lr=2.0, steps=5))
        assert q1 >= q0 - 1e-9

    @pytest.mark.parametrize("case", ["dense-1d", "top2-2d"])
    def test_matches_reference_block_ascent(self, case, bench_truth):
        # m_step_gating runs the first-order block ascent written out below
        # from the public surrogate and its gradients alone
        if case == "dense-1d":
            truth, plan, K, lr, steps, bounds = bench_truth, (0, 1, 1), 3, 2.0, 2, None
        else:
            truth = ml.true_measure(**TRUTH_2D)
            plan, K, lr, steps, bounds = (0, 1, 2), 2, 0.1, 5, BOX_2D
        data = ml.sample_dataset(truth, 2, 2000, seed=11, bounds=bounds)
        G = em.init_measure(em.InitSpec(truth, plan, 0.3), seed=12)
        resp = em.e_step(data, G, K)
        got0, got1 = gating_step(data.x, resp, G, K, lr=lr, steps=steps)
        beta0, beta1, _ = reference_block_ascent(data.x, resp, K, G, lr, steps)
        assert not np.allclose(got1, G.beta1, rtol=0.0, atol=1e-6)  # the gate moved
        np.testing.assert_allclose(got0, beta0, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got1, beta1, rtol=1e-12, atol=1e-12)

    def test_non_finite_surrogate_is_a_failed_proposal(self, monkeypatch):
        # a -inf logsumexp, as an underflowed shift-identity sum would give,
        # scores as a +inf gain; the proposal is halved instead
        truth = ml.true_measure(**TRUTH_2D)
        data = ml.sample_dataset(truth, 2, 2000, seed=11, bounds=BOX_2D)
        G = em.init_measure(em.InitSpec(truth, (0, 1, 2), 0.3), seed=12)
        resp = em.e_step(data, G, 2)
        start = ml.model.GatePass.at(data.x, G.beta0, G.beta1, 2)
        plain0, _, halvings = em.m_step_gating(data.x, resp, start, lr=0.1, steps=1)
        shifted, calls = em._shifted, []

        def first_underflows(lse, w, shift):
            calls.append(shift)
            lse, w = shifted(lse, w, shift)
            return (np.full_like(lse, -np.inf) if len(calls) == 1 else lse), w

        monkeypatch.setattr(em, "_shifted", first_underflows)
        out0, _, halvings_out = em.m_step_gating(data.x, resp, start, lr=0.1, steps=1)
        assert (halvings, halvings_out) == (0, 1)
        np.testing.assert_array_equal(calls[1], calls[0] / 2)  # the beta0 step, halved
        assert not np.array_equal(out0, plain0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        # central differences of the fixed-selection surrogate, relative 1e-5
        rng = np.random.default_rng(2000 + seed)
        k, d, n = 3, 2, 60
        G = random_measure(rng, k, d)
        X = rng.uniform(-1, 1, size=(n, d))
        resp_raw = rng.random((n, k)).T
        mask = ml.model._selection_mask(G.beta1 @ X.T, 2)
        resp = np.where(mask, resp_raw, 0.0)
        resp /= resp.sum(axis=0)
        g0, g1 = em.gating_gradients(X, resp, mask, G.beta0, G.beta1)
        h = 1e-6
        for i in range(k):
            b0p, b0m = G.beta0.copy(), G.beta0.copy()
            b0p[i] += h
            b0m[i] -= h
            fd = (
                em.gating_surrogate(X, resp, mask, b0p, G.beta1)
                - em.gating_surrogate(X, resp, mask, b0m, G.beta1)
            ) / (2 * h)
            assert g0[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            for c in range(d):
                b1p, b1m = G.beta1.copy(), G.beta1.copy()
                b1p[i, c] += h
                b1m[i, c] -= h
                fd = (
                    em.gating_surrogate(X, resp, mask, G.beta0, b1p)
                    - em.gating_surrogate(X, resp, mask, G.beta0, b1m)
                ) / (2 * h)
                assert g1[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@st.composite
def shift_cases(draw):
    """A gate, dense or top-K, on up to 20 inputs in d <= 3, and a beta0
    (block 0) or beta1 (block 1) step whose logit shift stays within
    em.SHIFT_BOUND."""
    k, d, n = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 20))
    K = draw(st.integers(1, k))
    coords = st.floats(-5.0, 5.0)
    beta0, delta0 = draw(arrays(float, k, elements=coords)), draw(arrays(float, k, elements=coords))
    beta1, delta1 = (draw(arrays(float, (k, d), elements=coords)) for _ in range(2))
    X = draw(arrays(float, (n, d), elements=st.floats(-2.0, 2.0)))
    return X, beta0, beta1, K, draw(st.integers(0, 1)), delta0, delta1


class TestShiftIdentity:
    """The gating M-step scores a proposal from the current gate by the
    softmax shift identity; within em.SHIFT_BOUND its logsumexp and weights
    are the exact gate's at the moved parameters."""

    @given(shift_cases())
    def test_equals_exact_gate(self, case):
        X, beta0, beta1, K, block, delta0, delta1 = case
        mask = ml.model.GatePass.at(X, beta0, beta1, K).mask
        gate = ml.model.GatePass.under(X, beta0, beta1, mask)
        if block == 0:
            shift, c, moved = delta0, np.abs(delta0).max(), (beta0 + delta0, beta1)
        else:
            c = (np.abs(delta1) @ np.abs(X).max(axis=0)).max()
            shift, moved = delta1 @ X.T, (beta0, beta1 + delta1)
        assert c <= em.SHIFT_BOUND
        lse, w = em._shifted(gate.lse, gate.w, shift)
        exact = ml.model.GatePass.under(X, *moved, mask)
        # atol: lse may sit at 0, where rounding near c is no relative error
        np.testing.assert_allclose(lse, exact.lse, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w, exact.w, rtol=1e-12, atol=0.0)
        if mask is not None:
            assert np.all(w[~mask] == 0.0)


class TestGatePass:
    @pytest.mark.parametrize("seed", range(6))
    def test_log_weights_equal_gate_log_weights(self, seed):
        rng = np.random.default_rng(4000 + seed)
        k, d = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        K = int(rng.integers(1, k + 1))
        G = random_measure(rng, k, d)
        X = rng.uniform(-1, 1, size=(300, d))
        gate = ml.model.GatePass.at(X, G.beta0, G.beta1, K)
        assert (gate.mask is None) == (K == k)
        assert np.array_equal(gate.log_weights(), ml.model.gate_log_weights(G, X, K))
        np.testing.assert_allclose(gate.w, np.exp(gate.log_weights()), rtol=1e-12, atol=1e-300)


BAD_SETTINGS = [
    dict(tol=float("nan")), dict(tol=float("inf")), dict(tol=0.0), dict(tol=-1.0),
    dict(gating_lr=float("nan")), dict(gating_lr=float("inf")), dict(gating_lr=0.0),
    dict(max_iters=-1), dict(gating_steps_per_m=0),
]


class TestFitSettings:
    @pytest.mark.parametrize("bad", BAD_SETTINGS)
    def test_fit_config_rejects(self, bench_truth, bad):
        with pytest.raises(ml.InvalidArgumentError):
            ml.FitConfig(K=2, init=em.InitSpec(bench_truth, (0, 1), 0.05), **bad)

    @pytest.mark.parametrize("d", [2, 3])
    def test_data_of_another_dimension_rejected(self, bench_truth, d):
        data = ml.Dataset(x=np.full((10, d), 0.5), y=np.zeros(10))
        with pytest.raises(ml.InvalidArgumentError, match="data dimension does not match the init truth"):
            ml.fit(data, ml.FitConfig(K=2, init=em.InitSpec(bench_truth, (0, 1), 0.05)))

    @pytest.mark.parametrize("bad", BAD_SETTINGS)
    def test_sweep_config_rejects(self, bench_truth, bad):
        with pytest.raises(ml.InvalidArgumentError):
            ml.SweepConfig(truth=bench_truth, data_K=2, fit_k=2, fit_K=2, sample_sizes=(50,),
                           replicates=1, base_seed=0, **bad)


def reference_case(case, bench_truth):
    """Data and fit settings of the reference-loop cases."""
    if case == "dense-1d":
        # overspec-k3's row at n = 1000, replicate 0
        seed = lambda tag: ml.experiments.row_seed(303, 1000, 0, tag)  # noqa: E731
        data = ml.sample_dataset(bench_truth, 2, 1000, seed=seed("data"))
        plan = em.random_cell_plan(3, 2, np.random.default_rng(seed("plan")))
        return data, ml.FitConfig(K=3, init=em.InitSpec(bench_truth, plan, 0.05), seed=seed("init"),
                                  gating_lr=2.0, gating_steps_per_m=2)
    if case == "top2-2d":
        # sparse-2d's truth and settings on a draw with selection flips
        truth = ml.true_measure(**TRUTH_2D)
        data = ml.sample_dataset(truth, 2, 400, seed=5, bounds=BOX_2D)
        return data, ml.FitConfig(K=2, init=em.InitSpec(truth, (0, 1, 2), 0.05), seed=205)
    if case == "huge-step":
        # sparse-2d's truth on a wide box with a huge gating step: its first
        # proposals move the logits far beyond em.SHIFT_BOUND, where only an
        # exact pass scores them
        truth = ml.true_measure(**TRUTH_2D)
        data = ml.sample_dataset(truth, 2, 2000, seed=1, bounds=[[-20.0, 20.0]] * 2)
        return data, ml.FitConfig(K=2, init=em.InitSpec(truth, (0, 1, 2), 0.05), seed=3,
                                  gating_lr=1e8, gating_steps_per_m=2)
    data = ml.sample_dataset(bench_truth, 2, 500, seed=1)
    if case == "sigma-floor":
        # with em.SIGMA_FLOOR at 1.0, above the init's scales, the floored
        # expert step lowers the likelihood, and the ascent guard undoes it
        return data, ml.FitConfig(K=2, init=em.InitSpec(bench_truth, (0, 1, 1), 0.05), seed=3, max_iters=300)
    # long-step: a gating step so long that the line search halves it
    return data, ml.FitConfig(K=2, init=em.InitSpec(bench_truth, (1, 0, 0), 0.05), seed=3,
                              gating_lr=50.0, gating_steps_per_m=2, max_iters=300)


class TestFit:
    @pytest.mark.parametrize("case", ["dense-1d", "top2-2d", "long-step", "sigma-floor", "huge-step"])
    def test_matches_reference_em_loop(self, case, bench_truth, monkeypatch):
        if case == "sigma-floor":
            monkeypatch.setattr(em, "SIGMA_FLOOR", 1.0)
        data, cfg = reference_case(case, bench_truth)
        G, trace, iterations, converged, counts = reference_fit(data, cfg)
        res = ml.fit(data, cfg)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert (res.reverted_experts, res.reverted_gating, res.backtracks) == (
            counts["reverted_experts"], counts["reverted_gating"], counts["backtracks"])
        np.testing.assert_allclose(res.loglik_trace, trace, rtol=1e-12, atol=0.0)
        for field in ("beta0", "beta1", "a", "b", "sigma"):
            np.testing.assert_allclose(getattr(res.measure, field), getattr(G, field), rtol=1e-12, atol=0.0)
        if case == "top2-2d":
            assert counts["flips"] >= 1 and counts["reverted_gating"] >= 1
        elif case == "sigma-floor":
            assert counts["reverted_experts"] >= 1
        elif case in ("long-step", "huge-step"):
            assert counts["backtracks"] >= 1

    @pytest.mark.parametrize("case", ["top2-flip", "top2-still", "dense"])
    def test_gate_is_the_exact_pass_at_its_parameters(self, case, bench_truth, monkeypatch):
        # each gating M-step starts from the gate before it, after a revert,
        # or else from the exact pass at the last step's parameters under
        # their own selection, bit for bit, whether or not the selection flipped
        if case == "dense":
            truth, plan, K, lr, bounds = bench_truth, (0, 1, 1), 3, 2.0, None
        else:
            truth, plan, K, bounds = ml.true_measure(**TRUTH_2D), (0, 1, 2), 2, BOX_2D
            lr = 0.1 if case == "top2-flip" else 1e-4
        data = ml.sample_dataset(truth, 2, 2000, seed=11, bounds=bounds)
        step, calls = em.m_step_gating, []

        def spy(X, resp, gate, lr, steps):
            calls.append((gate, step(X, resp, gate, lr, steps)))
            return calls[-1][1]

        monkeypatch.setattr(em, "m_step_gating", spy)
        ml.fit(data, ml.FitConfig(K=K, init=em.InitSpec(truth, plan, 0.3), seed=12, gating_lr=lr, max_iters=10))
        kept = []
        for (gate, (beta0, beta1, _)), (nxt, _) in zip(calls, calls[1:]):
            if nxt is not gate:
                exact = ml.model.GatePass.at(data.x, beta0, beta1, K)
                assert all(np.array_equal(got, want) for got, want in zip(nxt, exact))
                kept.append(not np.array_equal(nxt.mask, gate.mask))
        assert len(calls) == 10 and kept
        if case == "dense":
            assert all(gate.mask is None for gate, _ in calls)
        else:
            assert any(kept) == (case == "top2-flip")

    def test_invalid_expert_step_fails_the_fit(self, bench_truth, monkeypatch):
        # a non-finite expert update is an error, never a silent NaN fit, and
        # a sweep turns it into a failed row
        monkeypatch.setattr(em, "_wls_solve", lambda A, rhs: np.full(rhs.shape, np.nan))
        data = small_data(bench_truth, n=200, K=2, seed=4)
        cfg = ml.FitConfig(K=2, init=em.InitSpec(bench_truth, (0, 1), 0.05))
        with pytest.raises(ml.MoeError):
            ml.fit(data, cfg)
        sweep = ml.run_sweep(ml.SweepConfig(truth=bench_truth, data_K=2, fit_k=2, fit_K=2,
                                            sample_sizes=(200,), replicates=1, base_seed=0))
        (row,) = sweep.rows
        assert np.isnan(row.loss) and np.isnan(row.loglik) and not row.converged
        assert sweep.n_failures == 1

    def test_degenerate_likelihood_raises_without_warnings(self, bench_truth):
        # y = 1e308 overflows every expert's standardized residual, so sample
        # 0 has no likelihood under any component
        data = ml.Dataset(x=[0.1, 0.5, 0.9], y=[1e308, 1.0, 2.0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ml.DegenerateDataError) as err:
                ml.fit(data, ml.FitConfig(K=2, init=em.InitSpec(bench_truth, (0, 1), 0.05)))
        assert [str(w.message) for w in seen] == []
        assert err.value.sample_index == 0
        assert str(err.value) == "degenerate likelihood at sample index 0"

    def test_single_expert_recovery(self):
        truth = ml.MixingMeasure.from_arrays([0.0], [[1.0]], [[2.0]], [-1.0], [0.5])
        data = ml.sample_dataset(
            ml.true_measure([0.0, 0.0], [[1.0], [0.0]], [[2.0], [2.1]], [-1.0, -1.0], [0.5, 0.5]),
            1, 10_000, seed=3,
        )
        cfg = ml.FitConfig(K=1, init=em.InitSpec(truth, (0,), 0.1), seed=1)
        res = ml.fit(data, cfg)
        e = res.measure
        n = data.n
        # within 3 standard errors of the single-regression MLE
        se_a = 0.5 * np.sqrt(12 / n)
        se_b = 0.5 * np.sqrt(4 / n)
        assert abs(e.a[0, 0] - 2.0) < 3 * se_a
        assert abs(e.b[0] - (-1.0)) < 3 * se_b
        assert abs(e.sigma[0] - 0.5) < 3 * 0.5 / np.sqrt(2 * n)

    def test_truth_init_converges_fast(self, bench_truth):
        # K=1 responsibilities are init-independent indicators, so the expert
        # step hits its fixed point immediately and the gate never moves
        data = small_data(bench_truth, n=2000, K=1, seed=4)
        cfg = ml.FitConfig(
            K=1, init=em.InitSpec(bench_truth, (0, 1), 0.0), seed=0, max_iters=10
        )
        res = ml.fit(data, cfg)
        assert res.converged
        assert res.iterations <= 3

    def test_zero_iterations_returns_init(self, bench_truth):
        data = small_data(bench_truth, n=200, K=2, seed=4)
        cfg = ml.FitConfig(
            K=2, init=em.InitSpec(bench_truth, (0, 1), 0.0), seed=0, max_iters=0
        )
        res = ml.fit(data, cfg)
        assert res.iterations == 0
        assert np.array_equal(res.measure.beta1, bench_truth.beta1)
        assert ml.loss_d1(res.measure, bench_truth, 2).value == 0.0

    def test_deterministic(self, bench_truth):
        data = small_data(bench_truth, n=500, K=2, seed=6)
        cfg = ml.FitConfig(K=2, init=em.InitSpec(bench_truth, (0, 1), 0.05), seed=7)
        r1, r2 = ml.fit(data, cfg), ml.fit(data, cfg)
        assert np.array_equal(r1.loglik_trace, r2.loglik_trace)
        assert np.array_equal(r1.measure.beta1, r2.measure.beta1)
        assert np.array_equal(r1.measure.sigma, r2.measure.sigma)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_loglik(self, seed, bench_truth):
        rng = np.random.default_rng(3000 + seed)
        k = int(rng.integers(2, 4))
        K = int(rng.integers(1, k + 1))
        plan = em.random_cell_plan(k, 2, rng)
        data = small_data(bench_truth, n=400, K=2, seed=seed)
        cfg = ml.FitConfig(
            K=K, init=em.InitSpec(bench_truth, plan, 0.3), seed=seed, max_iters=60
        )
        res = ml.fit(data, cfg)
        assert np.all(np.diff(res.loglik_trace) >= -1e-9)


def spy_exp_arguments(monkeypatch):
    """The least argument of every later np.exp call, in call order."""
    plain_exp, lowest = np.exp, []

    def guarded(x, *args, **kwargs):
        x_arr = np.asarray(x)
        lowest.append(float(np.min(x_arr)) if x_arr.size else np.inf)
        return plain_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", guarded)
    return lowest


def test_log_joints_stay_off_the_slow_exp_path(bench_truth, monkeypatch):
    # every np.exp call gets arguments at or above the clamp of model._exp:
    # np.exp computes underflowing lanes on a scalar path, 4-115 ns a lane
    # against about 1 ns.  Checked on 50 EM iterations of overspec-k3's
    # n = 1000 row, a dense 1-D expected Hellinger distance, and their top-2
    # 2-D counterparts: the top2-2d reference fit, from its sampled data on,
    # and a sparse-2d expected Hellinger distance, whose gates are -inf off
    # the selection
    lowest = spy_exp_arguments(monkeypatch)
    data, cfg = reference_case("dense-1d", bench_truth)
    assert ml.fit(data, dataclasses.replace(cfg, max_iters=50)).iterations == 50
    fit_calls = len(lowest)
    G_fit = em.init_measure(cfg.init, seed=4)
    grid = ml.default_y_grid(G_fit, bench_truth, [[0.0, 1.0]])
    ml.expected_hellinger(G_fit, 3, bench_truth, 2, ml.uniform_box_sampler([[0.0, 1.0]]), 20, grid, seed=1)
    assert fit_calls > 50 and len(lowest) > fit_calls
    dense_calls = len(lowest)
    data, cfg = reference_case("top2-2d", bench_truth)
    assert ml.fit(data, cfg).reverted_gating >= 1  # a selection flip, as the reference test pins
    G_fit, truth = em.init_measure(cfg.init, seed=4), cfg.init.truth
    grid = ml.default_y_grid(G_fit, truth, BOX_2D)
    ml.expected_hellinger(G_fit, 2, truth, 2, ml.uniform_box_sampler(BOX_2D), 20, grid, seed=1)
    assert len(lowest) > dense_calls + 50
    assert min(lowest) >= ml.model._EXP_FLOOR


def test_huge_gating_steps_stay_off_the_slow_exp_path(bench_truth, monkeypatch):
    # the huge-step reference fit proposes logit shifts far beyond
    # em.SHIFT_BOUND; those are scored by exact passes, whose masked softmax
    # clamps at model._EXP_FLOOR, so no np.exp argument falls below it, as
    # the shift identity's exp(shift) would on shifts of thousands of nats
    lowest = spy_exp_arguments(monkeypatch)
    data, cfg = reference_case("huge-step", bench_truth)
    assert ml.fit(data, cfg).backtracks >= 1
    assert min(lowest) >= ml.model._EXP_FLOOR
