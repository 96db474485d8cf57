"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The two 240-fit rate sweeps dominate the runtime (a few minutes on one core).
Set MOELAB_ACCEPTANCE=skip to exclude this module.
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import moelab as ml
from moelab import em
from moelab.experiments import (
    LossSpec,
    SweepConfig,
    emit_csv,
    fit_slope,
    mean_loss_by_n,
    rescore_rows,
    run_sweep,
)

from conftest import random_measure

if os.environ.get("MOELAB_ACCEPTANCE", "").lower() == "skip":
    pytest.skip("acceptance suite disabled via MOELAB_ACCEPTANCE", allow_module_level=True)

UNIT = ml.uniform_box_sampler([[0.0, 1.0]])

SIZES_FULL = tuple(int(round(10**e)) for e in np.linspace(2, 4, 12))
SIZES_LARGE = tuple(int(round(10**e)) for e in np.linspace(3, 4, 6))


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="session")
def truth():
    return ml.true_measure(
        beta0=[-8.0, 0.0], beta1=[[25.0], [0.0]],
        a=[[-20.0], [20.0]], b=[15.0, -5.0], sigma=[0.3, 0.4],
    )


@pytest.fixture(scope="session")
def dense_sweep(truth):
    """Criterion 1/5 sweep: exact-specified, dense gate (K = k* = 2)."""
    cfg = SweepConfig(
        truth=truth, data_K=2, fit_k=2, fit_K=2,
        sample_sizes=SIZES_FULL, replicates=20, base_seed=101,
        noise_std=0.05, loss=LossSpec(metric="d1"),
    )
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    return cfg, result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def top1_sweep(truth):
    """Criterion 2 sweep: same protocol with K = 1 and the expert-only loss
    restricted to positive-mass selected sets."""
    cfg = SweepConfig(
        truth=truth, data_K=1, fit_k=2, fit_K=1,
        sample_sizes=SIZES_FULL, replicates=20, base_seed=202,
        noise_std=0.05,
        loss=LossSpec(metric="d1", terms=("a", "b", "sigma"), positive_mass_only=True),
    )
    return cfg, run_sweep(cfg)


@pytest.fixture(scope="session")
def overspecified_sweep(truth):
    """Criterion 3 sweep: k = 3 over k* = 2, top-3 fitted gate, D2 exact."""
    cfg = SweepConfig(
        truth=truth, data_K=2, fit_k=3, fit_K=3,
        sample_sizes=SIZES_LARGE, replicates=12, base_seed=303,
        noise_std=0.05, gating_lr=2.0, gating_steps_per_m=2,
        loss=LossSpec(metric="d2", rbar_policy="exact", renormalize=True),
    )
    return cfg, run_sweep(cfg)


def test_criterion_1_exact_specified_dense_rate(dense_sweep):
    cfg, result, elapsed = dense_sweep
    ok = -0.65 <= result.slope <= -0.35 and result.n_failures == 0
    ok &= elapsed <= 900.0
    assert report(
        1, ok,
        f"dense-gate D1 slope {result.slope:.3f} +/- {result.slope_stderr:.3f} "
        f"(target [-0.65, -0.35]), {result.n_failures} failures, sweep {elapsed:.0f}s",
    )


def test_criterion_2_top1_expert_parameter_rate(top1_sweep):
    cfg, result = top1_sweep
    full = rescore_rows(cfg, result.rows, LossSpec(metric="d1"))
    slope_full, _, _ = fit_slope(full)
    ok = -0.70 <= result.slope <= -0.30
    assert report(
        2, ok,
        f"expert-restricted D1 slope {result.slope:.3f} (target [-0.70, -0.30]); "
        f"full-D1 slope {slope_full:.3f} reported, not gated",
    )


def test_criterion_3_over_specified_rate(overspecified_sweep):
    # The abstract's slow over-specified rates hold only when the fitted top-K
    # is at least the total size of the Voronoi cells of the selected true
    # components: with data_K = k* = 2 and fit_k = 3 that is 3, so the fit
    # uses K = 3 and every row is checked against the condition.  (At K = 2,
    # rows whose init plan seeds two fitted components from the steep true
    # component split its slope into about 37.5/12.5, the third component is
    # never selected on [0, 1], and D2 stays at 380-510 for every n.)
    # D2 is scored modulo the common (beta0, beta1) translation that the
    # likelihood cannot see (renormalize=True).  The paper states an O_P upper
    # rate, so the gate is a slowest admissible decay: slope <= -0.15, and the
    # same decay between the end points, ratio >= (n_max / n_min) ** 0.15.
    cfg, result = overspecified_sweep
    premise_ok = all(
        sum(sorted(len(c) for c in ml.assign_voronoi(r.measure, cfg.truth).cells)[-cfg.data_K:])
        <= cfg.fit_K
        for r in result.rows
        if r.measure is not None
    )
    ns, means, _ = mean_loss_by_n(result.rows)
    ratio = means[0] / means[-1]
    min_ratio = (ns[-1] / ns[0]) ** 0.15
    ok = premise_ok and result.slope <= -0.15 and ratio >= min_ratio
    assert report(
        3, ok,
        f"over-specified D2 slope {result.slope:.3f} +/- {result.slope_stderr:.3f} "
        f"(target <= -0.15), mean D2 {means[0]:.4g} @ n={ns[0]} vs {means[-1]:.4g} "
        f"@ n={ns[-1]} (ratio {ratio:.2f}, target >= {min_ratio:.2f}), "
        f"top-{cfg.fit_K} covers the {cfg.data_K} largest cells in every row: {premise_ok}",
    )


def test_criterion_4_topkbar_obstruction(truth):
    # same over-specified truth/fit but the fitted gate keeps only 1 expert,
    # below the 2 components sitting in the binding Voronoi cell
    cfg = SweepConfig(
        truth=truth, data_K=2, fit_k=3, fit_K=1,
        sample_sizes=(1000, 10000), replicates=10, base_seed=404,
        noise_std=0.05,
        loss=LossSpec(metric="hellinger", hellinger_n_mc=200, y_points=2001),
    )
    result = run_sweep(cfg)
    ns, means, _ = mean_loss_by_n(result.rows)
    ok = means[-1] > 0.02 and means[-1] >= 0.8 * means[0]
    assert report(
        4, ok,
        f"mean Hellinger {means[0]:.4f} @ n=1e3 -> {means[-1]:.4f} @ n=1e4 "
        f"(require > 0.02 and decrease <= 20%)",
    )


def test_criterion_5_density_rate(dense_sweep):
    cfg, result, _ = dense_sweep
    hel = rescore_rows(cfg, result.rows, LossSpec(metric="hellinger", hellinger_n_mc=200))
    slope, stderr, _ = fit_slope(hel)
    ok = -0.65 <= slope <= -0.35
    assert report(
        5, ok,
        f"expected-Hellinger slope {slope:.3f} +/- {stderr:.3f} (target [-0.65, -0.35])",
    )


def test_criterion_6_voronoi_property_suite():
    rng = np.random.default_rng(606)
    rb = ml.rbar_fn("conjecture")
    identity_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 5))
        G = random_measure(rng, k, int(rng.integers(1, 3)))
        K = int(rng.integers(1, k + 1))
        identity_ok &= ml.loss_d1(G, G, K).value == 0.0
        identity_ok &= ml.loss_d2(G, G, K, rb).value == 0.0
        identity_ok &= ml.loss_d3(G, G, K).value == 0.0

    reduction_ok = True
    for seed in range(30):
        rng2 = np.random.default_rng(6060 + seed)
        G_true = random_measure(rng2, 3, 1)
        G_fit = ml.MixingMeasure.from_arrays(
            G_true.beta0 + 0.01 * rng2.standard_normal(3),
            G_true.beta1 + 0.01 * rng2.standard_normal((3, 1)),
            G_true.a + 0.01 * rng2.standard_normal((3, 1)),
            G_true.b + 0.01 * rng2.standard_normal(3),
            G_true.sigma * np.exp(0.01 * rng2.standard_normal(3)),
        )
        if ml.assign_voronoi(G_fit, G_true).cells != ((0,), (1,), (2,)):
            continue
        K = int(rng2.integers(1, 4))
        d1 = ml.loss_d1(G_fit, G_true, K)
        reduction_ok &= ml.loss_d2(G_fit, G_true, K, rb).value == d1.value
        reduction_ok &= ml.loss_d3(G_fit, G_true, K).value == d1.value

    dominance_ok = True
    for seed in range(10):
        rng3 = np.random.default_rng(60600 + seed)
        k_star = int(rng3.integers(2, 7))
        K = int(rng3.integers(1, k_star + 1))
        G_true = random_measure(rng3, k_star, 1)
        G_fit = random_measure(rng3, k_star, 1)
        rep = ml.loss_d1(G_fit, G_true, K)
        for subset in itertools.combinations(range(k_star), K):
            fixed = ml.loss_d1(G_fit, G_true, K, subsets=[subset])
            dominance_ok &= rep.value >= fixed.value - 1e-12

    ok = identity_ok and reduction_ok and dominance_ok
    assert report(
        6, ok,
        f"identity@100 {identity_ok}, singleton-reduction {reduction_ok}, "
        f"subset-max dominance(k*<=6) {dominance_ok}",
    )


def test_criterion_7_polynomial_system_suite():
    inst4 = ml.PolySystemInstance(m=2, d=1, r=4)
    witness = ml.constructive_witness_m2(c=1.0)
    low_order = max(
        abs(ml.residual(inst4, witness, eta1, eta2))
        for eta1, eta2 in ml.enumerate_equations(inst4)
        if sum(eta1) + eta2 <= 3
    )
    at_04 = ml.residual(inst4, witness, (0,), 4)
    witness_ok = low_order <= 1e-12 and abs(abs(at_04) - 1.0 / 6.0) <= 1e-12

    found_23 = ml.search_nontrivial(ml.PolySystemInstance(2, 1, 3), restarts=200, seed=7)
    found_35 = ml.search_nontrivial(ml.PolySystemInstance(3, 1, 5), restarts=200, seed=7)
    search_ok = (
        found_23 is not None
        and ml.max_abs_residual(ml.PolySystemInstance(2, 1, 3), found_23) <= 1e-10
        and found_35 is not None
        and ml.max_abs_residual(ml.PolySystemInstance(3, 1, 5), found_35) <= 1e-10
    )
    table_ok = ml.rbar(2, "exact") == 4 and ml.rbar(3, "exact") == 6
    ok = witness_ok and search_ok and table_ok
    assert report(
        7, ok,
        f"witness max|res| {low_order:.2e} (<=1e-12), |res(0,4)| = {abs(at_04):.12f} "
        f"(= 1/6), searches found: m2r3 {found_23 is not None}, m3r5 {found_35 is not None}, "
        f"rbar table {table_ok}",
    )


def test_criterion_8_partition_match_suite(truth):
    n_mc = 100_000
    slack = 2.0 / np.sqrt(n_mc)
    rng = np.random.default_rng(808)
    direction = rng.standard_normal((2, 1))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    rates = {}
    for eta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        G_fit = ml.MixingMeasure.from_arrays(
            truth.beta0, truth.beta1 + eta * direction,
            truth.a, truth.b, truth.sigma,
        )
        rates[eta] = ml.partition_match_rate(truth, G_fit, None, 1, 1, UNIT, n_mc, seed=81)
    ok = all(rates[eta] >= 1.0 - slack for eta in (1e-3, 1e-4, 1e-5, 1e-6))
    assert report(
        8, ok,
        "match rates " + ", ".join(f"eta={eta:g}: {r:.5f}" for eta, r in rates.items())
        + f" (require 1.0 within {slack:.4f} for eta <= 1e-3)",
    )


def test_criterion_9_em_correctness_suite(truth):
    monotone_ok = True
    for seed in range(50):
        rng = np.random.default_rng(909 + seed)
        k = int(rng.integers(2, 4))
        K = int(rng.integers(1, k + 1))
        data = ml.sample_dataset(truth, 2, 300, seed=seed)
        plan = em.random_cell_plan(k, 2, rng)
        cfg = ml.FitConfig(
            k=k, K=K, init=em.InitSpec(truth, plan, 0.3), seed=seed, max_iters=40
        )
        res = ml.fit(data, cfg)
        monotone_ok &= bool(np.all(np.diff(res.loglik_trace) >= -1e-9))

    grad_ok = True
    for seed in range(20):
        rng = np.random.default_rng(9090 + seed)
        k, d, n = 3, 2, 50
        G = random_measure(rng, k, d)
        X = rng.uniform(-1, 1, size=(n, d))
        mask = ml.model._selection_mask(X @ G.beta1.T, 2)
        resp = np.where(mask, rng.random((n, k)), 0.0)
        resp /= resp.sum(axis=1, keepdims=True)
        g0, g1 = em.gating_gradients(X, resp, mask, G.beta0, G.beta1)
        h = 1e-6
        for i in range(k):
            b0p, b0m = G.beta0.copy(), G.beta0.copy()
            b0p[i] += h
            b0m[i] -= h
            fd = (em.gating_surrogate(X, resp, mask, b0p, G.beta1)
                  - em.gating_surrogate(X, resp, mask, b0m, G.beta1)) / (2 * h)
            grad_ok &= abs(g0[i] - fd) <= 1e-5 * max(1.0, abs(fd)) + 1e-7
            for c in range(d):
                b1p, b1m = G.beta1.copy(), G.beta1.copy()
                b1p[i, c] += h
                b1m[i, c] -= h
                fd = (em.gating_surrogate(X, resp, mask, G.beta0, b1p)
                      - em.gating_surrogate(X, resp, mask, G.beta0, b1m)) / (2 * h)
                grad_ok &= abs(g1[i, c] - fd) <= 1e-5 * max(1.0, abs(fd)) + 1e-7

    hellinger_ok = True
    for seed in range(100):
        rng = np.random.default_rng(90900 + seed)
        mu1, mu2 = rng.normal(0, 2, size=2)
        s1, s2 = np.exp(rng.normal(-0.3, 0.4, size=2))
        Ga = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [mu1], [s1])
        Gb = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [mu2], [s2])
        grid = ml.default_y_grid(Ga, Gb, [[0, 1]])
        got = ml.hellinger_pointwise(Ga, 1, Gb, 1, [0.5], grid)
        hellinger_ok &= abs(got - ml.two_gaussian_hellinger(mu1, s1, mu2, s2)) <= 1e-6

    ok = monotone_ok and grad_ok and hellinger_ok
    assert report(
        9, ok,
        f"monotone loglik@50 {monotone_ok}, gating gradient vs FD@20 {grad_ok}, "
        f"Hellinger closed form@100 {hellinger_ok}",
    )


def test_criterion_10_determinism(truth, tmp_path):
    cfg = SweepConfig(
        truth=truth, data_K=2, fit_k=2, fit_K=2,
        sample_sizes=(100, 200, 400), replicates=3, base_seed=1010,
        noise_std=0.05, max_iters=30, loss=LossSpec(metric="d1"),
    )
    a, b = tmp_path / "p1.csv", tmp_path / "p8.csv"
    emit_csv(run_sweep(replace(cfg, parallelism=1)), a)
    emit_csv(run_sweep(replace(cfg, parallelism=8)), b)
    ok = a.read_bytes() == b.read_bytes()
    assert report(10, ok, f"sweep CSV byte-identical at parallelism 1 vs 8: {ok}")
