"""End-to-end coverage for input dimension d > 1; everything on the d=1 paths
must work unchanged on general boxes."""

import numpy as np
import pytest

import moelab as ml
from moelab import em
from moelab.experiments import LossSpec, SweepConfig, run_sweep


@pytest.fixture
def truth_2d():
    return ml.true_measure(
        beta0=[-1.0, 0.0],
        beta1=[[3.0, -2.0], [0.0, 0.0]],
        a=[[1.0, 0.5], [-1.0, 2.0]],
        b=[0.0, 1.0],
        sigma=[0.3, 0.5],
    )


def test_sampling_and_density_2d(truth_2d):
    bounds = [[0.0, 1.0], [-1.0, 1.0]]
    data = ml.sample_dataset(truth_2d, 2, 500, seed=0, bounds=bounds)
    assert data.x.shape == (500, 2)
    w = np.exp(ml.gate_log_weights(truth_2d, [0.3, -0.4], 2))
    assert abs(w.sum() - 1.0) <= 1e-12
    # density normalizes at a 2d input
    ys = np.linspace(-8, 8, 4001)
    dens = np.exp(ml.model._softmax(ml.log_joint(truth_2d, [0.3, -0.4], ys[None, :], 2))[0][0])
    assert np.trapezoid(dens, ys) == pytest.approx(1.0, abs=1e-6)


def test_fit_recovers_2d_experts(truth_2d):
    bounds = [[0.0, 1.0], [-1.0, 1.0]]
    data = ml.sample_dataset(truth_2d, 2, 4000, seed=1, bounds=bounds)
    cfg = ml.FitConfig(
        K=2, init=em.InitSpec(truth_2d, (0, 1), 0.05), seed=2, max_iters=200
    )
    res = ml.fit(data, cfg)
    assert np.all(np.diff(res.loglik_trace) >= -1e-9)
    np.testing.assert_allclose(res.measure.a, truth_2d.a, atol=0.15)
    np.testing.assert_allclose(res.measure.b, truth_2d.b, atol=0.15)


def test_losses_and_hellinger_2d(truth_2d):
    rng = np.random.default_rng(3)
    G_fit = ml.MixingMeasure.from_arrays(
        truth_2d.beta0 + 0.01 * rng.standard_normal(2),
        truth_2d.beta1 + 0.01 * rng.standard_normal((2, 2)),
        truth_2d.a + 0.01 * rng.standard_normal((2, 2)),
        truth_2d.b + 0.01 * rng.standard_normal(2),
        truth_2d.sigma,
    )
    assert ml.loss_d1(G_fit, truth_2d, 1).value > 0
    assert ml.loss_d2(G_fit, truth_2d, 1, ml.rbar_fn("exact")).value > 0
    bounds = [[0.0, 1.0], [-1.0, 1.0]]
    grid = ml.default_y_grid(G_fit, truth_2d, bounds)
    sampler = ml.uniform_box_sampler(bounds)
    est = ml.expected_hellinger(G_fit, 2, truth_2d, 2, sampler, 50, grid, seed=4)
    assert 0.0 <= est.mean < 0.1


def test_sweep_on_2d_box(truth_2d):
    cfg = SweepConfig(
        truth=truth_2d, data_K=2, fit_k=2, fit_K=2,
        sample_sizes=(100, 200), replicates=2, base_seed=5,
        bounds=[[0.0, 1.0], [-1.0, 1.0]],
        loss=LossSpec(metric="d1"), max_iters=30,
    )
    result = run_sweep(cfg)
    assert len(result.rows) == 4
    assert all(np.isfinite(r.loss) for r in result.rows)


def test_partition_2d(truth_2d):
    sampler = ml.uniform_box_sampler([[0.0, 1.0], [-1.0, 1.0]])
    subsets = ml.positive_mass_subsets(truth_2d, 1, sampler, 20_000, seed=6)
    # the zero-slope gate loses everywhere 3x - 2y > 0 and wins on the rest
    assert subsets == [(0,), (1,)]
    rate = ml.partition_match_rate(truth_2d, truth_2d, 1, sampler, 10_000, seed=7)
    assert rate == 1.0
