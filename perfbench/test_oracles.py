"""Tests of the reference computations in oracles.py.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import math

import numpy as np
import pytest

import oracles as orc

TRUTH_1D = orc.mixture([-8.0, 0.0], [[25.0], [0.0]], [[-20.0], [20.0]], [15.0, -5.0], [0.3, 0.4])
TRUTH_2D = orc.mixture(
    [-0.5, 0.3, 0.0], [[4.0, 0.0], [-2.0, 3.5], [0.0, 0.0]],
    [[2.0, -1.0], [-1.5, 2.0], [0.5, 0.5]], [1.0, -1.0, 0.0], [0.3, 0.4, 0.5],
)


@pytest.mark.parametrize("mix, K, xs", [
    (TRUTH_1D, 1, [[0.0], [0.31], [0.32], [0.9]]),
    (TRUTH_1D, 2, [[0.0], [0.31], [0.32], [0.9]]),
    (TRUTH_2D, 1, [[-0.8, 0.5], [0.0, 0.0], [0.7, -0.2]]),
    (TRUTH_2D, 2, [[-0.8, 0.5], [0.0, 0.0], [0.7, -0.2]]),
    (TRUTH_2D, 3, [[-0.8, 0.5], [0.0, 0.0], [0.7, -0.2]]),
])
def test_gated_density_integrates_to_one(mix, K, xs):
    y = np.linspace(-40.0, 40.0, 40001)
    for x in xs:
        dens = np.exp(orc.log_density(mix, K, np.tile(x, (y.size, 1)), y))
        assert np.trapezoid(dens, y) == pytest.approx(1.0, abs=1e-9)


def test_topk_mask_breaks_ties_toward_smaller_index():
    logits = np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 2.0], [3.0, -1.0, 3.0]])
    assert orc.topk_mask(logits, 1).tolist() == [
        [True, False, False], [False, True, False], [True, False, False],
    ]
    assert orc.topk_mask(logits, 2).tolist() == [
        [True, True, False], [False, True, True], [True, False, True],
    ]


def test_gate_keeps_only_the_top_k_and_sums_to_one():
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(500, 2))
    w = np.exp(orc.log_gate(TRUTH_2D, 2, X))
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-14)
    assert np.all((w > 0).sum(axis=1) == 2)


@pytest.mark.parametrize("seed", range(20))
def test_quadrature_matches_single_expert_closed_form(seed):
    rng = np.random.default_rng(seed)
    mu1, mu2 = rng.normal(0.0, 2.0, size=2)
    s1, s2 = np.exp(rng.normal(-0.3, 0.4, size=2))
    A = orc.mixture([0.0], [[0.0]], [[0.0]], [mu1], [s1])
    B = orc.mixture([0.0], [[0.0]], [[0.0]], [mu2], [s2])
    lo = min(mu1, mu2) - 8.0 * max(s1, s2)
    hi = max(mu1, mu2) + 8.0 * max(s1, s2)
    got = orc.hellinger_quadrature(A, 1, B, 1, [[0.5]], np.linspace(lo, hi, 2001))[0]
    assert got == pytest.approx(float(orc.gaussian_hellinger(mu1, s1, mu2, s2)), abs=1e-9)


def test_hellinger_of_a_density_with_itself_is_zero():
    X = np.random.default_rng(1).uniform(0.0, 1.0, size=(7, 1))
    got = orc.hellinger_quadrature(TRUTH_1D, 2, TRUTH_1D, 2, X, np.linspace(-30, 30, 2001))
    assert np.all(got == 0.0)


@pytest.mark.parametrize("c", [1.0, 0.7, 1.9])
def test_witness_solves_the_system_through_order_three(c):
    z0 = np.zeros(2)
    args = (z0, z0, [c, -c], [-c * c / 2.0, -c * c / 2.0], [1.0, 1.0])
    assert orc.max_abs_residual(*args, r=3) <= 1e-12
    C = orc.series_coefficients(*args, r=4)
    assert C[0, 4] == pytest.approx(-(c**4) / 6.0, abs=1e-12)
    assert orc.max_abs_residual(*args, r=4) == pytest.approx(c**4 / 6.0, abs=1e-12)


def test_series_coefficients_of_one_component():
    # exp(z1 u + z2 u s + z3 s + z4 s^2): expand by hand at low order.
    z1, z2, z3, z4, z5 = 0.7, -1.3, 0.4, 2.1, 1.5
    C = orc.series_coefficients([z1], [z2], [z3], [z4], [z5], r=3)
    w = z5**2
    assert C[0, 0] == pytest.approx(w)
    assert C[2, 0] == pytest.approx(w * z1**2 / 2)
    assert C[1, 1] == pytest.approx(w * (z2 + z1 * z3))
    assert C[0, 2] == pytest.approx(w * (z4 + z3**2 / 2))
    assert C[0, 3] == pytest.approx(w * (z3 * z4 + z3**3 / 6))
    assert C[1, 2] == pytest.approx(w * (z2 * z3 + z1 * z4 + z1 * z3**2 / 2))


def test_positive_mass_subsets_of_the_truths():
    rng = np.random.default_rng(2)
    X2 = rng.uniform(-1.0, 1.0, size=(20000, 2))
    assert orc.positive_mass_subsets(TRUTH_2D, 2, X2) == [(0, 1), (0, 2), (1, 2)]
    X1 = rng.uniform(0.0, 1.0, size=(20000, 1))
    assert orc.positive_mass_subsets(TRUTH_1D, 1, X1) == [(0,)]
    assert orc.positive_mass_subsets(TRUTH_1D, 2, X1) == [(0, 1)]


def test_mean_log_likelihood_of_a_single_gaussian():
    y = np.array([0.1, -0.4, 1.3])
    mix = orc.mixture([0.0], [[0.0]], [[0.0]], [0.2], [0.8])
    want = np.mean(-0.5 * ((y - 0.2) / 0.8) ** 2 - math.log(0.8) - 0.5 * math.log(2 * math.pi))
    assert orc.mean_log_likelihood(mix, 1, np.zeros((3, 1)), y) == pytest.approx(want, rel=1e-15)
