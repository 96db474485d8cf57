import itertools
import json

import numpy as np
import pytest

import moelab as ml

from conftest import random_measure

UNIT = ml.uniform_box_sampler([[0.0, 1.0]])


def perturbed(G, rng, scale):
    return ml.MixingMeasure.from_arrays(
        G.beta0 + scale * rng.standard_normal(G.k),
        G.beta1 + scale * rng.standard_normal((G.k, G.d)),
        G.a + scale * rng.standard_normal((G.k, G.d)),
        G.b + scale * rng.standard_normal(G.k),
        G.sigma * np.exp(scale * rng.standard_normal(G.k)),
        family=G.family,
    )


class TestAssignVoronoi:
    def test_identity(self, bench_truth):
        assert ml.assign_voronoi(bench_truth, bench_truth).cells == ((0,), (1,))

    def test_two_near_one(self, bench_truth):
        G_fit = ml.MixingMeasure.from_arrays(
            [-8, -8, 0], [[25.1], [24.9], [0.2]],
            [[-20], [-19.8], [20]], [15, 15.1, -5.2], [0.3, 0.31, 0.4],
        )
        cells = ml.assign_voronoi(G_fit, bench_truth).cells
        assert cells == ((0, 1), (2,))

    def test_equidistant_tie_to_smaller_index(self):
        G_true = ml.MixingMeasure.from_arrays(
            [0, 0], [[1], [-1]], [[1], [1]], [0, 0], [1, 1]
        )
        G_fit = ml.MixingMeasure.from_arrays([0], [[0]], [[1]], [0], [1])
        assert ml.assign_voronoi(G_fit, G_true).cells == ((0,), ())

    def test_dimension_mismatch(self, bench_truth):
        G_fit = ml.MixingMeasure.from_arrays([0], [[0, 0]], [[1, 1]], [0], [1])
        with pytest.raises(ml.InvalidArgumentError):
            ml.assign_voronoi(G_fit, bench_truth)

    @pytest.mark.parametrize("seed", range(5))
    def test_relabeling_permutes_cells(self, seed):
        rng = np.random.default_rng(seed)
        G_true = random_measure(rng, 3, 1)
        G_fit = perturbed(G_true, rng, 0.01)
        perm = rng.permutation(3)
        G_perm = ml.MixingMeasure(tuple(G_fit.components[i] for i in perm), family=G_fit.family)
        base = ml.assign_voronoi(G_fit, G_true).cells
        permuted = ml.assign_voronoi(G_perm, G_true).cells
        inv = np.argsort(perm)
        expect = tuple(tuple(sorted(int(inv[i]) for i in cell)) for cell in base)
        assert permuted == expect


class TestLossD1:
    def test_zero_at_truth(self, bench_truth):
        for K in (1, 2):
            assert ml.loss_d1(bench_truth, bench_truth, K).value == 0.0

    def test_intercept_offset_hand_value(self, bench_truth):
        delta = 0.01
        G_fit = ml.MixingMeasure.from_arrays(
            [-8, 0], [[25], [0]], [[-20], [20]], [15 + delta, -5], [0.3, 0.4]
        )
        rep = ml.loss_d1(G_fit, bench_truth, 1)
        assert rep.value == pytest.approx(np.exp(-8) * delta, rel=1e-12)
        assert rep.argmax_subset == (0,)

    def test_weight_offset_hand_value(self, bench_truth):
        eps = 0.02
        G_fit = ml.MixingMeasure.from_arrays(
            [-8, eps], [[25], [0]], [[-20], [20]], [15, -5], [0.3, 0.4]
        )
        rep = ml.loss_d1(G_fit, bench_truth, 1)
        assert rep.value == pytest.approx(abs(np.exp(eps) - 1.0), rel=1e-12)
        assert rep.argmax_subset == (1,)

    def test_k_exceeds_true_order(self, bench_truth):
        with pytest.raises(ml.InvalidArgumentError):
            ml.loss_d1(bench_truth, bench_truth, 3)

    def test_report_sums_and_json(self, bench_truth):
        rng = np.random.default_rng(2)
        rep = ml.loss_d1(perturbed(bench_truth, rng, 0.1), bench_truth, 2)
        assert rep.value == pytest.approx(sum(rep.per_cell_terms), abs=1e-12)
        back = ml.LossReport.from_json(rep.to_json())
        assert back == rep
        assert set(json.loads(rep.to_json())) == {"value", "argmax_subset", "per_cell_terms"}

    @pytest.mark.parametrize("seed", range(10))
    def test_subset_max_dominance(self, seed):
        # the reported value dominates every fixed K-subset, k* up to 6
        rng = np.random.default_rng(700 + seed)
        k_star = int(rng.integers(2, 7))
        K = int(rng.integers(1, k_star + 1))
        G_true = random_measure(rng, k_star, 1)
        G_fit = perturbed(G_true, rng, 0.3)
        rep = ml.loss_d1(G_fit, G_true, K)
        for subset in itertools.combinations(range(k_star), K):
            fixed = ml.loss_d1(G_fit, G_true, K, subsets=[subset])
            assert rep.value >= fixed.value - 1e-12

    def test_terms_restriction(self, bench_truth):
        rng = np.random.default_rng(3)
        G_fit = perturbed(bench_truth, rng, 0.1)
        full = ml.loss_d1(G_fit, bench_truth, 2)
        expert_only = ml.loss_d1(G_fit, bench_truth, 2, terms=("a", "b", "sigma"))
        assert expert_only.value < full.value

    def test_renormalize_removes_common_shift(self, bench_truth):
        # a pure softmax shift of the gating biases is invisible to the
        # renormalized weight terms
        shift = 0.7
        G_fit = ml.MixingMeasure.from_arrays(
            bench_truth.beta0 + shift, bench_truth.beta1,
            bench_truth.a, bench_truth.b, bench_truth.sigma,
        )
        raw = ml.loss_d1(G_fit, bench_truth, 2)
        renorm = ml.loss_d1(G_fit, bench_truth, 2, renormalize=True)
        assert raw.value > 0.1
        assert renorm.value == pytest.approx(0.0, abs=1e-12)


def translated(G, c0, c1):
    """G with one common (beta0, beta1) translation applied to every component."""
    return ml.MixingMeasure.from_arrays(
        G.beta0 + c0, G.beta1 + np.asarray(c1, dtype=float),
        G.a, G.b, G.sigma, family=G.family,
    )


def all_losses(G_fit, G_true, K, **kw):
    return (
        ml.loss_d1(G_fit, G_true, K, **kw),
        ml.loss_d2(G_fit, G_true, K, ml.rbar_fn("exact"), **kw),
        ml.loss_d3(G_fit, G_true, K, **kw),
    )


class TestRenormalizedTranslationInvariance:
    @pytest.mark.parametrize("seed", range(10))
    def test_fit_translation_leaves_losses_unchanged(self, seed):
        rng = np.random.default_rng(1100 + seed)
        d = int(rng.integers(1, 3))
        k_star = int(rng.integers(2, 4))
        G_true = random_measure(rng, k_star, d)
        G_fit = random_measure(rng, k_star + int(rng.integers(0, 2)), d)
        G_moved = translated(G_fit, rng.normal(0.0, 2.0), rng.normal(0.0, 5.0, size=d))
        K = int(rng.integers(1, k_star + 1))
        for base, moved in zip(
            all_losses(G_fit, G_true, K, renormalize=True),
            all_losses(G_moved, G_true, K, renormalize=True),
        ):
            assert moved.value == pytest.approx(base.value, rel=1e-9, abs=1e-12)
            assert moved.argmax_subset == base.argmax_subset

    @pytest.mark.parametrize("seed", range(10))
    def test_translated_truth_scores_zero(self, seed):
        rng = np.random.default_rng(1200 + seed)
        d = int(rng.integers(1, 3))
        k_star = int(rng.integers(2, 4))
        G_true = random_measure(rng, k_star, d)
        G_fit = translated(G_true, rng.normal(0.0, 2.0), rng.normal(0.0, 5.0, size=d))
        K = int(rng.integers(1, k_star + 1))
        for rep in all_losses(G_fit, G_true, K, renormalize=True):
            assert rep.value == pytest.approx(0.0, abs=1e-12)
        for rep in all_losses(G_fit, G_true, K):
            assert rep.value > 1e-3

    def test_translated_bench_truth_scores_zero(self, bench_truth):
        G_fit = translated(bench_truth, -3.1, [12.5])
        for K in (1, 2):
            for rep in all_losses(G_fit, bench_truth, K, renormalize=True):
                assert rep.value == pytest.approx(0.0, abs=1e-12)


def offset_measures(offsets):
    """A truth with well-separated components and a fit that moves each
    intercept b_j by offsets[j], with unit weights: D1's cell term j is
    then exactly |offsets[j]|."""
    k = len(offsets)
    idx = np.arange(k, dtype=float)
    truth = ml.MixingMeasure.from_arrays(np.zeros(k), idx[:, None], idx[:, None], 10.0 * idx, np.ones(k))
    fit = ml.MixingMeasure.from_arrays(np.zeros(k), idx[:, None], idx[:, None], 10.0 * idx + offsets, np.ones(k))
    return fit, truth


def enumerated_max(terms, K):
    """The first K-subset, in lexicographic order, of largest summed terms."""
    best_value, best_subset = -np.inf, None
    for subset in itertools.combinations(range(len(terms)), K):
        value = float(sum(terms[j] for j in subset))
        if value > best_value:
            best_value, best_subset = value, subset
    return best_value, best_subset


class TestOuterMaxOverSubsets:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_enumeration(self, seed, tied):
        rng = np.random.default_rng(1500 + seed)
        k_star = int(rng.integers(2, 9))
        if tied:
            # few distinct, exactly representable terms: many tied maximizers
            fit, truth = offset_measures(rng.choice([0.0, 0.25, 0.5], size=k_star))
        else:
            truth = random_measure(rng, k_star, 1)
            fit = perturbed(truth, rng, 0.3)
        for metric in ("d1", "d2", "d3"):
            terms = ml.voronoi_loss(fit, truth, k_star, metric, rbar_policy="conjecture").per_cell_terms
            for K in range(1, k_star + 1):
                rep = ml.voronoi_loss(fit, truth, K, metric, rbar_policy="conjecture")
                value, subset = enumerated_max(terms, K)
                assert rep.value == value
                assert rep.argmax_subset == subset
                assert rep.per_cell_terms == tuple(terms[j] for j in subset)

    def test_large_true_order(self):
        # C(24, 12) = 2.7e6 subsets; the smaller index wins each tie
        # and there are twelve tied 0.25 terms for six places
        fit, truth = offset_measures(np.tile([0.5, 0.25, 0.0, 0.25], 6))
        rep = ml.loss_d1(fit, truth, 12)
        assert rep.argmax_subset == (0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 16, 20)
        assert rep.value == 4.5


class TestLossD2D3:
    def test_zero_at_truth(self, bench_truth):
        rb = ml.rbar_fn("exact")
        assert ml.loss_d2(bench_truth, bench_truth, 1, rb).value == 0.0
        assert ml.loss_d3(bench_truth, bench_truth, 1).value == 0.0

    def test_fourth_power_cell_contribution(self, bench_truth):
        # a size-2 cell with both intercepts offset by delta contributes
        # 2 * w * delta^4 through the intercept terms
        delta = 0.3
        w = 0.8
        beta0 = np.log(w)
        G_fit = ml.MixingMeasure.from_arrays(
            [beta0, beta0, 0.0],
            [[25], [25], [0]],
            [[-20], [-20], [20]],
            [15 + delta, 15 + delta, -5],
            [0.3, 0.3, 0.4],
        )
        rep = ml.loss_d2(G_fit, bench_truth, 1, ml.rbar_fn("exact"))
        cell1 = ml.loss_d2(G_fit, bench_truth, 1, ml.rbar_fn("exact"), subsets=[(0,)])
        assert cell1.value == pytest.approx(
            2 * w * delta**4 + abs(2 * w - np.exp(-8)), rel=1e-12
        )
        assert rep.value >= cell1.value

    def test_d3_squared_scale_offsets(self, bench_truth):
        delta = 0.05
        G_fit = ml.MixingMeasure.from_arrays(
            [-8, -8, 0], [[25], [25], [0]], [[-20], [-20], [20]],
            [15, 15, -5], [0.3 + delta, 0.3 + delta, 0.4],
        )
        cell1 = ml.loss_d3(G_fit, bench_truth, 1, subsets=[(0,)])
        w = np.exp(-8)
        assert cell1.value == pytest.approx(2 * w * delta**2 + abs(2 * w - w), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_reduce_to_d1_on_singletons(self, seed):
        # with all cells singletons the three losses agree termwise
        rng = np.random.default_rng(800 + seed)
        G_true = random_measure(rng, 3, 2)
        G_fit = perturbed(G_true, rng, 0.01)
        assert ml.assign_voronoi(G_fit, G_true).cells == ((0,), (1,), (2,))
        K = int(rng.integers(1, 4))
        d1 = ml.loss_d1(G_fit, G_true, K)
        d2 = ml.loss_d2(G_fit, G_true, K, ml.rbar_fn("conjecture"))
        d3 = ml.loss_d3(G_fit, G_true, K)
        assert d2.value == d1.value
        assert d3.value == d1.value
        assert d2.per_cell_terms == d1.per_cell_terms


class TestHellinger:
    def test_identical_densities(self, bench_truth):
        grid = ml.default_y_grid(bench_truth, bench_truth, [[0, 1]])
        assert ml.hellinger_pointwise(bench_truth, 2, bench_truth, 2, [0.4], grid) <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_two_gaussian_closed_form(self, seed):
        rng = np.random.default_rng(900 + seed)
        mu1, mu2 = rng.normal(0, 2, size=2)
        s1, s2 = np.exp(rng.normal(-0.3, 0.4, size=2))
        Ga = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [mu1], [s1])
        Gb = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [mu2], [s2])
        grid = ml.default_y_grid(Ga, Gb, [[0, 1]])
        got = ml.hellinger_pointwise(Ga, 1, Gb, 1, [0.5], grid)
        assert got == pytest.approx(ml.two_gaussian_hellinger(mu1, s1, mu2, s2), abs=1e-6)

    def test_disjoint_supports_approach_one(self):
        Ga = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [0.0], [1e-3])
        Gb = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [50.0], [1e-3])
        grid = np.linspace(-1.0, 51.0, 200_001)
        assert ml.hellinger_pointwise(Ga, 1, Gb, 1, [0.5], grid) == pytest.approx(1.0, abs=1e-4)

    def test_empty_grid_rejected(self, bench_truth):
        with pytest.raises(ml.InvalidArgumentError):
            ml.hellinger_pointwise(bench_truth, 1, bench_truth, 1, [0.5], [1.0])

    @pytest.mark.parametrize("n_mc", [1, ml.metrics.HELLINGER_BLOCK - 1, ml.metrics.HELLINGER_BLOCK + 1])
    def test_expected_is_mean_of_pointwise(self, n_mc):
        rng = np.random.default_rng(n_mc)
        truth = random_measure(rng, 3, 2)
        fit = perturbed(truth, rng, 0.2)
        box = [[-1.0, 1.0], [0.0, 2.0]]
        sampler = ml.uniform_box_sampler(box)
        grid = ml.default_y_grid(fit, truth, box)
        est = ml.expected_hellinger(fit, 3, truth, 2, sampler, n_mc, grid, seed=11)
        X = sampler(np.random.default_rng(11), n_mc)
        vals = [ml.hellinger_pointwise(fit, 3, truth, 2, x, grid) for x in X]
        assert est.mean == pytest.approx(np.mean(vals), abs=1e-12)
        want_stderr = np.std(vals, ddof=1) / np.sqrt(n_mc) if n_mc > 1 else 0.0
        assert est.stderr == pytest.approx(want_stderr, abs=1e-12)

    def test_expected_identical_is_zero(self, bench_truth):
        grid = ml.default_y_grid(bench_truth, bench_truth, [[0, 1]])
        est = ml.expected_hellinger(bench_truth, 2, bench_truth, 2, UNIT, 50, grid, seed=0)
        assert est.mean <= 1e-8
        assert est.stderr <= 1e-8

    def test_expected_half_mass_separation(self):
        # one expert shifted far away on half the input mass: E[h] ~ 0.5
        Ga = ml.MixingMeasure.from_arrays(
            [0, 0], [[1], [-1]], [[0], [0]], [0.0, 0.0], [0.5, 0.5]
        )
        Gb = ml.MixingMeasure.from_arrays(
            [0, 0], [[1], [-1]], [[0], [0]], [30.0, 0.0], [0.5, 0.5]
        )
        sym = ml.uniform_box_sampler([[-1.0, 1.0]])
        grid = ml.default_y_grid(Ga, Gb, [[-1, 1]], 4001)
        est = ml.expected_hellinger(Ga, 1, Gb, 1, sym, 400, grid, seed=4)
        assert est.mean == pytest.approx(0.5, abs=0.06)


class TestRandomMeasureProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_nonnegativity_and_identity(self, seed):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, 5))
        G = random_measure(rng, k, 1)
        K = int(rng.integers(1, k + 1))
        assert ml.loss_d1(G, G, K).value == 0.0
        assert ml.loss_d2(G, G, K, ml.rbar_fn("conjecture")).value == 0.0
        assert ml.loss_d3(G, G, K).value == 0.0
        G2 = perturbed(G, rng, 0.2)
        assert ml.loss_d1(G2, G, K).value >= 0.0
