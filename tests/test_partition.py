import numpy as np
import pytest

import moelab as ml

from conftest import random_measure, selected

UNIT = ml.uniform_box_sampler([[0.0, 1.0]])


def stable_argsort_selected(G, x, K):
    """The top-K of the slope logits at x by a stable descending argsort, so
    ties go to the smaller index."""
    return tuple(np.sort(np.argsort(-(G.beta1 @ x), kind="stable")[:K]))


# Three unit slopes 120 degrees apart: on [-1, 1]^2 every ranking occurs.
TRIPOD = ml.MixingMeasure.from_arrays(
    [0, 0, 0], [[1.0, 0.0], [-0.5, 0.75**0.5], [-0.5, -(0.75**0.5)]],
    [[1, 0], [0, 1], [1, 1]], [0, 1, 2], [1, 1, 1],
)
SQUARE = ml.uniform_box_sampler([[-1.0, 1.0], [-1.0, 1.0]])


class TestRegionOf:
    def test_benchmark_top1(self, bench_truth):
        assert selected(bench_truth, [0.5], 1) == (0,)

    def test_equal_slopes_tie_break(self):
        G = ml.MixingMeasure.from_arrays(
            [0, 0, 0], [[1], [1], [1]], [[1], [2], [3]], [0, 0, 0], [1, 1, 1]
        )
        assert selected(G, [0.7], 2) == (0, 1)

    def test_sign_comparison(self):
        G = ml.MixingMeasure.from_arrays([0, 0], [[1], [-1]], [[1], [2]], [0, 0], [1, 1])
        assert selected(G, [-0.5], 1) == (1,)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_gate_support(self, seed):
        # the gate's nonzero support is the stable-argsort top-K, also at
        # exactly tied slope logits
        rng = np.random.default_rng(seed)
        G = random_measure(rng, 4, 2)
        x = rng.normal(size=2)
        cases = [(G, x, int(rng.integers(1, 5)))]
        for k in (2, 3, 4, 6, 24):
            slopes = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(k, 2))
            G = ml.MixingMeasure.from_arrays(rng.normal(size=k), slopes, rng.normal(size=(k, 2)),
                                             rng.normal(size=k), np.ones(k))
            x = rng.choice([0.5, 1.0, 2.0], size=2)
            cases += [(G, x, K) for K in range(1, k + 1)]
        for G, x, K in cases:
            assert selected(G, x, K) == stable_argsort_selected(G, x, K)


class TestEnumerateRegions:
    """positive_mass_subsets lists the selections that occur on the box, in
    lexicographic order."""

    def test_k3_k1(self):
        assert ml.positive_mass_subsets(TRIPOD, 1, SQUARE, 5000, seed=0) == [(0,), (1,), (2,)]

    def test_k3_k2(self):
        assert ml.positive_mass_subsets(TRIPOD, 2, SQUARE, 5000, seed=0) == [(0, 1), (0, 2), (1, 2)]

    def test_counts(self):
        # slopes e1, e2, -e1, -e2: only neighbouring pairs share a region, so
        # 4 of the C(4, 2) = 6 selections occur
        G = ml.MixingMeasure.from_arrays(
            np.zeros(4), [[1, 0], [0, 1], [-1, 0], [0, -1]], np.ones((4, 2)), np.zeros(4), np.ones(4)
        )
        assert ml.positive_mass_subsets(G, 2, SQUARE, 5000, seed=0) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_no_duplicates(self):
        G = random_measure(np.random.default_rng(6), 6, 2)
        subsets = ml.positive_mass_subsets(G, 3, SQUARE, 5000, seed=0)
        assert subsets == sorted(set(subsets))
        assert all(len(s) == 3 and list(s) == sorted(s) for s in subsets)
        assert 1 <= len(subsets) <= 20


class TestRegionMass:
    def test_benchmark_masses(self, bench_truth):
        # the steep component wins top-1 on all of [0, 1]
        assert ml.positive_mass_subsets(bench_truth, 1, UNIT, 20_000, seed=1) == [(0,)]

    def test_single_component(self):
        G = ml.MixingMeasure.from_arrays([0.0], [[1.0]], [[1.0]], [0.0], [1.0])
        assert ml.positive_mass_subsets(G, 1, UNIT, 1000, seed=0) == [(0,)]

    def test_symmetric_split(self):
        # opposite slopes over [-1, 1]: each singleton wins half the box
        G = ml.MixingMeasure.from_arrays([0, 0], [[1], [-1]], [[1], [2]], [0, 0], [1, 1])
        sym = ml.uniform_box_sampler([[-1.0, 1.0]])
        assert ml.positive_mass_subsets(G, 1, sym, 50_000, seed=3) == [(0,), (1,)]

    def test_positive_mass_subsets(self, bench_truth):
        subsets = ml.positive_mass_subsets(bench_truth, 1, UNIT, 20_000, seed=5)
        assert subsets == [(0,)]

    @pytest.mark.parametrize("k, K, d", [(4, 2, 1), (5, 2, 2), (9, 3, 2), (63, 5, 3), (63, 62, 1)])
    def test_positive_mass_subsets_match_counting_loop(self, k, K, d):
        rng = np.random.default_rng(k * 100 + K)
        G = random_measure(rng, k, d)
        box = ml.uniform_box_sampler(np.tile([[-1.0, 1.0]], (d, 1)))
        X = box(np.random.default_rng(8), 5000)
        counts = {}
        for x in X:
            key = stable_argsort_selected(G, x, K)
            counts[key] = counts.get(key, 0) + 1
        want = sorted(key for key, c in counts.items() if c >= 2)
        assert ml.positive_mass_subsets(G, K, box, 5000, seed=8) == want

    def test_positive_mass_subsets_k_cap(self):
        G = random_measure(np.random.default_rng(0), 64)
        with pytest.raises(ml.InvalidArgumentError, match="k <= 63"):
            ml.positive_mass_subsets(G, 2, UNIT, 100)
        with pytest.raises(ml.InvalidArgumentError, match="n_mc"):
            ml.positive_mass_subsets(G, 2, UNIT, 0)

    @pytest.mark.parametrize("K", [0, 3])
    def test_sparsity_out_of_range(self, bench_truth, K):
        with pytest.raises(ml.InvalidArgumentError, match="1 <= K"):
            ml.positive_mass_subsets(bench_truth, K, UNIT, 100)
        with pytest.raises(ml.InvalidArgumentError, match="1 <= K"):
            ml.partition_match_rate(bench_truth, bench_truth, K, UNIT, 100)


class TestPartitionMatchRate:
    def test_identical_measures(self, bench_truth):
        rate = ml.partition_match_rate(bench_truth, bench_truth, 1, UNIT, 10_000, seed=0)
        assert rate == 1.0

    @pytest.mark.parametrize("k_fit, d_fit", [(1, 1), (3, 1), (2, 2)])
    def test_unequal_k_or_d_rejected_before_drawing(self, bench_truth, k_fit, d_fit):
        # the selected sets are compared index by index, so the fit needs k*
        G_fit = ml.MixingMeasure.from_arrays(
            np.zeros(k_fit), np.zeros((k_fit, d_fit)), np.zeros((k_fit, d_fit)), np.zeros(k_fit), np.ones(k_fit)
        )

        def sampler(rng, n):
            raise AssertionError("drew inputs for a rejected comparison")

        want = f"got k={k_fit}, d={d_fit} for k\\*=2, d\\*=1"
        with pytest.raises(ml.InvalidArgumentError, match=want):
            ml.partition_match_rate(bench_truth, G_fit, 1, sampler, 100, seed=0)

    def test_tiny_perturbation(self, bench_truth):
        G_fit = ml.MixingMeasure.from_arrays(
            bench_truth.beta0, bench_truth.beta1 + 1e-6,
            bench_truth.a, bench_truth.b, bench_truth.sigma,
        )
        rate = ml.partition_match_rate(bench_truth, G_fit, 1, UNIT, 10_000, seed=0)
        assert rate == 1.0

    def test_sign_flip_destroys_match(self, bench_truth):
        G_fit = ml.MixingMeasure.from_arrays(
            bench_truth.beta0, [[-25.0], [0.0]],
            bench_truth.a, bench_truth.b, bench_truth.sigma,
        )
        rate = ml.partition_match_rate(bench_truth, G_fit, 1, UNIT, 10_000, seed=0)
        assert rate == pytest.approx(0.0, abs=1e-3)

    def test_decreasing_eta_sweep(self, bench_truth):
        # Monotone nondecreasing match rate as the perturbation shrinks,
        # up to Monte-Carlo noise of 2/sqrt(n_mc).
        n_mc = 10_000
        rng = np.random.default_rng(9)
        direction = rng.standard_normal((2, 1))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        rates = []
        for eta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            G_fit = ml.MixingMeasure.from_arrays(
                bench_truth.beta0, bench_truth.beta1 + eta * direction,
                bench_truth.a, bench_truth.b, bench_truth.sigma,
            )
            rates.append(
                ml.partition_match_rate(bench_truth, G_fit, 1, UNIT, n_mc, seed=11)
            )
        slack = 2.0 / np.sqrt(n_mc)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(1.0, abs=slack)


class TestNonFiniteDraws:
    """A NaN or infinite draw would select more than K components; both
    partition functions reject it instead of counting it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected(self, bench_truth, bad):
        def sampler(rng, n):
            X = rng.random((n, 1))
            X[n // 2] = bad
            return X

        with pytest.raises(ml.InvalidArgumentError, match="finite"):
            ml.positive_mass_subsets(bench_truth, 1, sampler, 100, seed=0)
        with pytest.raises(ml.InvalidArgumentError, match="finite"):
            ml.partition_match_rate(bench_truth, bench_truth, 1, sampler, 100, seed=0)
