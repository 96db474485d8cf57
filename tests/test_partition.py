import numpy as np
import pytest

import moelab as ml

from conftest import random_measure

UNIT = ml.uniform_box_sampler([[0.0, 1.0]])


class TestRegionOf:
    def test_benchmark_top1(self, bench_truth):
        spec = ml.region_of(bench_truth, [0.5], 1)
        assert spec.selected == (0,)
        assert spec.complement == (1,)

    def test_equal_slopes_tie_break(self):
        G = ml.MixingMeasure.from_arrays(
            [0, 0, 0], [[1], [1], [1]], [[1], [2], [3]], [0, 0, 0], [1, 1, 1]
        )
        assert ml.region_of(G, [0.7], 2).selected == (0, 1)

    def test_sign_comparison(self):
        G = ml.MixingMeasure.from_arrays([0, 0], [[1], [-1]], [[1], [2]], [0, 0], [1, 1])
        assert ml.region_of(G, [-0.5], 1).selected == (1,)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_gate_support(self, seed):
        # the region's selected set is exactly the gate's nonzero support
        rng = np.random.default_rng(seed)
        G = random_measure(rng, 4, 2)
        x = rng.normal(size=2)
        K = int(rng.integers(1, 5))
        spec = ml.region_of(G, x, K)
        logw = ml.gate_log_weights(G, [x], K)[0]
        assert spec.selected == tuple(np.flatnonzero(np.isfinite(logw)))
        assert spec.selected == tuple(np.sort(np.argsort(-(G.beta1 @ x), kind="stable")[:K]))


class TestEnumerateRegions:
    def test_k3_k1(self):
        specs = ml.enumerate_regions(3, 1)
        assert [s.selected for s in specs] == [(0,), (1,), (2,)]

    def test_k3_k2(self):
        specs = ml.enumerate_regions(3, 2)
        assert [s.selected for s in specs] == [(0, 1), (0, 2), (1, 2)]

    def test_counts(self):
        assert len(ml.enumerate_regions(4, 2)) == 6

    def test_no_duplicates(self):
        specs = ml.enumerate_regions(6, 3)
        assert len({s.selected for s in specs}) == 20

    def test_overflow_guard(self):
        with pytest.raises(ml.InvalidArgumentError):
            ml.enumerate_regions(60, 30)


class TestRegionMass:
    def test_benchmark_masses(self, bench_truth):
        r0 = ml.RegionSpec(selected=(0,), complement=(1,))
        r1 = ml.RegionSpec(selected=(1,), complement=(0,))
        m0 = ml.region_mass(bench_truth, r0, 1, UNIT, 20_000, seed=1)
        m1 = ml.region_mass(bench_truth, r1, 1, UNIT, 20_000, seed=1)
        assert m0 == pytest.approx(1.0)
        assert m1 == pytest.approx(0.0)

    def test_single_component(self):
        G = ml.MixingMeasure.from_arrays([0.0], [[1.0]], [[1.0]], [0.0], [1.0])
        spec = ml.RegionSpec(selected=(0,), complement=())
        assert ml.region_mass(G, spec, 1, UNIT, 1000, seed=0) == 1.0

    def test_symmetric_split(self):
        G = ml.MixingMeasure.from_arrays([0, 0], [[1], [-1]], [[1], [2]], [0, 0], [1, 1])
        sym = ml.uniform_box_sampler([[-1.0, 1.0]])
        m0 = ml.region_mass(G, ml.RegionSpec((0,), (1,)), 1, sym, 50_000, seed=3)
        assert m0 == pytest.approx(0.5, abs=0.02)

    def test_positive_mass_subsets(self, bench_truth):
        subsets = ml.positive_mass_subsets(bench_truth, 1, UNIT, 20_000, seed=5)
        assert subsets == [(0,)]


class TestPartitionMatchRate:
    def test_identical_measures(self, bench_truth):
        rate = ml.partition_match_rate(
            bench_truth, bench_truth, None, 1, 1, UNIT, 10_000, seed=0
        )
        assert rate == 1.0

    def test_tiny_perturbation(self, bench_truth):
        G_fit = ml.MixingMeasure.from_arrays(
            bench_truth.beta0, bench_truth.beta1 + 1e-6,
            bench_truth.a, bench_truth.b, bench_truth.sigma,
        )
        rate = ml.partition_match_rate(bench_truth, G_fit, None, 1, 1, UNIT, 10_000, seed=0)
        assert rate == 1.0

    def test_sign_flip_destroys_match(self, bench_truth):
        G_fit = ml.MixingMeasure.from_arrays(
            bench_truth.beta0, [[-25.0], [0.0]],
            bench_truth.a, bench_truth.b, bench_truth.sigma,
        )
        rate = ml.partition_match_rate(bench_truth, G_fit, None, 1, 1, UNIT, 10_000, seed=0)
        assert rate == pytest.approx(0.0, abs=1e-3)

    def test_overspecified_with_assignment(self, bench_truth):
        # duplicate component 0; cells {0,1} and {2} mirror the union hypothesis
        G_fit = ml.MixingMeasure.from_arrays(
            [-8, -8, 0], [[25.0], [24.9], [0.0]],
            [[-20], [-20], [20]], [15, 15, -5], [0.3, 0.3, 0.4],
        )
        assignment = ml.assign_voronoi(G_fit, bench_truth)
        assert assignment.cells == ((0, 1), (2,))
        rate = ml.partition_match_rate(
            bench_truth, G_fit, assignment, 1, 2, UNIT, 10_000, seed=0
        )
        assert rate == pytest.approx(1.0, abs=1e-3)

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
                ml.partition_match_rate(bench_truth, G_fit, None, 1, 1, UNIT, n_mc, seed=11)
            )
        slack = 2.0 / np.sqrt(n_mc)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(1.0, abs=slack)
