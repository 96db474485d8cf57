import math

import numpy as np
import pytest
from scipy import stats

import moelab as ml

from conftest import random_measure


def single_expert(family, a, b, sigma, dof=5.0):
    """A one-component measure: its gate weight is 1, so log_joint is the
    expert's log density."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return ml.MixingMeasure.from_arrays([0.0], [np.zeros_like(a)], [a], [b], [sigma], family=family, dof=dof)


def reference_log_density(family, y, mu, sigma, dof):
    if family == ml.GAUSSIAN:
        return stats.norm.logpdf(y, mu, sigma)
    if family == ml.LAPLACE:
        return stats.laplace.logpdf(y, mu, sigma)
    return stats.t.logpdf(y, dof, mu, sigma)


def reference_log_joint(G, X, y, K):
    """Component by component: rank the slope logits (ties to the smaller
    index), softmax over the K selected, add the expert's scipy log density."""
    out = np.full((len(X), G.k), -np.inf)
    for j, (x, yj) in enumerate(zip(X, y)):
        logits = [float(gate.beta1 @ x) for gate, _ in G.components]
        selected = sorted(sorted(range(G.k), key=lambda i: (-logits[i], i))[:K])
        scores = {i: logits[i] + G.components[i][0].beta0 for i in selected}
        top = max(scores.values())
        lse = top + math.log(sum(math.exp(v - top) for v in scores.values()))
        for i in selected:
            expert = G.components[i][1]
            mu = float(expert.a @ x + expert.b)
            out[j, i] = scores[i] - lse + reference_log_density(G.family, yj, mu, expert.sigma, G.dof)
    return out


def gate_probs(G, x, K):
    return np.exp(ml.gate_log_weights(G, np.reshape(x, (1, -1)), K)[0])


class TestGateSelection:
    def test_strict_maximum(self):
        G = ml.MixingMeasure.from_arrays([0, 0], [[1], [0]], [[1], [2]], [0, 0], [1, 1])
        assert ml.region_of(G, [1.0], 1).selected == (0,)

    def test_tie_break_by_index(self):
        G = ml.MixingMeasure.from_arrays([0, 0, 0], [[0], [0], [0]], [[1], [2], [3]], [0, 0, 0], [1, 1, 1])
        logw = ml.gate_log_weights(G, [[0.4]], 2)[0]
        assert np.isfinite(logw).tolist() == [True, True, False]

    def test_benchmark_gating_logits(self, bench_truth):
        # logits at x=0.5 are (12.5, 0); the steep component wins top-1
        logits = bench_truth.beta1 @ np.array([0.5])
        assert logits[0] == pytest.approx(12.5)
        assert ml.region_of(bench_truth, [0.5], 1).selected == (0,)

    def test_k_out_of_range(self, bench_truth):
        for K in (0, 3):
            with pytest.raises(ml.InvalidArgumentError):
                ml.gate_log_weights(bench_truth, [[0.5]], K)
            with pytest.raises(ml.InvalidArgumentError):
                ml.log_joint(bench_truth, [[0.5]], [1.0], K)

    def test_nonfinite_inputs_rejected(self, bench_truth):
        for x in (np.inf, np.nan):
            with pytest.raises(ml.InvalidArgumentError):
                ml.gate_log_weights(bench_truth, [[x]], 1)
            with pytest.raises(ml.InvalidArgumentError):
                ml.region_of(bench_truth, [x], 1)


class TestGateWeights:
    def test_symmetric_zero_gates(self):
        G = ml.MixingMeasure.from_arrays([0, 0], [[0], [0]], [[1], [2]], [0, 0], [1, 1])
        np.testing.assert_allclose(gate_probs(G, [0.37], 2), [0.5, 0.5])

    def test_top1_weight_is_one(self, bench_truth):
        # softmax over a singleton ignores beta0 entirely
        w = gate_probs(bench_truth, [0.9], 1)
        assert ml.region_of(bench_truth, [0.9], 1).selected == (0,)
        assert w[0] == 1.0
        assert w[1] == 0.0

    def test_benchmark_two_term_softmax(self, bench_truth):
        # logits + biases at x=0.5: (25*0.5 - 8, 0) = (4.5, 0)
        w = gate_probs(bench_truth, [0.5], 2)
        expect = np.exp([4.5, 0.0])
        expect /= expect.sum()
        np.testing.assert_allclose(w, expect, rtol=1e-12)
        assert w[0] == pytest.approx(0.98901306, abs=1e-7)

    def test_dimension_mismatch(self, bench_truth):
        with pytest.raises(ml.InvalidArgumentError):
            ml.gate_log_weights(bench_truth, [[0.5, 0.5]], 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_normalization_and_sparsity(self, seed):
        # weights sum to 1 on the selection and are exactly 0 off it
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        G = random_measure(rng, k, d)
        K = int(rng.integers(1, k + 1))
        x = rng.normal(size=d)
        w = gate_probs(G, x, K)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.count_nonzero(w) == K
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert np.flatnonzero(w).tolist() == list(ml.region_of(G, x, K).selected)

    @pytest.mark.parametrize("seed", range(8))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        k, d = 4, 2
        G = random_measure(rng, k, d)
        x = rng.normal(size=d)
        if np.unique(G.beta1 @ x).size < k:
            pytest.skip("tied logits")
        perm = rng.permutation(k)
        Gp = ml.MixingMeasure(tuple(G.components[i] for i in perm), family=G.family)
        np.testing.assert_allclose(gate_probs(Gp, x, 2), gate_probs(G, x, 2)[perm], rtol=1e-12)

    @pytest.mark.parametrize("c", [-3.0, 0.5, 7.0])
    def test_shift_invariance(self, c):
        # shifting every logit by c (here via beta1 at x=1) changes nothing
        rng = np.random.default_rng(17)
        G = random_measure(rng, 3, 1)
        x = np.array([1.0])
        G2 = ml.MixingMeasure.from_arrays(G.beta0, G.beta1 + c, G.a, G.b, G.sigma)
        assert ml.region_of(G, x, 2) == ml.region_of(G2, x, 2)
        np.testing.assert_allclose(gate_probs(G2, x, 2), gate_probs(G, x, 2), atol=1e-12)


class TestExpertDensity:
    def test_standard_normal_at_mode(self):
        G = single_expert(ml.GAUSSIAN, [0.0], 0.0, 1.0)
        assert np.exp(ml.log_joint(G, [[0.0]], [0.0], 1)[0, 0]) == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_laplace_at_mode(self):
        G = single_expert(ml.LAPLACE, [0.0], 0.0, 1.0)
        assert np.exp(ml.log_joint(G, [[0.0]], [0.0], 1)[0, 0]) == pytest.approx(0.5)

    def test_benchmark_expert_at_own_mean(self, bench_truth):
        # expert 1 at x=0.5: mean -20*0.5+15 = 5, sigma = 0.3
        got = np.exp(ml.model.expert_log_density_matrix(bench_truth, [[0.5]], [5.0])[0, 0])
        assert got == pytest.approx(1.0 / (0.3 * np.sqrt(2 * np.pi)))
        assert got == pytest.approx(1.32981, abs=1e-5)

    @pytest.mark.parametrize("family", [ml.GAUSSIAN, ml.LAPLACE, ml.STUDENT_T])
    def test_matches_scipy(self, family):
        G = single_expert(family, [1.5], -0.7, 0.9)
        x, ys = [0.4], np.linspace(-4, 4, 9)
        mu = 1.5 * 0.4 - 0.7
        if family == ml.GAUSSIAN:
            expect = stats.norm.pdf(ys, mu, 0.9)
        elif family == ml.LAPLACE:
            expect = stats.laplace.pdf(ys, mu, 0.9)
        else:
            expect = stats.t.pdf(ys, 5.0, mu, 0.9)
        got = np.exp(ml.log_joint(G, [x], ys[None, :], 1)[0, 0])
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_two_dimensional_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, sigma = rng.normal(size=2), rng.normal(), np.exp(rng.normal())
            x, y = rng.normal(size=2), rng.normal()
            got = ml.log_joint(single_expert(ml.GAUSSIAN, a, b, sigma), [x], [y], 1)[0, 0]
            assert got == pytest.approx(stats.norm.logpdf(y, a @ x + b, sigma), rel=1e-12)

    def test_sigma_positive_required(self):
        with pytest.raises(ml.InvalidArgumentError):
            ml.ExpertParams(a=[0.0], b=0.0, sigma=0.0)


class TestLogJoint:
    @pytest.mark.parametrize("family", ml.FAMILIES)
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("K", [2, 4])  # sparse and dense at k = 4
    def test_matches_component_loop(self, family, d, K):
        rng = np.random.default_rng([d, K, ml.FAMILIES.index(family)])
        k = 4
        G = ml.MixingMeasure.from_arrays(
            rng.normal(0.0, 1.0, size=k), rng.normal(0.0, 2.0, size=(k, d)),
            rng.normal(0.0, 2.0, size=(k, d)), rng.normal(0.0, 2.0, size=k),
            np.exp(rng.normal(-0.5, 0.4, size=k)), family=family, dof=4.5,
        )
        X = rng.uniform(-1.0, 1.0, size=(7, d))
        y = rng.normal(0.0, 3.0, size=7)
        np.testing.assert_allclose(ml.log_joint(G, X, y, K), reference_log_joint(G, X, y, K),
                                   rtol=1e-12, atol=1e-12)
        # a y grid shared by every row scores each (x, y) pair as paired y does
        grid = np.linspace(-6.0, 6.0, 5)
        got = ml.log_joint(G, X, grid[None, :], K)
        assert got.shape == (7, k, 5)
        for m, yv in enumerate(grid):
            np.testing.assert_allclose(got[:, :, m], reference_log_joint(G, X, np.full(7, yv), K),
                                       rtol=1e-12, atol=1e-12)

    def test_mixture_is_row_logsumexp(self, bench_truth):
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([1.0, 5.0, -3.0])
        joint = ml.log_joint(bench_truth, X, y, 2)
        np.testing.assert_allclose(ml.conditional_log_density(bench_truth, 2, X, y),
                                   np.log(np.exp(joint).sum(axis=1)), rtol=1e-12)


class TestConditionalLogDensity:
    def test_degenerate_single_expert(self):
        G = ml.MixingMeasure.from_arrays([0.3], [[1.0]], [[2.0]], [1.0], [0.5])
        x, y = 0.2, 1.3
        got = ml.conditional_log_density(G, 1, [[x]], [y])
        assert got.shape == (1,)
        assert np.exp(got[0]) == pytest.approx(stats.norm.pdf(y, 2.0 * x + 1.0, 0.5))

    def test_top1_equals_leading_expert(self, bench_truth):
        # 25x > 0 on (0, 1], so the first expert is always ranked first
        xs = np.array([[0.05], [0.4], [1.0]])
        got = ml.conditional_log_density(bench_truth, 1, xs, np.full(3, 2.0))
        expect = stats.norm.logpdf(2.0, -20.0 * xs[:, 0] + 15.0, 0.3)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_benchmark_two_expert_composition(self, bench_truth):
        x, y = 0.5, 5.0
        w = gate_probs(bench_truth, [x], 2)
        f1 = stats.norm.pdf(y, -20.0 * x + 15.0, 0.3)
        f2 = stats.norm.pdf(y, 20.0 * x - 5.0, 0.4)
        got = np.exp(ml.conditional_log_density(bench_truth, 2, [[x]], [y])[0])
        assert got == pytest.approx(w[0] * f1 + w[1] * f2, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_normalizes_to_one(self, seed):
        rng = np.random.default_rng(300 + seed)
        G = random_measure(rng, 3, 1)
        x = rng.uniform(0, 1, size=1)
        mu = G.a @ x + G.b
        lo = mu.min() - 10 * G.sigma.max()
        hi = mu.max() + 10 * G.sigma.max()
        ys = np.linspace(lo, hi, 4001)
        dens = np.exp(ml.conditional_log_density(G, 2, [x], ys[None, :])[0])
        assert np.trapezoid(dens, ys) == pytest.approx(1.0, abs=1e-6)


class TestSampleDataset:
    def test_n_zero_rejected(self, bench_truth):
        with pytest.raises(ml.InvalidArgumentError):
            ml.sample_dataset(bench_truth, 1, 0, seed=0)

    def test_determinism(self, bench_truth):
        d1 = ml.sample_dataset(bench_truth, 2, 500, seed=123)
        d2 = ml.sample_dataset(bench_truth, 2, 500, seed=123)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)

    def test_conditional_mean_near_half(self, bench_truth):
        # K=1 keeps expert 1 everywhere: E[y | x=0.5] = -20*0.5 + 15 = 5
        data = ml.sample_dataset(bench_truth, 1, 10_000, seed=7)
        sel = (data.x[:, 0] > 0.49) & (data.x[:, 0] < 0.51)
        assert data.y[sel].mean() == pytest.approx(5.0, abs=0.05)

    def test_invalid_truth_reports_assumptions(self):
        G = ml.MixingMeasure.from_arrays([0.5], [[1.0]], [[1.0]], [0.0], [1.0])
        with pytest.raises(ml.AssumptionError) as err:
            ml.sample_dataset(G, 1, 10, seed=0)
        assert any("U.2" in v for v in err.value.violations)

    def test_sampling_consistency_ks(self, bench_truth):
        # At fixed x the sampled y's K-S distance to the analytic mixture CDF
        # shrinks as n grows.
        x0 = 0.3
        w = gate_probs(bench_truth, [x0], 2)
        mus = bench_truth.a @ np.array([x0]) + bench_truth.b
        cdf = lambda y: w[0] * stats.norm.cdf(y, mus[0], 0.3) + w[1] * stats.norm.cdf(y, mus[1], 0.4)
        stats_by_n = []
        for n in (200, 2000, 20_000):
            rng = np.random.default_rng(5)
            comp = rng.choice(2, size=n, p=w)
            y = rng.normal(mus[comp], np.where(comp == 0, 0.3, 0.4))
            stats_by_n.append(stats.kstest(y, cdf).statistic)
        assert stats_by_n[0] > stats_by_n[1] > stats_by_n[2]


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected_with_index(self, bad):
        x, y = np.linspace(0.0, 1.0, 5), np.zeros(5)
        x_bad, y_bad = x.copy(), y.copy()
        x_bad[3] = bad
        y_bad[2] = bad
        with pytest.raises(ml.InvalidArgumentError, match="index 3"):
            ml.Dataset(x=x_bad, y=y)
        with pytest.raises(ml.InvalidArgumentError, match="index 2"):
            ml.Dataset(x=x_bad, y=y_bad)


class TestSerialization:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_bit_exact(self, seed):
        rng = np.random.default_rng(400 + seed)
        G = random_measure(rng, 3, 2)
        G2 = ml.measure_from_text(ml.measure_to_text(G))
        assert np.array_equal(G.beta0, G2.beta0)
        assert np.array_equal(G.beta1, G2.beta1)
        assert np.array_equal(G.a, G2.a)
        assert np.array_equal(G.b, G2.b)
        assert np.array_equal(G.sigma, G2.sigma)

    def test_student_t_keeps_dof(self):
        G = ml.MixingMeasure.from_arrays(
            [0.0], [[1.0]], [[1.0]], [0.0], [1.0], family=ml.STUDENT_T, dof=7.5
        )
        G2 = ml.measure_from_text(ml.measure_to_text(G))
        assert G2.family == ml.STUDENT_T
        assert G2.dof == 7.5

    def test_header_mismatch_rejected(self):
        with pytest.raises(ml.InvalidArgumentError):
            ml.measure_from_text("family=gaussian d=1 k=2\n0 0 0 0 1\n")


class TestMeasureChecks:
    def test_true_measure_enforces_assumptions(self):
        with pytest.raises(ml.AssumptionError):
            ml.true_measure([0.0], [[0.0]], [[1.0]], [0.0], [1.0])  # U.4 fails

    def test_duplicate_experts_flagged(self):
        G = ml.MixingMeasure.from_arrays(
            [0, 0], [[1], [0]], [[1], [1]], [0, 0], [1, 1]
        )
        assert not G.has_distinct_experts()
        assert any("U.3" in v for v in G.truth_violations())

    def test_benchmark_truth_is_valid(self, bench_truth):
        assert bench_truth.truth_violations() == []
        assert bench_truth.is_pinned()
