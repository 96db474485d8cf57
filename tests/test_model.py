import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import moelab as ml

from conftest import BOX_2D, TRUTH_2D, plain_logsumexp, random_measure, selected

FLOOR = ml.model._EXP_FLOOR


def single_expert(a, b, sigma):
    """A one-component measure: its gate weight is 1, so log_joint is the
    expert's log density."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return ml.MixingMeasure.from_arrays([0.0], [np.zeros_like(a)], [a], [b], [sigma])


def reference_log_joint(G, X, y, K):
    """Component by component: rank the slope logits (ties to the smaller
    index), softmax over the K selected, add the expert's scipy log density.
    Shape (k, n), components first."""
    out = np.full((G.k, len(X)), -np.inf)
    for j, (x, yj) in enumerate(zip(X, y)):
        logits = [float(G.beta1[i] @ x) for i in range(G.k)]
        selected = sorted(sorted(range(G.k), key=lambda i: (-logits[i], i))[:K])
        scores = {i: logits[i] + G.beta0[i] for i in selected}
        top = max(scores.values())
        lse = top + math.log(sum(math.exp(v - top) for v in scores.values()))
        for i in selected:
            mu = float(G.a[i] @ x + G.b[i])
            out[i, j] = scores[i] - lse + stats.norm.logpdf(yj, mu, G.sigma[i])
    return out


def out_of_place_log_densities(X, y, a, b, sigma, logw=0.0):
    """The expert log densities plus ``logw`` as out-of-place expressions in
    the kernel's pass order, one temporary per operation: the reference the
    in-place kernel must equal bit for bit."""
    mu, sigma = a @ X.T + b[:, None], sigma[:, None]
    const = np.log(sigma) + 0.5 * math.log(2.0 * math.pi) - logw
    if y.ndim == 2:
        mu, sigma, const = mu[:, :, None], sigma[:, :, None], const[:, :, None]
    r = y - mu
    return r * r * (-0.5 / sigma**2) - const


def out_of_place_log_joint(G, X, y, K):
    logw = ml.gate_log_weights(G, X, K)
    return out_of_place_log_densities(np.asarray(X, dtype=float), y, G.a, G.b, G.sigma, logw)


@st.composite
def gate_cases(draw):
    """A random measure with k <= 5 components on d <= 3 inputs, a batch of
    up to 20 inputs and a K."""
    k, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    coords = st.floats(-5.0, 5.0)
    G = ml.MixingMeasure.from_arrays(
        draw(arrays(float, k, elements=coords)), draw(arrays(float, (k, d), elements=coords)),
        np.zeros((k, d)), np.zeros(k), np.ones(k),
    )
    X = draw(arrays(float, (draw(st.integers(1, 20)), d), elements=st.floats(-3.0, 3.0)))
    return G, X, draw(st.integers(1, k))


def gate_probs(G, x, K):
    return np.exp(ml.gate_log_weights(G, np.reshape(x, (1, -1)), K)[:, 0])


def stable_argsort_mask(logits, K):
    """Top-K of each column of (k, n) logits by a stable descending argsort,
    so ties go to the smaller index."""
    order = np.argsort(-logits, axis=0, kind="stable")[:K]
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, order, True, axis=0)
    return mask


class TestGateSelection:
    def test_strict_maximum(self):
        G = ml.MixingMeasure.from_arrays([0, 0], [[1], [0]], [[1], [2]], [0, 0], [1, 1])
        assert selected(G, [1.0], 1) == (0,)

    def test_tie_break_by_index(self):
        G = ml.MixingMeasure.from_arrays([0, 0, 0], [[0], [0], [0]], [[1], [2], [3]], [0, 0, 0], [1, 1, 1])
        logw = ml.gate_log_weights(G, [[0.4]], 2)[:, 0]
        assert np.isfinite(logw).tolist() == [True, True, False]
        # random logits with forced exact ties, +0.0 against -0.0 among them
        rng = np.random.default_rng(0)
        for k in (2, 3, 4, 6, 24):
            logits = np.concatenate([
                rng.normal(size=(k, 40)),
                rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(k, 200)),
                rng.choice([-0.0, 0.0], size=(k, 40)),
            ], axis=1)
            assert np.any(np.signbit(logits) & (logits == 0.0)) and np.any(~np.signbit(logits) & (logits == 0.0))
            for K in range(1, k + 1):
                np.testing.assert_array_equal(ml.model._selection_mask(logits, K), stable_argsort_mask(logits, K))

    def test_benchmark_gating_logits(self, bench_truth):
        # logits at x=0.5 are (12.5, 0); the steep component wins top-1
        logits = bench_truth.beta1 @ np.array([0.5])
        assert logits[0] == pytest.approx(12.5)
        assert selected(bench_truth, [0.5], 1) == (0,)

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
                ml.log_joint(bench_truth, [[x]], [1.0], 1)


class TestGateWeights:
    def test_symmetric_zero_gates(self):
        G = ml.MixingMeasure.from_arrays([0, 0], [[0], [0]], [[1], [2]], [0, 0], [1, 1])
        np.testing.assert_allclose(gate_probs(G, [0.37], 2), [0.5, 0.5])

    def test_top1_weight_is_one(self, bench_truth):
        # softmax over a singleton ignores beta0 entirely
        w = gate_probs(bench_truth, [0.9], 1)
        assert selected(bench_truth, [0.9], 1) == (0,)
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
        assert tuple(np.flatnonzero(w)) == selected(G, x, K)

    @pytest.mark.parametrize("seed", range(8))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        k, d = 4, 2
        G = random_measure(rng, k, d)
        x = rng.normal(size=d)
        if np.unique(G.beta1 @ x).size < k:
            pytest.skip("tied logits")
        perm = rng.permutation(k)
        Gp = ml.MixingMeasure.from_arrays(G.beta0[perm], G.beta1[perm], G.a[perm], G.b[perm], G.sigma[perm])
        np.testing.assert_allclose(gate_probs(Gp, x, 2), gate_probs(G, x, 2)[perm], rtol=1e-12)

    @given(data=st.data())
    def test_weights_sum_to_one_over_k_selected(self, data):
        G, X, K = data.draw(gate_cases())
        logw = ml.gate_log_weights(G, X, K)
        np.testing.assert_allclose(np.exp(logw).sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(np.isfinite(logw).sum(axis=0) == K)

    @given(data=st.data())
    def test_common_shift_keeps_selection_and_weights(self, data):
        G, X, K = data.draw(gate_cases())
        c0 = data.draw(st.floats(-5.0, 5.0))
        c1 = data.draw(arrays(float, G.d, elements=st.floats(-5.0, 5.0)))
        G2 = ml.MixingMeasure.from_arrays(G.beta0 + c0, G.beta1 + c1, G.a, G.b, G.sigma)
        # inputs whose K-th and (K+1)-th logits are this close may swap under
        # the rounding of the shifted products, so they are left out
        logits = np.sort(G.beta1 @ X.T, axis=0)[::-1]
        clear = np.ones(len(X), dtype=bool) if K == G.k else logits[K - 1] - logits[K] > 1e-9
        logw, logw2 = ml.gate_log_weights(G, X, K)[:, clear], ml.gate_log_weights(G2, X, K)[:, clear]
        assert np.array_equal(np.isfinite(logw), np.isfinite(logw2))
        np.testing.assert_allclose(np.exp(logw2), np.exp(logw), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("c", [-3.0, 0.5, 7.0])
    def test_shift_invariance(self, c):
        # shifting every logit by c (here via beta1 at x=1) changes nothing
        rng = np.random.default_rng(17)
        G = random_measure(rng, 3, 1)
        x = np.array([1.0])
        G2 = ml.MixingMeasure.from_arrays(G.beta0, G.beta1 + c, G.a, G.b, G.sigma)
        assert selected(G, x, 2) == selected(G2, x, 2)
        np.testing.assert_allclose(gate_probs(G2, x, 2), gate_probs(G, x, 2), atol=1e-12)


class TestExpertDensity:
    def test_standard_normal_at_mode(self):
        G = single_expert([0.0], 0.0, 1.0)
        assert np.exp(ml.log_joint(G, [[0.0]], [0.0], 1)[0, 0]) == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_benchmark_expert_at_own_mean(self, bench_truth):
        # expert 1 at x=0.5: mean -20*0.5+15 = 5, sigma = 0.3
        got = np.exp(ml.model.expert_log_density_matrix(bench_truth, [[0.5]], [5.0])[0, 0])
        assert got == pytest.approx(1.0 / (0.3 * np.sqrt(2 * np.pi)))
        assert got == pytest.approx(1.32981, abs=1e-5)

    def test_matches_scipy(self):
        G = single_expert([1.5], -0.7, 0.9)
        x, ys = [0.4], np.linspace(-4, 4, 9)
        expect = stats.norm.pdf(ys, 1.5 * 0.4 - 0.7, 0.9)
        got = np.exp(ml.log_joint(G, [x], ys[None, :], 1)[0, 0])
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_two_dimensional_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, sigma = rng.normal(size=2), rng.normal(), np.exp(rng.normal())
            x, y = rng.normal(size=2), rng.normal()
            got = ml.log_joint(single_expert(a, b, sigma), [x], [y], 1)[0, 0]
            assert got == pytest.approx(stats.norm.logpdf(y, a @ x + b, sigma), rel=1e-12)

    def test_sigma_positive_required(self):
        with pytest.raises(ml.InvalidArgumentError):
            ml.MixingMeasure.from_arrays([0.0], [[0.0]], [[0.0]], [0.0], [0.0])

    @pytest.mark.parametrize("y", [[1.0, 2.0, 3.0], np.zeros((2, 2, 2))], ids=["three-for-two", "3-d"])
    def test_responses_must_pair_with_inputs(self, bench_truth, y):
        with pytest.raises(ml.InvalidArgumentError, match="does not pair with 2 inputs"):
            ml.model.expert_log_density_matrix(bench_truth, [[0.1], [0.2]], y)


class TestLogJoint:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("K", [2, 4])  # sparse and dense at k = 4
    def test_matches_component_loop(self, d, K):
        rng = np.random.default_rng([d, K, 0])
        k = 4
        G = ml.MixingMeasure.from_arrays(
            rng.normal(0.0, 1.0, size=k), rng.normal(0.0, 2.0, size=(k, d)),
            rng.normal(0.0, 2.0, size=(k, d)), rng.normal(0.0, 2.0, size=k),
            np.exp(rng.normal(-0.5, 0.4, size=k)),
        )
        X = rng.uniform(-1.0, 1.0, size=(7, d))
        y = rng.normal(0.0, 3.0, size=7)
        np.testing.assert_allclose(ml.log_joint(G, X, y, K), reference_log_joint(G, X, y, K),
                                   rtol=1e-12, atol=1e-12)
        # a y grid shared by every row scores each (x, y) pair as paired y does
        grid = np.linspace(-6.0, 6.0, 5)
        got = ml.log_joint(G, X, grid[None, :], K)
        assert got.shape == (k, 7, 5)
        for m, yv in enumerate(grid):
            np.testing.assert_allclose(got[:, :, m], reference_log_joint(G, X, np.full(7, yv), K),
                                       rtol=1e-12, atol=1e-12)

    def test_mixture_is_row_logsumexp(self, bench_truth):
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([1.0, 5.0, -3.0])
        joint = ml.log_joint(bench_truth, X, y, 2)
        np.testing.assert_allclose(ml.model._softmax(ml.log_joint(bench_truth, X, y, 2))[0],
                                   np.log(np.exp(joint).sum(axis=0)), rtol=1e-12)


class TestExp:
    """model._exp is np.exp at or above its floor and +0.0 below it."""

    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(0, 40)),
                  elements=st.one_of(st.floats(), st.floats(FLOOR - 20.0, FLOOR + 20.0),
                                     st.sampled_from([FLOOR, -np.inf, np.inf, np.nan, -0.0]))))
    def test_contract(self, x):
        with np.errstate(over="ignore", under="ignore"):
            want = np.exp(x)
            got = ml.model._exp(x)
            alias = x.copy()
            assert ml.model._exp(alias, out=alias) is alias
        above, below = x >= FLOOR, x < FLOOR
        assert np.array_equal(got[above], want[above])
        assert np.all(got[below] == 0.0) and not np.any(np.signbit(got[below]))
        assert np.all(np.isnan(got[np.isnan(x)]))
        assert np.all(got[x == np.inf] == np.inf)
        assert np.array_equal(alias, got, equal_nan=True)

    def test_minus_inf_is_plus_zero(self):
        got = ml.model._exp(np.array([-np.inf, FLOOR - 1e-9, -1e300]))
        assert np.array_equal(got, [0.0, 0.0, 0.0]) and not np.any(np.signbit(got))


def plain_softmax(beta0, logits):
    """The gate's softmax with plain np.exp, as it was before masked gates
    went through model._exp: the logsumexp, the weights and the shifted
    arguments."""
    e = logits + beta0[:, None]
    m = e.max(axis=0)
    np.subtract(e, m, out=e)
    shifted = e.copy()
    np.exp(e, out=e)
    Z = e.sum(axis=0)
    return m + np.log(Z), np.divide(e, Z, out=e), shifted


class TestMaskedSoftmax:
    """A top-K gate's softmax goes through model._exp: its logsumexp equals
    the plain np.exp formula bit for bit, and so do its weights wherever the
    shifted argument is at or above the floor; below it they are 0."""

    @given(st.data())
    def test_equals_plain_exp(self, data):
        k, d, n = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 2)), data.draw(st.integers(1, 30))
        wide = st.floats(-1e3, 1e3)  # logits far enough apart to fall below the floor
        beta0 = data.draw(arrays(np.float64, k, elements=wide))
        beta1 = data.draw(arrays(np.float64, (k, d), elements=wide))
        X = data.draw(arrays(np.float64, (n, d), elements=st.floats(-1.0, 1.0)))
        K = data.draw(st.integers(1, k - 1))
        gate = ml.model.GatePass.at(X, beta0, beta1, K)
        mask = ml.model._selection_mask(beta1 @ X.T, K)
        lse, w, shifted = plain_softmax(beta0, np.where(mask, beta1 @ X.T, -np.inf))
        above = shifted >= FLOOR
        assert np.array_equal(gate.lse, lse)
        assert np.array_equal(gate.w[above], w[above]) and np.all(gate.w[~above] == 0.0)


def softmax_lse(scores):
    """model._softmax's logsumexp, on a copy: the kernel works in place."""
    return ml.model._softmax(scores.copy())[0]


class TestMaskedLogSumExp:
    """The log-sum-exp of model._softmax, through model._exp, equals the plain
    np.exp formula bit for bit: its largest term is exactly 1, so no sum sees
    a dropped term."""

    @staticmethod
    def draw_scores(data):
        """(k, n) scores down to -1e4, some -inf, one finite entry per input."""
        k, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 30))
        scores = data.draw(arrays(np.float64, (k, n), elements=st.floats(-1e4, 50.0)))
        drop = data.draw(arrays(np.bool_, (k, n)))
        drop[np.argmax(scores, axis=0), np.arange(n)] = False
        scores[drop] = -np.inf
        return scores

    @given(st.data())
    def test_equals_plain_exp(self, data):
        scores = self.draw_scores(data)
        assert np.array_equal(softmax_lse(scores), plain_logsumexp(scores))

    @given(st.data())
    def test_no_finite_score_is_minus_inf(self, data):
        # a column with no finite score gets logsumexp -inf, with no warning,
        # and leaves every other column as it is alone
        scores = self.draw_scores(data)
        dead = data.draw(arrays(np.bool_, scores.shape[1]))
        both = scores.copy()
        both[:, dead] = -np.inf
        lse, w = ml.model._softmax(both)
        live_lse, live_w = ml.model._softmax(scores[:, ~dead].copy())
        assert np.all(lse[dead] == -np.inf)
        assert np.array_equal(lse[~dead], live_lse) and np.array_equal(w[:, ~dead], live_w)

    @pytest.mark.parametrize("K", [2, 3])
    def test_equals_plain_exp_on_log_joints(self, K, bench_truth):
        # a k = 3 fit on overspec-k3's 1-D data: far experts thousands of
        # nats down, and -inf off a top-2 selection
        data = ml.sample_dataset(bench_truth, 2, 2000, seed=3)
        G = ml.em.init_measure(ml.em.InitSpec(bench_truth, (0, 1, 1), 0.3), seed=4)
        joint = ml.log_joint(G, data.x, data.y, K)
        shifted = joint - joint.max(axis=0)
        assert np.any(np.isfinite(shifted) & (shifted < FLOOR))
        assert np.any(np.isneginf(joint)) == (K == 2)
        assert np.array_equal(softmax_lse(joint), plain_logsumexp(joint))
        assert np.array_equal(ml.model._softmax(ml.log_joint(G, data.x, data.y, K))[0], plain_logsumexp(joint))


class TestInPlaceKernel:
    """The kernel computes in one array; its values equal the out-of-place
    expressions bit for bit, whichever array it writes into."""

    @staticmethod
    def random_case(rng):
        k, d, n = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 40))
        G = ml.MixingMeasure.from_arrays(
            rng.normal(0.0, 1.0, size=k), rng.normal(0.0, 2.0, size=(k, d)),
            rng.normal(0.0, 2.0, size=(k, d)), rng.normal(0.0, 2.0, size=k),
            np.exp(rng.normal(-0.5, 0.6, size=k)),
        )
        rng.uniform(2.5, 30.0)  # an unused draw: it keeps each case's X and K where the seed put them
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        return G, X, int(rng.integers(1, k + 1))

    def test_equals_out_of_place_expressions(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            G, X, K = self.random_case(rng)
            n = len(X)
            paired = rng.normal(0.0, 4.0, size=n)
            grid = np.sort(rng.normal(0.0, 6.0, size=(1, int(rng.integers(2, 30)))))
            for y in (paired, grid, rng.normal(0.0, 4.0, size=(n, 3))):
                want = out_of_place_log_densities(X, y, G.a, G.b, G.sigma)
                assert np.array_equal(ml.model.expert_log_density_matrix(G, X, y), want)
                assert np.array_equal(ml.log_joint(G, X, y, K), out_of_place_log_joint(G, X, y, K))

    def test_writes_into_out(self):
        rng = np.random.default_rng([7, 0])
        G, X, K = self.random_case(rng)
        n = len(X)
        y = rng.normal(0.0, 4.0, size=n)
        buf = np.empty((G.k, n))
        assert ml.log_joint(G, X, y, K, out=buf) is buf
        assert np.array_equal(buf, out_of_place_log_joint(G, X, y, K))
        # the last, partial block of a y grid: a row slice of a larger buffer
        grid = np.linspace(-8.0, 8.0, 11)[None, :]
        block = np.full((G.k, n + 5, grid.size), np.nan)
        got = ml.log_joint(G, X, grid, K, out=block[:, :n])
        assert np.shares_memory(got, block)
        assert np.array_equal(got, out_of_place_log_joint(G, X, grid, K))
        assert np.all(np.isnan(block[:, n:]))

    def test_matches_textbook_log_density(self):
        # log N(y | b, sigma^2) + log w against -(y - b)^2 / (2 sigma^2),
        # computed exactly in rationals and rounded once, minus math.log's
        # log sigma + log(2 pi) / 2 and plus log w.  The kernel rounds a few
        # times per term; allowed: 1e-14 of the terms' magnitudes summed.
        rng = np.random.default_rng(3)
        for _ in range(200):
            b, sigma = rng.normal(0.0, 5.0), float(np.exp(rng.uniform(math.log(ml.em.SIGMA_FLOOR), 7.0)))
            y = b + sigma * rng.normal(0.0, 10.0, size=7)
            G = single_expert([0.0], b, sigma)
            logw = np.array([[rng.uniform(-50.0, 0.0)]])
            got = ml.model._expert_log_densities(np.zeros((1, 1)), y[None, :], G.a, G.b, G.sigma, logw=logw)
            for yv, g in zip(y, got[0, 0]):
                quad = float(-(Fraction(yv) - Fraction(b)) ** 2 / (2 * Fraction(sigma) ** 2))
                const = math.log(sigma) + 0.5 * math.log(2.0 * math.pi)
                want = quad - const + logw[0, 0]
                assert abs(g - want) <= 1e-14 * (abs(quad) + abs(const) + abs(logw[0, 0]))

    @pytest.mark.parametrize("y", [1e152, -1e152, 1e155])
    def test_overflow_at_the_sigma_floor_is_minus_inf(self, y):
        # r * r is finite at 1e152, but r^2 / (2 sigma^2) overflows at the
        # scale floor; at 1e155 r * r itself overflows.  -inf, and no warning:
        # tier-1 makes a RuntimeWarning an error.
        G = single_expert([0.0], 0.0, ml.em.SIGMA_FLOOR)
        assert math.isfinite(y * y) == (abs(y) < 1e153)
        assert ml.log_joint(G, [[0.5]], [y], 1)[0, 0] == -np.inf
        assert ml.model.expert_log_density_matrix(G, [[0.5]], [[y, 0.0]])[0, 0, 0] == -np.inf

    def test_tiny_scale_is_exact_at_the_mean(self):
        # 1 / (2 sigma^2) is no float at sigma = 1e-200: the clamped factor
        # keeps y = mu exact, and y != mu far below 0 or -inf, never NaN
        G = single_expert([0.0], 1.0, 1e-200)
        got = ml.model.expert_log_density_matrix(G, [[0.5]], [[1.0, 1.0 + 1e-15, 2.0, 1e160]])[0, 0]
        assert got[0] == -(math.log(1e-200) + 0.5 * math.log(2.0 * math.pi))
        assert np.all(got[1:] < -1e270) and got[-1] == -np.inf


class TestConditionalLogDensity:
    def test_degenerate_single_expert(self):
        G = ml.MixingMeasure.from_arrays([0.3], [[1.0]], [[2.0]], [1.0], [0.5])
        x, y = 0.2, 1.3
        got = ml.model._softmax(ml.log_joint(G, [[x]], [y], 1))[0]
        assert got.shape == (1,)
        assert np.exp(got[0]) == pytest.approx(stats.norm.pdf(y, 2.0 * x + 1.0, 0.5))

    def test_top1_equals_leading_expert(self, bench_truth):
        # 25x > 0 on (0, 1], so the first expert is always ranked first
        xs = np.array([[0.05], [0.4], [1.0]])
        got = ml.model._softmax(ml.log_joint(bench_truth, xs, np.full(3, 2.0), 1))[0]
        expect = stats.norm.logpdf(2.0, -20.0 * xs[:, 0] + 15.0, 0.3)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_benchmark_two_expert_composition(self, bench_truth):
        x, y = 0.5, 5.0
        w = gate_probs(bench_truth, [x], 2)
        f1 = stats.norm.pdf(y, -20.0 * x + 15.0, 0.3)
        f2 = stats.norm.pdf(y, 20.0 * x - 5.0, 0.4)
        got = np.exp(ml.model._softmax(ml.log_joint(bench_truth, [[x]], [y], 2))[0][0])
        assert got == pytest.approx(w[0] * f1 + w[1] * f2, rel=1e-12)

    def test_no_density_is_minus_inf(self, bench_truth):
        # y = 1e308 overflows every expert's standardized residual: no
        # density at sample 0, and no warning
        X, y = np.array([[0.1], [0.5], [0.9]]), np.array([1e308, 1.0, 2.0])
        got = ml.model._softmax(ml.log_joint(bench_truth, X, y, 2))[0]
        assert got[0] == -np.inf
        assert np.array_equal(got[1:], plain_logsumexp(ml.log_joint(bench_truth, X[1:], y[1:], 2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_normalizes_to_one(self, seed):
        rng = np.random.default_rng(300 + seed)
        G = random_measure(rng, 3, 1)
        x = rng.uniform(0, 1, size=1)
        mu = G.a @ x + G.b
        lo = mu.min() - 10 * G.sigma.max()
        hi = mu.max() + 10 * G.sigma.max()
        ys = np.linspace(lo, hi, 4001)
        dens = np.exp(ml.model._softmax(ml.log_joint(G, [x], ys[None, :], 2))[0][0])
        assert np.trapezoid(dens, ys) == pytest.approx(1.0, abs=1e-6)


class TestSampleDataset:
    def test_n_zero_rejected(self, bench_truth):
        with pytest.raises(ml.InvalidArgumentError):
            ml.sample_dataset(bench_truth, 1, 0, seed=0)

    def test_determinism(self, bench_truth):
        d1 = ml.sample_dataset(bench_truth, 2, 500, seed=123)
        d2 = ml.sample_dataset(bench_truth, 2, 500, seed=123)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)

    def test_equals_plain_exp_on_sparse_2d_rows(self):
        # the gate weights are -inf off the top-2 selection and go through
        # model._exp; every dataset of sparse-2d's sweep (base seed 505) is
        # the one the plain np.exp sampler draws
        truth = ml.true_measure(**TRUTH_2D)
        for n in (316, 631, 1259, 2512, 5012, 10000):
            for rep in range(4):
                seed = ml.experiments.row_seed(505, n, rep, "data")
                data = ml.sample_dataset(truth, 2, n, seed=seed, bounds=BOX_2D)
                rng = np.random.default_rng(seed)
                X = ml.uniform_box_sampler(BOX_2D)(rng, n)
                cdf = np.cumsum(np.exp(ml.gate_log_weights(truth, X, 2)), axis=0)
                idx = np.minimum(np.sum(cdf < rng.random(n), axis=0), truth.k - 1)
                y = np.sum(X * truth.a[idx], axis=1) + truth.b[idx] + truth.sigma[idx] * rng.standard_normal(n)
                assert np.array_equal(data.x, X) and np.array_equal(data.y, y)

    def test_conditional_mean_near_half(self, bench_truth):
        # K=1 keeps expert 1 everywhere: E[y | x=0.5] = -20*0.5 + 15 = 5
        data = ml.sample_dataset(bench_truth, 1, 10_000, seed=7)
        sel = (data.x[:, 0] > 0.49) & (data.x[:, 0] < 0.51)
        assert data.y[sel].mean() == pytest.approx(5.0, abs=0.05)

    @pytest.mark.parametrize("bounds", [[[0.0, 1e308]], [[7.5e306, 8.5e306]]], ids=["all", "gate-only"])
    def test_overflowing_draw_rejected_without_warnings(self, bench_truth, bounds):
        # on [0, 1e308] the gate and the responses overflow; on
        # [7.5e306, 8.5e306] only the gate does (25 x > 1.8e308 > 20 x), and
        # the sampler would otherwise draw from a NaN gate.  A warning would
        # fail this test under tier-1's error::RuntimeWarning filter.
        with pytest.raises(ml.InvalidArgumentError, match="the draw at sample index 0 overflows"):
            ml.sample_dataset(bench_truth, 2, 10, seed=7, bounds=bounds)

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


class TestBoxCheck:
    """Every reader of a box rejects the same bad boxes."""

    BAD_VALUES = [[[0.0, np.inf]], [[np.nan, 1.0]], [[1.0, 0.0]], [["a", "b"]], [0.0, 1.0, 2.0],
                  [[-1e308, 1e308]]]  # finite bounds whose width overflows

    @pytest.mark.parametrize("box", BAD_VALUES + [[[0.0, 1.0], [0.0, 1.0]]])
    def test_readers_reject(self, bench_truth, box):
        readers = (
            lambda: ml.Dataset(x=[0.5], y=[0.0], bounds=box),
            lambda: ml.sample_dataset(bench_truth, 1, 5, seed=0, bounds=box),
            lambda: ml.default_y_grid(bench_truth, bench_truth, box),
        )
        for read in readers:
            with pytest.raises(ml.InvalidArgumentError, match="bounds"):
                read()

    @pytest.mark.parametrize("box", BAD_VALUES)
    def test_sampler_rejects(self, box):
        with pytest.raises(ml.InvalidArgumentError, match="bounds"):
            ml.uniform_box_sampler(box)

    def test_none_is_the_unit_box(self, bench_truth):
        data = ml.sample_dataset(bench_truth, 1, 5, seed=0, bounds=None)
        assert data.bounds.tolist() == [[0.0, 1.0]]

    def test_flat_pair_read_per_dimension(self):
        assert ml.Dataset(x=[[0.5, 0.5]], y=[0.0], bounds=[0.0, 1.0, 0.0, 1.0]).bounds.tolist() == [[0.0, 1.0]] * 2


class TestDataset:
    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(x=np.zeros(3), y=np.zeros(2)), ml.InvalidArgumentError, r"need \|x\| == \|y\| >= 1"),
        (dict(x=np.zeros((0, 1)), y=[]), ml.InvalidArgumentError, r"need \|x\| == \|y\| >= 1"),
        (dict(x=[0.5, 2.0], y=[0.0, 0.0], bounds=[[0.0, 1.0]]), ml.AssumptionError, "U.1"),
    ], ids=["unpaired", "empty", "outside-bounds"])
    def test_bad_data_rejected(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            ml.Dataset(**kwargs)

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_inputs_stored_column_major(self, d):
        # EM's (k, n) @ (n, d) products and W @ X.T projections run on
        # BLAS's fast layout when the inputs are column-major
        x = np.random.default_rng(d).uniform(size=(50, d))
        for data in (ml.Dataset(x=x, y=np.zeros(50)), ml.Dataset(x=x.tolist(), y=np.zeros(50))):
            assert data.x.flags.f_contiguous and np.array_equal(data.x, x)
        assert ml.sample_dataset(ml.true_measure(**TRUTH_2D), 2, 50, seed=0, bounds=BOX_2D).x.flags.f_contiguous


class TestProject:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_matmul_in_either_layout(self, d):
        # bit for bit, at d = 1 (a broadcast multiply) as at d >= 2
        rng = np.random.default_rng(40 + d)
        W = rng.normal(size=(3, d))
        X = rng.uniform(-2.0, 2.0, size=(1001, d))
        for layout in (X, np.asfortranarray(X)):
            got = ml.model._project(W, layout)
            assert np.array_equal(got, W @ layout.T) and np.array_equal(got, W @ X.T)


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

    @given(data=st.data())
    def test_round_trip_property(self, data):
        k, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        G = ml.MixingMeasure.from_arrays(
            data.draw(arrays(float, k, elements=finite)),
            data.draw(arrays(float, (k, d), elements=finite)),
            data.draw(arrays(float, (k, d), elements=finite)),
            data.draw(arrays(float, k, elements=finite)),
            data.draw(arrays(float, k, elements=st.floats(0.0, exclude_min=True, allow_infinity=False))),
        )
        G2 = ml.measure_from_text(ml.measure_to_text(G))
        assert (G2.k, G2.d) == (k, d)
        for name in ("beta0", "beta1", "a", "b", "sigma"):
            # bit patterns, so that -0.0 must come back as -0.0
            assert getattr(G2, name).tobytes() == getattr(G, name).tobytes()

    def test_header_mismatch_rejected(self):
        with pytest.raises(ml.InvalidArgumentError):
            ml.measure_from_text("family=gaussian d=1 k=2\n0 0 0 0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("family=gaussian d=0 k=1\n0 1 1\n", "measure header needs d >= 1 and k >= 1, got d=0"),
        ("family=gaussian d=1 k=1\n0 0 1 1\n", "component line has 4 fields, expected 5"),
        ("family=gaussian d=1 k=1\n0 0 1 0 1 7\n", "component line has 6 fields, expected 5"),
    ], ids=["d0", "short-line", "long-line"])
    def test_bad_document_rejected(self, text, message):
        with pytest.raises(ml.InvalidArgumentError, match=message):
            ml.measure_from_text(text)

    @pytest.mark.parametrize("head, message", [
        ("family=gaussian d=1 k=1 dfo=3", "unknown measure header key 'dfo'"),
        ("family=student-t d=1 k=1 dof=3 dof=4", "unknown measure header key 'dof'"),
        ("family=gaussian d=1 k=1 family=laplace", "repeated measure header key 'family'"),
        ("family=laplace d=1 k=1", "unsupported expert family 'laplace'"),
        ("family=student-t d=1 k=1", "unsupported expert family 'student-t'"),
    ], ids=["unknown", "repeated-dof", "repeated-family", "laplace", "student-t"])
    def test_header_keys_strict(self, head, message):
        with pytest.raises(ml.InvalidArgumentError, match=message):
            ml.measure_from_text(head + "\n0 0 1 0 1\n")

    def test_document_text(self, bench_truth):
        assert ml.measure_to_text(bench_truth) == (
            "family=gaussian d=1 k=2\n-8 25 -20 15 0.29999999999999999\n0 0 20 -5 0.40000000000000002\n")


class TestMeasureValidation:
    """A measure's arrays are checked once, when it is built."""

    def test_extra_entries_rejected(self):
        with pytest.raises(ml.InvalidArgumentError):
            ml.MixingMeasure.from_arrays([0, 0], [[1], [0]], [[1], [2]], [1, 2, 3], [1, 1, 5])

    @pytest.mark.parametrize("arrays, message", [
        (([], [], [], [], []), "a measure needs k >= 1 and d >= 1, got k=0"),
        (([0, 0], [[1], [0]], [[1], [2]], [0, np.nan], [1, 1]), "b must be finite"),
        (([0, 0], [[1], [np.inf]], [[1], [2]], [0, 0], [1, 1]), "beta1 must be finite"),
    ], ids=["empty", "nan", "inf"])
    def test_empty_or_non_finite_arrays_rejected(self, arrays, message):
        with pytest.raises(ml.InvalidArgumentError, match=message):
            ml.MixingMeasure.from_arrays(*arrays)

    @pytest.mark.parametrize("beta1", [[1.0, 2.0, 3.0], [[1.0], [2.0, 3.0]]])
    def test_slopes_that_do_not_fit_k_rejected(self, beta1):
        with pytest.raises(ml.InvalidArgumentError):
            ml.MixingMeasure.from_arrays([0, 0], beta1, [[1], [2]], [0, 0], [1, 1])

    def test_fields_are_the_five_arrays(self):
        assert [f.name for f in dataclasses.fields(ml.MixingMeasure)] == ["beta0", "beta1", "a", "b", "sigma"]

    def test_arrays_are_read_only_copies(self):
        beta0 = np.zeros(2)
        G = ml.MixingMeasure.from_arrays(beta0, [[1], [0]], [[1], [2]], [0, 0], [1, 1])
        beta0[0] = 3.0
        assert G.beta0[0] == 0.0
        with pytest.raises(ValueError):
            G.beta1[0, 0] = 3.0


class TestMeasureChecks:
    def test_true_measure_enforces_assumptions(self):
        with pytest.raises(ml.AssumptionError):
            ml.true_measure([0.0], [[0.0]], [[1.0]], [0.0], [1.0])  # U.4 fails

    def test_duplicate_experts_flagged(self):
        G = ml.MixingMeasure.from_arrays(
            [0, 0], [[1], [0]], [[1], [1]], [0, 0], [1, 1]
        )
        assert [v[:3] for v in G.truth_violations()] == ["U.3"]

    @pytest.mark.parametrize("beta0, beta1", [([0.0, 0.5], [[1.0], [0.0]]), ([0.0, 0.0], [[1.0], [-2.0]])])
    def test_unpinned_last_component_flagged(self, beta0, beta1):
        G = ml.MixingMeasure.from_arrays(beta0, beta1, [[1], [2]], [0, 0], [1, 1])
        assert [v[:3] for v in G.truth_violations()] == ["U.2"]

    def test_benchmark_truth_is_valid(self, bench_truth):
        assert bench_truth.truth_violations() == []
