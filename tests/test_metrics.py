import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import moelab as ml
from moelab.metrics import score

from conftest import BOX_2D, TRUTH_2D, random_measure

UNIT = ml.uniform_box_sampler([[0.0, 1.0]])


def perturbed(G, rng, scale):
    return ml.MixingMeasure.from_arrays(
        G.beta0 + scale * rng.standard_normal(G.k),
        G.beta1 + scale * rng.standard_normal((G.k, G.d)),
        G.a + scale * rng.standard_normal((G.k, G.d)),
        G.b + scale * rng.standard_normal(G.k),
        G.sigma * np.exp(scale * rng.standard_normal(G.k)),
    )


class TestAssignVoronoi:
    def test_identity(self, bench_truth):
        assert ml.assign_voronoi(bench_truth, bench_truth) == ((0,), (1,))

    def test_two_near_one(self, bench_truth):
        G_fit = ml.MixingMeasure.from_arrays(
            [-8, -8, 0], [[25.1], [24.9], [0.2]],
            [[-20], [-19.8], [20]], [15, 15.1, -5.2], [0.3, 0.31, 0.4],
        )
        cells = ml.assign_voronoi(G_fit, bench_truth)
        assert cells == ((0, 1), (2,))

    def test_equidistant_tie_to_smaller_index(self):
        G_true = ml.MixingMeasure.from_arrays(
            [0, 0], [[1], [-1]], [[1], [1]], [0, 0], [1, 1]
        )
        G_fit = ml.MixingMeasure.from_arrays([0], [[0]], [[1]], [0], [1])
        assert ml.assign_voronoi(G_fit, G_true) == ((0,), ())

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
        G_perm = ml.MixingMeasure.from_arrays(G_fit.beta0[perm], G_fit.beta1[perm], G_fit.a[perm],
                                              G_fit.b[perm], G_fit.sigma[perm])
        base = ml.assign_voronoi(G_fit, G_true)
        permuted = ml.assign_voronoi(G_perm, G_true)
        inv = np.argsort(perm)
        expect = tuple(tuple(sorted(int(inv[i]) for i in cell)) for cell in base)
        assert permuted == expect


class TestLossD1:
    def test_report_value_is_the_sum_of_its_terms(self):
        assert ml.LossReport(0.75, (0, 1), (0.5, 0.25)).value == 0.75
        with pytest.raises(ml.InvalidArgumentError, match="value must equal the sum of per_cell_terms"):
            ml.LossReport(1.0, (0, 1), (0.5, 0.25))

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
        assert json.loads(rep.to_json()) == {
            "value": rep.value, "argmax_subset": list(rep.argmax_subset), "per_cell_terms": list(rep.per_cell_terms),
        }

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

    def test_terms_rejected_for_d2_d3(self, bench_truth):
        # D2 and D3 score every term; a restriction must not be dropped silently
        rng = np.random.default_rng(3)
        G_fit = perturbed(bench_truth, rng, 0.1)
        restricted = score(ml.LossSpec(terms=("a",)), G_fit, 2, bench_truth, 2)
        assert restricted.value < score(ml.LossSpec(), G_fit, 2, bench_truth, 2).value
        for metric in ("d2", "d3"):
            score(ml.LossSpec(metric=metric), G_fit, 2, bench_truth, 2)
            with pytest.raises(ml.InvalidArgumentError, match="D1 only"):
                ml.LossSpec(metric=metric, terms=("a",))

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
        G.a, G.b, G.sigma,
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

    @pytest.mark.parametrize("c0, c1", [(709.0, 3.0), (-709.0, -3.0), (710.0, 3.0), (-710.0, 0.5),
                                        (760.0, -12.5), (-760.0, 12.5), (1e4, 40.0), (-1e4, -40.0)])
    def test_shift_past_exp_overflow_scores_zero(self, bench_truth, c0, c1):
        # exp(beta0) overflows past a common shift of about 709 and
        # underflows past -745; the softmax of beta0 sees neither
        G_fit = translated(bench_truth, c0, [c1])
        for K in (1, 2):
            for rep in all_losses(G_fit, bench_truth, K, renormalize=True):
                assert 0.0 <= rep.value <= 1e-12


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
            spec = ml.LossSpec(metric=metric, rbar_policy="conjecture")
            terms = score(spec, fit, k_star, truth, k_star).per_cell_terms
            for K in range(1, k_star + 1):
                rep = score(spec, fit, K, truth, K)
                value, subset = enumerated_max(terms, K)
                assert rep.value == value
                assert rep.argmax_subset == subset
                assert rep.per_cell_terms == tuple(terms[j] for j in subset)

    @pytest.mark.parametrize("subsets, message", [
        ([(0,)], r"subset \(0,\) is not a K-subset"),
        ([(0, 1), (0, 2)], r"subset \(0, 2\) is not a K-subset"),
        ([], "no candidate subsets supplied"),
    ], ids=["short", "out-of-range", "empty"])
    def test_explicit_subsets_checked(self, bench_truth, subsets, message):
        with pytest.raises(ml.InvalidArgumentError, match=message):
            ml.loss_d1(bench_truth, bench_truth, 2, subsets=subsets)

    def test_large_true_order(self):
        # C(24, 12) = 2.7e6 subsets; the smaller index wins each tie
        # and there are twelve tied 0.25 terms for six places
        fit, truth = offset_measures(np.tile([0.5, 0.25, 0.0, 0.25], 6))
        rep = ml.loss_d1(fit, truth, 12)
        assert rep.argmax_subset == (0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 16, 20)
        assert rep.value == 4.5


class TestNaNCellTerm:
    """A fitted weight exp(800) overflows to inf, and its component equals
    its true one, so that cell's term is inf * 0 = NaN."""

    @pytest.fixture
    def overflowing_fit(self, bench_truth):
        t = bench_truth
        return ml.MixingMeasure.from_arrays([800.0, 0.0], t.beta1, t.a, t.b, t.sigma)

    @pytest.mark.parametrize("K", [1, 2])
    def test_nan_cell_makes_the_loss_nan(self, bench_truth, overflowing_fit, K):
        for rep in all_losses(overflowing_fit, bench_truth, K):
            assert math.isnan(rep.value)
            assert 0 in rep.argmax_subset and len(rep.argmax_subset) == K
        rep = ml.loss_d1(overflowing_fit, bench_truth, K, terms=("beta1", "a", "b", "sigma"))
        assert math.isnan(rep.value) and 0 in rep.argmax_subset

    def test_explicit_subsets_avoiding_the_nan_cell_keep_their_max(self, bench_truth, overflowing_fit):
        for rep in all_losses(overflowing_fit, bench_truth, 1, subsets=[(1,)]):
            assert (rep.value, rep.argmax_subset, rep.per_cell_terms) == (0.0, (1,), (0.0,))
        # a candidate holding the NaN cell makes the max NaN, in either order
        for subsets in ([(1,), (0,)], [(0,), (1,)]):
            rep = ml.loss_d1(overflowing_fit, bench_truth, 1, subsets=subsets)
            assert math.isnan(rep.value) and rep.argmax_subset == (0,)

    def test_renormalized_weights_stay_finite(self, bench_truth, overflowing_fit):
        for K in (1, 2):
            for rep in all_losses(overflowing_fit, bench_truth, K, renormalize=True):
                assert math.isfinite(rep.value)


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
        assert ml.assign_voronoi(G_fit, G_true) == ((0,), (1,), (2,))
        K = int(rng.integers(1, 4))
        d1 = ml.loss_d1(G_fit, G_true, K)
        d2 = ml.loss_d2(G_fit, G_true, K, ml.rbar_fn("conjecture"))
        d3 = ml.loss_d3(G_fit, G_true, K)
        assert d2.value == d1.value
        assert d3.value == d1.value
        assert d2.per_cell_terms == d1.per_cell_terms


def reference_cell_terms(G_fit, G_true, exponent_fn, renormalize, terms):
    """The cell terms by a loop over each cell's members, on the (k, k*)
    distance matrices: the evaluation the skeleton's index-array form
    replaced, kept to pin its output bit for bit."""
    w, G_fit = ml.metrics._scored_fit(G_fit, G_true, renormalize)

    def theta(G):
        return np.concatenate([G.beta1, G.a, G.b[:, None], G.sigma[:, None]], axis=1)

    dists = np.linalg.norm(theta(G_fit)[:, None, :] - theta(G_true)[None, :, :], axis=2)
    nearest = np.argmin(dists, axis=1)
    cells = [np.nonzero(nearest == j)[0].tolist() for j in range(G_true.k)]
    w_true = np.exp(G_true.beta0)
    d_beta1 = np.linalg.norm(G_fit.beta1[:, None, :] - G_true.beta1[None, :, :], axis=2)
    d_a = np.linalg.norm(G_fit.a[:, None, :] - G_true.a[None, :, :], axis=2)
    d_b = np.abs(G_fit.b[:, None] - G_true.b[None, :])
    d_sigma = np.abs(G_fit.sigma[:, None] - G_true.sigma[None, :])
    cell_term = np.zeros(G_true.k)
    for j, cell in enumerate(cells):
        total = 0.0
        if cell:
            p_gate, p_expert = exponent_fn(len(cell))
            for i in cell:
                acc = 0.0
                if "beta1" in terms:
                    acc += d_beta1[i, j] ** p_gate
                if "b" in terms:
                    acc += d_b[i, j] ** p_gate
                if "a" in terms:
                    acc += d_a[i, j] ** p_expert
                if "sigma" in terms:
                    acc += d_sigma[i, j] ** p_expert
                total += w[i] * acc
        if "weight" in terms:
            total += abs(sum(w[i] for i in cell) - w_true[j])
        cell_term[j] = total
    return cell_term, cells


def reference_report(cell_term, K, subsets):
    """(value, argmax_subset, per_cell_terms) of the outer max, as the skeleton searches it."""
    if subsets is None:
        subsets = [np.sort(np.argsort(-cell_term, kind="stable")[:K])]
    best_value, best_subset = -np.inf, None
    for subset in subsets:
        subset = tuple(sorted(int(j) for j in subset))
        value = float(sum(cell_term[j] for j in subset))
        if value > best_value:
            best_value, best_subset = value, subset
    return best_value, best_subset, tuple(float(cell_term[j]) for j in best_subset)


def d2_exponents(policy):
    def exponents(m):
        if m <= 1:
            return (1.0, 1.0)
        r = float(ml.rbar(m, policy))
        return (r, r / 2.0)
    return exponents


TERM_SETS = [frozenset(c) for r in range(6) for c in itertools.combinations(sorted(ml.metrics.ALL_TERMS), r)]
SKELETON_CASES = 256


class TestSkeletonMatchesPerCellLoop:
    """D1, D2 and D3 equal, bit for bit, the per-cell, per-member loop."""

    def test_bit_identical_on_random_cases(self):
        rng = np.random.default_rng(2024)
        seen = dict(empty_cell=0, k_above_k_star=0, shared_cell=0, explicit_subsets=0, unsupported=0)
        for case in range(SKELETON_CASES):
            k_star, d, k = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
            G_true = random_measure(rng, k_star, d)
            if case % 4:
                # fitted components jittered around the truth's, so that cells share members
                plan = rng.integers(0, k_star, size=k)
                scale = 10.0 ** rng.uniform(-3, 0)
                G_fit = ml.MixingMeasure.from_arrays(
                    G_true.beta0[plan] + scale * rng.standard_normal(k),
                    G_true.beta1[plan] + scale * rng.standard_normal((k, d)),
                    G_true.a[plan] + scale * rng.standard_normal((k, d)),
                    G_true.b[plan] + scale * rng.standard_normal(k),
                    G_true.sigma[plan] * np.exp(scale * rng.standard_normal(k)),
                )
            else:
                G_fit = random_measure(rng, k, d)
            K = int(rng.integers(1, k_star + 1))
            subsets = None
            if case % 3 == 0:
                every = list(itertools.combinations(range(k_star), K))
                subsets = [every[i] for i in rng.permutation(len(every))[: int(rng.integers(1, len(every) + 1))]]
            renormalize = bool((case // len(TERM_SETS)) % 2)
            terms = TERM_SETS[case % len(TERM_SETS)]
            kw = dict(renormalize=renormalize, subsets=subsets)
            scored = [
                (ml.metrics.ALL_TERMS, lambda m: (1.0, 1.0), lambda: ml.loss_d1(G_fit, G_true, K, **kw)),
                (terms, lambda m: (1.0, 1.0), lambda: ml.loss_d1(G_fit, G_true, K, terms=terms, **kw)),
                (ml.metrics.ALL_TERMS, lambda m: (1.0, 1.0) if m <= 1 else (2.0, 2.0),
                 lambda: ml.loss_d3(G_fit, G_true, K, **kw)),
            ] + [
                (ml.metrics.ALL_TERMS, d2_exponents(policy),
                 lambda policy=policy: ml.loss_d2(G_fit, G_true, K, ml.rbar_fn(policy), **kw))
                for policy in ("exact", "conjecture")
            ]
            for ref_terms, exponents, loss in scored:
                try:
                    cell_term, cells = reference_cell_terms(G_fit, G_true, exponents, renormalize, ref_terms)
                except ml.UnsupportedValueError as exc:
                    with pytest.raises(ml.UnsupportedValueError, match=re.escape(str(exc))):
                        loss()
                    seen["unsupported"] += 1
                    continue
                rep = loss()
                assert (rep.value, rep.argmax_subset, rep.per_cell_terms) == reference_report(cell_term, K, subsets)
            seen["empty_cell"] += any(not c for c in cells)
            seen["k_above_k_star"] += k > k_star
            seen["shared_cell"] += any(len(c) > 1 for c in cells)
            seen["explicit_subsets"] += subsets is not None
        assert min(seen.values()) >= 20, seen


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

    @pytest.mark.parametrize("order", ["2d-1d", "1d-2d"])
    def test_y_grid_dimension_mismatch(self, bench_truth, order):
        # the measures are compared before the box: a 2-D G_a is not blamed on
        # the 1-D box, and a 1-D G_a gets no grid from 2-D slopes
        G_a, G_b = (ml.true_measure(**TRUTH_2D), bench_truth)[:: 1 if order == "2d-1d" else -1]
        with pytest.raises(ml.InvalidArgumentError, match=f"^dimension mismatch: G_a d={G_a.d}, G_b d={G_b.d}$"):
            ml.default_y_grid(G_a, G_b, [[0, 1]])

    @pytest.mark.parametrize("order", ["2d-1d", "1d-2d"])
    def test_hellinger_dimension_mismatch(self, bench_truth, order):
        # the measures are compared before x is read against either of them
        G_a, G_b = (ml.true_measure(**TRUTH_2D), bench_truth)[:: 1 if order == "2d-1d" else -1]
        grid = np.linspace(-1.0, 1.0, 5)
        message = f"^dimension mismatch: G_a d={G_a.d}, G_b d={G_b.d}$"
        with pytest.raises(ml.InvalidArgumentError, match=message):
            ml.hellinger_pointwise(G_a, 1, G_b, 1, [0.5] * G_b.d, grid)
        with pytest.raises(ml.InvalidArgumentError, match=message):
            ml.expected_hellinger(G_a, 1, G_b, 1, ml.uniform_box_sampler([[0.0, 1.0]] * G_b.d), 5, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_grid_must_be_finite(self, bench_truth, bad, at):
        # a NaN point made the distance NaN, and an infinite one a NaN weight
        grid = [-1.0, 0.0, 1.0]
        grid[at] = bad
        with pytest.raises(ml.InvalidArgumentError, match="^y_grid must be finite, got a point "):
            ml.hellinger_pointwise(bench_truth, 2, bench_truth, 2, [0.5], grid)
        with pytest.raises(ml.InvalidArgumentError, match="^y_grid must be finite, got a point "):
            ml.expected_hellinger(bench_truth, 2, bench_truth, 2, UNIT, 5, grid)

    @pytest.mark.parametrize("grid", ["uniform", "random", "log-spaced"])
    def test_quadrature_weights_are_the_halved_trapezoid(self, grid):
        # one product with the weights is 0.5 * np.trapezoid up to rounding:
        # both sum m positive terms, allowed 1e-13 relative (seen: 1.2e-15)
        rng = np.random.default_rng(list(("uniform", "random", "log-spaced")).index(grid))
        points = {"uniform": np.linspace(-30.0, 40.0, 2001),
                  "random": np.sort(rng.uniform(-5.0, 5.0, 500)),
                  "log-spaced": np.cumsum(np.exp(rng.normal(0.0, 2.0, 300)))}[grid]
        got_points, weights = ml.metrics._quadrature(points)
        assert np.array_equal(got_points, points)
        f = np.exp(rng.normal(0.0, 3.0, size=(20, points.size)))
        np.testing.assert_allclose(f @ weights, 0.5 * np.trapezoid(f, points, axis=-1), rtol=1e-13, atol=0.0)
        # two points: each weight is a quarter of the step
        assert ml.metrics._quadrature([1.0, 3.0])[1].tolist() == [0.5, 0.5]

    def test_disjoint_supports_approach_one(self):
        Ga = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [0.0], [1e-3])
        Gb = ml.MixingMeasure.from_arrays([0], [[0]], [[0]], [50.0], [1e-3])
        grid = np.linspace(-1.0, 51.0, 200_001)
        assert ml.hellinger_pointwise(Ga, 1, Gb, 1, [0.5], grid) == pytest.approx(1.0, abs=1e-4)

    def test_empty_grid_rejected(self, bench_truth):
        with pytest.raises(ml.InvalidArgumentError):
            ml.hellinger_pointwise(bench_truth, 1, bench_truth, 1, [0.5], [1.0])

    @pytest.mark.parametrize("grid", [[1.0, 0.0], [0.0, 1.0, 1.0]], ids=["decreasing", "repeated"])
    def test_grid_must_increase(self, bench_truth, grid):
        with pytest.raises(ml.InvalidArgumentError, match="y_grid must be strictly increasing"):
            ml.hellinger_pointwise(bench_truth, 1, bench_truth, 1, [0.5], grid)

    @pytest.mark.parametrize("n_mc", [0, -3])
    def test_expected_needs_a_draw(self, bench_truth, n_mc):
        with pytest.raises(ml.InvalidArgumentError, match="n_mc must be >= 1"):
            ml.expected_hellinger(bench_truth, 1, bench_truth, 1, ml.uniform_box_sampler([[0.0, 1.0]]), n_mc,
                                  np.linspace(-1.0, 1.0, 5))

    @pytest.mark.parametrize("n_points", [1, 0, -5])
    def test_grid_needs_two_points(self, bench_truth, n_points):
        with pytest.raises(ml.InvalidArgumentError):
            ml.default_y_grid(bench_truth, bench_truth, [[0, 1]], n_points)

    @pytest.mark.parametrize("n_mc", [1, ml.metrics.HELLINGER_BLOCK - 1, ml.metrics.HELLINGER_BLOCK + 1,
                                      2 * ml.metrics.HELLINGER_BLOCK, 2 * ml.metrics.HELLINGER_BLOCK + 1])
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
        want_stderr = np.std(vals, ddof=1) / np.sqrt(n_mc) if n_mc > 1 else 0.0
        if n_mc == 1:
            assert (est.mean, est.stderr) == (vals[0], 0.0)
        else:
            # a row scored alone and in a block differ only in the rounding of
            # the matrix products, a few units in the last place
            assert est.mean == pytest.approx(np.mean(vals), abs=1e-14)
            assert est.stderr == pytest.approx(want_stderr, abs=1e-14)
        # refilled block buffers give the values of fresh arrays, bit for bit
        B = ml.metrics.HELLINGER_BLOCK
        quadrature = ml.metrics._quadrature(grid)
        fresh = np.concatenate([ml.metrics._hellinger_rows(fit, 3, truth, 2, X[i : i + B], quadrature)
                                for i in range(0, n_mc, B)])
        assert est.mean == fresh.mean()
        assert est.stderr == (fresh.std(ddof=1) / np.sqrt(n_mc) if n_mc > 1 else 0.0)
        # the buffers are made afresh per call: no state leaks between calls
        assert ml.expected_hellinger(fit, 3, truth, 2, sampler, n_mc, grid, seed=11) == est

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


def plain_exp_expected_hellinger(G_a, K_a, G_b, K_b, sampler, n_mc, y_grid, seed=0):
    """expected_hellinger with plain np.exp on the joints, as it was before
    the floor-clamped ``model._exp``, and the same quadrature weights: the
    reference it must equal."""
    weights = ml.metrics._quadrature(y_grid)[1]
    X = sampler(np.random.default_rng(seed), n_mc)
    rows = min(n_mc, ml.metrics.HELLINGER_BLOCK)
    bufs = [np.empty((G.k, rows, y_grid.size)) for G in (G_a, G_b)]
    vals = []
    for i in range(0, n_mc, rows):
        Xi = X[i : i + rows]
        roots = []
        for G, K, buf in ((G_a, K_a, bufs[0]), (G_b, K_b, bufs[1])):
            joint = ml.log_joint(G, Xi, y_grid[None, :], K, out=buf[:, : len(Xi)])
            np.exp(joint, out=joint)
            density = joint.sum(axis=0)
            roots.append(np.sqrt(density, out=density))
        h2 = (roots[0] - roots[1]) ** 2 @ weights
        vals.append(np.sqrt(np.clip(h2, 0.0, 1.0)))
    vals = np.concatenate(vals)
    return vals.mean(), (vals.std(ddof=1) / np.sqrt(n_mc) if n_mc > 1 else 0.0)


class TestHellingerMatchesPlainExp:
    """The benchmark's analysis kinds: truth at K_true, a jittered fit of the
    truth's components (by plan) at K_fit, and the box."""

    KINDS = {
        "1d-dense": (None, 2, [0, 1], 2, [[0.0, 1.0]]),
        "1d-top1-over": (None, 1, [0, 1, 1], 1, [[0.0, 1.0]]),
        "2d-sparse": (TRUTH_2D, 2, [0, 1, 2], 2, BOX_2D),
        "2d-dense-over": (TRUTH_2D, 3, [0, 1, 2, 0], 3, BOX_2D),
        "single": (dict(beta0=[0.0], beta1=[[0.0]], a=[[1.5]], b=[-0.5], sigma=[0.6]), 1, [0], 1, [[0.0, 1.0]]),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_plain_exp(self, kind, bench_truth):
        arrays, K_true, plan, K_fit, box = self.KINDS[kind]
        truth = bench_truth if arrays is None else ml.MixingMeasure.from_arrays(**arrays)
        rng = np.random.default_rng(list(self.KINDS).index(kind))
        for _ in range(4):
            G = ml.MixingMeasure.from_arrays(truth.beta0[plan], truth.beta1[plan], truth.a[plan],
                                             truth.b[plan], truth.sigma[plan])
            fit = perturbed(G, rng, 0.1)
            grid = ml.default_y_grid(fit, truth, box)
            sampler = ml.uniform_box_sampler(box)
            est = ml.expected_hellinger(fit, K_fit, truth, K_true, sampler, 40, grid, seed=5)
            want = plain_exp_expected_hellinger(fit, K_fit, truth, K_true, sampler, 40, grid, seed=5)
            assert (est.mean, est.stderr) == want
            assert est.mean > 0.0


@st.composite
def root_density_cases(draw):
    """A :func:`random_measure` with k <= 4 components on d <= 2 inputs, some
    gating slopes copied from an earlier component's so that the ranking
    ties, every K, up to 6 inputs (the origin ties every slope) and a short
    y grid."""
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    G = random_measure(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k, d)
    source = [draw(st.integers(0, i)) for i in range(k)]
    G = ml.MixingMeasure.from_arrays(G.beta0, G.beta1[source], G.a, G.b, G.sigma)
    n = draw(st.integers(1, 6))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-2.0, 2.0, (n, d))
    if draw(st.booleans()):
        X[0] = 0.0
    grid = ml.default_y_grid(G, G, [[-2.0, 2.0]] * d, draw(st.integers(2, 9)))
    return G, draw(st.integers(1, k)), X, grid


class TestGatheredRootDensity:
    """Hellinger's densities sum each input's K selected components only; the
    full (k, n, m) joint of ``log_joint`` adds exact zeros off the selection,
    so both give the same bits."""

    @given(root_density_cases())
    def test_equals_the_full_joint(self, case):
        G, K, X, grid = case
        full = ml.log_joint(G, X, grid[None, :], K)
        # the selected rows of the full joint, each input's in ascending order
        mask = ml.model._selection_mask(G.beta1 @ X.T, K)
        rows = full.transpose(1, 0, 2)[mask.T].reshape(len(X), K, grid.size).transpose(1, 0, 2)
        assert np.array_equal(ml.model._selected_log_joint(G, X, grid[None, :], K), rows)
        want = np.sqrt(np.sum(ml.model._exp(full), axis=0))
        assert np.array_equal(ml.metrics._root_density(G, K, X, grid, None), want)
        buf = np.full((K, len(X) + 1, grid.size), np.nan)  # a refilled, non-contiguous block
        assert np.array_equal(ml.metrics._root_density(G, K, X, grid, buf[:, : len(X)]), want)

    def test_joints_hold_only_the_selected_components(self, monkeypatch):
        rng = np.random.default_rng(31)
        fit, truth = random_measure(rng, 4, 2), random_measure(rng, 3, 2)
        shapes = []
        for name in ("_squared_residuals", "_scaled_densities"):
            def spy(r, *args, _kernel=getattr(ml.model, name), **kwargs):
                out = _kernel(r, *args, **kwargs)
                shapes.append(out.shape)
                return out
            monkeypatch.setattr(ml.model, name, spy)

        def full_gate(*args):
            raise AssertionError("Hellinger formed a (k, n) gate")
        monkeypatch.setattr(ml.model, "gate_log_weights", full_gate)
        box = [[-1.0, 1.0]] * 2
        grid = ml.default_y_grid(fit, truth, box, 11)
        ml.expected_hellinger(fit, 1, truth, 2, ml.uniform_box_sampler(box), 40, grid)
        ml.hellinger_pointwise(fit, 3, truth, 3, [0.1, 0.2], grid)
        # two blocks of 16 rows and one of 8 per measure, then one row each
        rows = [ml.metrics.HELLINGER_BLOCK] * 2 + [40 - 2 * ml.metrics.HELLINGER_BLOCK]
        want = [s for n in rows for K in (1, 2) for s in [(K, n, 11)] * 2] + [(3, 1, 11)] * 4
        assert shapes == want


def nan_sampler(rng, n):
    X = rng.random((n, 1))
    X[n // 2] = np.nan
    return X


class TestHellingerChecksBeforeAllocating:
    """The buffers are sized by K, so K and the inputs are checked before any
    exists: a bad one is an InvalidArgumentError, with no NumPy error."""

    @pytest.mark.parametrize("K", [0, -1, 3, 1.5])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_sparsity(self, bench_truth, K, side):
        Ks = (K, 2) if side == "a" else (2, K)
        grid = np.linspace(-30.0, 30.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ml.InvalidArgumentError, match=f"^need 1 <= K <= k, got K={K}, k=2$"):
                ml.expected_hellinger(bench_truth, Ks[0], bench_truth, Ks[1], UNIT, 20, grid)
            with pytest.raises(ml.InvalidArgumentError, match=f"^need 1 <= K <= k, got K={K}, k=2$"):
                ml.hellinger_pointwise(bench_truth, Ks[0], bench_truth, Ks[1], [0.5], grid)

    @pytest.mark.parametrize("sampler, message", [
        (nan_sampler, "^x must be finite$"),
        (lambda rng, n: rng.random((n, 2)), r"^x must have rows of dimension d=1, got shape \(20, 2\)$"),
        (lambda rng, n: rng.random((n - 1, 1)), "^the sampler drew 19 inputs, not n_mc=20$"),
    ], ids=["nan", "wrong-d", "short"])
    def test_draws(self, bench_truth, sampler, message):
        grid = np.linspace(-30.0, 30.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ml.InvalidArgumentError, match=message):
                ml.expected_hellinger(bench_truth, 2, bench_truth, 1, sampler, 20, grid)

    def test_pointwise_input(self, bench_truth):
        grid = np.linspace(-30.0, 30.0, 11)
        with pytest.raises(ml.InvalidArgumentError, match="^x must be finite$"):
            ml.hellinger_pointwise(bench_truth, 2, bench_truth, 1, [np.nan], grid)


class TestScore:
    """``score`` is each loss of a spec, called as a caller would call it."""

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_voronoi_metrics(self, renormalize):
        rng = np.random.default_rng(5)
        truth = random_measure(rng, 4, 2)
        fit = perturbed(truth, rng, 0.2)
        rb = ml.rbar_fn("conjecture")
        for metric, want in (("d1", ml.loss_d1(fit, truth, 2, renormalize=renormalize)),
                             ("d2", ml.loss_d2(fit, truth, 2, rb, renormalize=renormalize)),
                             ("d3", ml.loss_d3(fit, truth, 2, renormalize=renormalize))):
            spec = ml.LossSpec(metric=metric, rbar_policy="conjecture", renormalize=renormalize)
            assert score(spec, fit, 3, truth, 2) == want
        spec = ml.LossSpec(terms=("a", "sigma"), renormalize=renormalize)
        assert score(spec, fit, 3, truth, 2) == ml.loss_d1(fit, truth, 2, renormalize=renormalize,
                                                           terms=("a", "sigma"))

    def test_positive_mass_subsets_from_the_box_and_seed(self):
        rng = np.random.default_rng(6)
        truth = random_measure(rng, 4, 2)
        fit = perturbed(truth, rng, 0.2)
        box = [[-1.0, 1.0], [0.0, 3.0]]
        spec = ml.LossSpec(positive_mass_only=True)
        subsets = ml.positive_mass_subsets(truth, 2, ml.uniform_box_sampler(box), ml.partition.MASS_N_MC, seed=9)
        assert ml.metrics.loss_subsets(spec, truth, 2, box, seed=9) == subsets
        assert ml.metrics.loss_subsets(ml.LossSpec(), truth, 2, box, seed=9) is None
        want = ml.loss_d1(fit, truth, 2, subsets=subsets)
        assert score(spec, fit, 2, truth, 2, box, seed=9) == want
        assert score(spec, fit, 2, truth, 2, box, seed=1, subsets=subsets) == want
        # an explicit candidate list is what the outer max runs over
        assert score(spec, fit, 2, truth, 2, subsets=[(0, 3)]).argmax_subset == (0, 3)

    def test_hellinger(self):
        rng = np.random.default_rng(7)
        truth = random_measure(rng, 3, 1)
        fit = perturbed(truth, rng, 0.2)
        box = [[-1.0, 2.0]]
        spec = ml.LossSpec(metric="hellinger", hellinger_n_mc=30, y_points=401)
        grid = ml.default_y_grid(fit, truth, box, 401)
        want = ml.expected_hellinger(fit, 3, truth, 2, ml.uniform_box_sampler(box), 30, grid, seed=4)
        got = score(spec, fit, 3, truth, 2, box, seed=4)
        assert got == want and got.value == want.mean
        unit = ml.expected_hellinger(fit, 3, truth, 2, UNIT, 30, ml.default_y_grid(fit, truth, None, 401), seed=4)
        assert score(spec, fit, 3, truth, 2, seed=4) == unit

    @pytest.mark.parametrize("metric", ["d1", "d2", "d3", "hellinger"])
    def test_dimension_mismatch(self, metric):
        rng = np.random.default_rng(8)
        fit, truth = random_measure(rng, 3, 2), random_measure(rng, 2, 1)
        spec = ml.LossSpec(metric=metric, hellinger_n_mc=5, y_points=11)
        with pytest.raises(ml.InvalidArgumentError, match="^dimension mismatch: fit d=2, true d=1$"):
            score(spec, fit, 2, truth, 2)


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
