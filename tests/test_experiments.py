import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import moelab as ml
from moelab import experiments as ex


def synthetic_rows(power, coef=1.0, sizes=(100, 1000, 10000), reps=3):
    rows = []
    for n in sizes:
        for rep in range(reps):
            rows.append(
                ex.SweepRow(
                    n=n, replicate=rep, seed=rep, loss=coef * n**power,
                    loglik=-1.0, iterations=5, converged=True,
                )
            )
    return rows


@pytest.fixture
def tiny_cfg(bench_truth):
    return ex.SweepConfig(
        truth=bench_truth,
        data_K=2,
        fit_k=2,
        fit_K=2,
        sample_sizes=(60, 120, 240),
        replicates=2,
        base_seed=11,
        loss=ex.LossSpec(metric="d1"),
        max_iters=25,
    )


class TestFitSlope:
    def test_exact_inverse_sqrt(self):
        slope, stderr, _ = ex.fit_slope(synthetic_rows(-0.5))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_coefficient_in_intercept(self):
        slope, _, intercept = ex.fit_slope(synthetic_rows(-1.0, coef=3.0))
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_power_recovery_tight(self):
        for p in (-0.25, -0.5, -1.5):
            slope, _, _ = ex.fit_slope(synthetic_rows(p))
            assert slope == pytest.approx(p, abs=1e-10)

    def test_nonpositive_losses_excluded(self):
        rows = synthetic_rows(-0.5) + [
            ex.SweepRow(n=5, replicate=0, seed=0, loss=0.0, loglik=0.0, iterations=1, converged=True)
        ]
        slope, _, _ = ex.fit_slope(rows)
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(ml.InsufficientDataError):
            ex.fit_slope(synthetic_rows(-0.5, sizes=(100, 1000)))

    def test_overflowing_statistics_are_inf(self):
        # finite losses whose mean or std passes the largest float: inf, with
        # no NumPy warning (an error under tier-1's filter), and the slope
        # drops the infinite mean
        rows = synthetic_rows(-0.5, sizes=(100, 1000, 10000, 100000))
        rows += [ex.SweepRow(n=5, replicate=rep, seed=rep, loss=loss, loglik=-1.0, iterations=1, converged=True)
                 for rep, loss in enumerate((1e308, 1.5e308))]
        rows += [ex.SweepRow(n=7, replicate=rep, seed=rep, loss=loss, loglik=-1.0, iterations=1, converged=True)
                 for rep, loss in enumerate((1e160, 3e160))]
        ns, means, stds = ex.mean_loss_by_n(rows)
        assert ns.tolist()[:2] == [5, 7]
        assert means[0] == math.inf and stds[0] == math.inf
        assert means[1] == pytest.approx(2e160) and stds[1] == math.inf
        assert ex.fit_slope(rows) == ex.fit_slope([r for r in rows if r.n != 5])


class TestRunSweep:
    def test_zero_iteration_truth_init_gives_zero_loss(self, bench_truth):
        cfg = ex.SweepConfig(
            truth=bench_truth, data_K=2, fit_k=2, fit_K=2,
            sample_sizes=(100,), replicates=1, base_seed=0,
            noise_std=0.0, max_iters=0,
        )
        result = ex.run_sweep(cfg)
        assert len(result.rows) == 1
        assert result.rows[0].loss == 0.0

    def test_row_counts_and_seed_stability(self, tiny_cfg):
        result = ex.run_sweep(tiny_cfg)
        assert len(result.rows) == 6
        # seeds are a pure function of (base_seed, n, replicate)
        assert result.rows[0].seed == ex.row_seed(11, 60, 0)
        # adding a sample size never reshuffles existing replicates
        bigger = replace(tiny_cfg, sample_sizes=(60, 120, 240, 480))
        res2 = ex.run_sweep(bigger)
        assert [r.seed for r in res2.rows[:6]] == [r.seed for r in result.rows]
        assert [r.loss for r in res2.rows[:6]] == [r.loss for r in result.rows]

    def test_parallelism_invariance(self, tiny_cfg):
        r1 = ex.run_sweep(tiny_cfg)
        r8 = ex.run_sweep(replace(tiny_cfg, parallelism=8))
        assert [r.loss for r in r1.rows] == [r.loss for r in r8.rows]
        assert r1.slope == r8.slope

    def test_failed_rows_keep_their_reason(self, tiny_cfg, tmp_path):
        # a jitter of 1000 overflows both rows' scales: NaN rows that name
        # the cause, with no NumPy warning (tier-1 makes one an error)
        cfg = replace(tiny_cfg, sample_sizes=(50, 100), replicates=1, base_seed=0, noise_std=1000.0)
        result = ex.run_sweep(cfg)
        assert result.n_failures == 2
        for row in result.rows:
            assert math.isnan(row.loss) and row.measure is None
            assert row.error.startswith("sigma must be finite, got [inf, ")
        # the reason stays out of the CSV
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ex.emit_csv(result, a)
        ex.emit_csv(replace(result, rows=tuple(replace(r, error=None) for r in result.rows)), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("metric, fit_k, noise_std, base_seed", [("d1", 2, 1000.0, 3), ("d3", 3, 300.0, 4)])
    def test_overflowing_loss_is_a_failed_row(self, tiny_cfg, metric, fit_k, noise_std, base_seed):
        # the n = 50 fit converges with beta0 near 1e3: exp(beta0) overflows,
        # and at D3 so does a squared distance.  An infinite loss, a failed
        # row with no NumPy warning (an error under tier-1's filter) and no
        # OverflowError
        cfg = replace(tiny_cfg, sample_sizes=(50, 100), replicates=1, base_seed=base_seed, fit_k=fit_k,
                      noise_std=noise_std, max_iters=5, loss=ex.LossSpec(metric=metric))
        result = ex.run_sweep(cfg)
        row = result.rows[0]
        assert row.loss == math.inf and row.error is None and row.measure is not None
        assert result.n_failures >= 1

    def test_rescore_under_same_loss_reproduces(self, tiny_cfg):
        result = ex.run_sweep(tiny_cfg)
        rescored = ex.rescore_rows(tiny_cfg, result.rows, tiny_cfg.loss)
        assert [r.loss for r in rescored] == [r.loss for r in result.rows]

    def test_rescore_keeps_a_failed_row_failed(self, tiny_cfg):
        # a failed fit has no measure to score
        failed = ex.SweepRow(n=60, replicate=0, seed=1, loss=math.nan, loglik=math.nan,
                             iterations=0, converged=False)
        (row,) = ex.rescore_rows(tiny_cfg, (failed,), ex.LossSpec(metric="d3"))
        assert math.isnan(row.loss) and row.measure is None

    @pytest.mark.parametrize("metric", ["d1", "d2", "d3"])
    def test_one_loss_call_per_fitted_row(self, tiny_cfg, metric, monkeypatch):
        # the benchmark times a row from its data draw to the next loss_d*
        # call it finds on moelab.metrics, so each fitted row makes one
        calls = []
        for name in ("loss_d1", "loss_d2", "loss_d3"):
            fn = getattr(ml.metrics, name)
            monkeypatch.setattr(ml.metrics, name,
                                lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
        result = ex.run_sweep(replace(tiny_cfg, loss=ex.LossSpec(metric=metric)))
        fitted = [r for r in result.rows if r.measure is not None]
        assert len(fitted) == 6 and calls == [f"loss_{metric}"] * 6

    def test_hellinger_metric_runs(self, bench_truth):
        cfg = ex.SweepConfig(
            truth=bench_truth, data_K=2, fit_k=2, fit_K=2,
            sample_sizes=(80,), replicates=1, base_seed=3,
            loss=ex.LossSpec(metric="hellinger", hellinger_n_mc=40, y_points=801),
            max_iters=15,
        )
        result = ex.run_sweep(cfg)
        assert 0.0 <= result.rows[0].loss <= 1.0


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        res = ex.SweepResult(rows=(), slope=np.nan, slope_stderr=np.nan)
        path = tmp_path / "empty.csv"
        ex.emit_csv(res, path)
        assert path.read_text() == ex.CSV_HEADER + "\n"

    def test_round_trip_identity(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5, sizes=(10, 100), reps=2))
        res = ex.SweepResult(rows=rows, slope=-0.5, slope_stderr=0.0)
        path = tmp_path / "x.csv"
        ex.emit_csv(res, path)
        assert ex.parse_csv(path) == rows

    def test_two_by_two_has_four_rows(self, tmp_path):
        rows = tuple(synthetic_rows(-1.0, sizes=(10, 100), reps=2))
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan)
        path = tmp_path / "y.csv"
        ex.emit_csv(res, path)
        assert len(path.read_text().splitlines()) == 5

    def test_blank_lines_skipped(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5, sizes=(10, 100), reps=1))
        path = tmp_path / "x.csv"
        ex.emit_csv(ex.SweepResult(rows=rows, slope=-0.5, slope_stderr=0.0), path)
        head, first, second = path.read_text().splitlines()
        path.write_text(f"{head}\n\n{first}\n\n{second}\n\n")
        assert ex.parse_csv(path) == rows

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,loss\n1,2\n")
        with pytest.raises(ml.InvalidArgumentError):
            ex.parse_csv(path)

    def test_lf_endings_and_17_digits(self, tmp_path):
        rows = (
            ex.SweepRow(n=10, replicate=0, seed=1, loss=1.0 / 3.0, loglik=-0.1,
                        iterations=3, converged=True),
        )
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan)
        path = tmp_path / "z.csv"
        ex.emit_csv(res, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.33333333333333331" in raw


class TestSvg:
    def test_power_law_line_hits_markers(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5))
        path = tmp_path / "p.svg"
        ex.emit_svg_loglog(rows, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "slope = -0.500" in text
        assert text.count("<circle") == 3

    def test_single_n_requires_flag(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5, sizes=(100,)))
        with pytest.raises(ml.InsufficientDataError):
            ex.emit_svg_loglog(rows, tmp_path / "no.svg")
        ex.emit_svg_loglog(rows, tmp_path / "ok.svg", allow_no_fit=True)
        text = (tmp_path / "ok.svg").read_text()
        assert "<circle" in text
        assert "slope" not in text

    def test_no_positive_mean_rejected(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5, coef=0.0))
        with pytest.raises(ml.InsufficientDataError, match="no positive mean losses to plot"):
            ex.emit_svg_loglog(rows, tmp_path / "no.svg", allow_no_fit=True)
        assert not (tmp_path / "no.svg").exists()

    def test_equal_means_pad_a_flat_y_range(self, tmp_path):
        # equal losses at every n: the y range is padded to one decade, and
        # every marker lands mid-plot
        rows = tuple(synthetic_rows(0.0, coef=2.0))
        path = tmp_path / "flat.svg"
        ex.emit_svg_loglog(rows, path)
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        assert text.count('cy="240.00"') == 3

    def test_infinite_std_bar_runs_to_the_top_edge(self, tmp_path):
        # n = 1000's std overflows: its bar runs from the bottom edge (a
        # non-positive lower end) to the top edge, and the y range is taken
        # from the finite values only
        rows = synthetic_rows(-0.5, reps=1) + [
            ex.SweepRow(n=1000, replicate=rep, seed=rep, loss=loss, loglik=-1.0, iterations=1, converged=True)
            for rep, loss in ((1, 1e160), (2, 3e160))]
        path = tmp_path / "inf.svg"
        ex.emit_svg_loglog(rows, path)
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        assert 'y1="64.00"' in text and text.count('y2="416.00"') == 1
        assert text.count("<circle") == 3

    def test_self_contained(self, tmp_path):
        rows = tuple(synthetic_rows(-1.0))
        path = tmp_path / "s.svg"
        ex.emit_svg_loglog(rows, path)
        text = path.read_text()
        assert "http://www.w3.org/2000/svg" in text
        assert "href" not in text  # no external assets


def assert_same_config(got, want):
    """Every SweepConfig field equal; arrays and the truth compared exactly."""
    for f in fields(ex.SweepConfig):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "truth":
            assert ml.measure_to_text(a) == ml.measure_to_text(b)
        elif f.name == "bounds":
            assert np.array_equal(a, b)
        else:
            assert a == b, f.name


TRUTHS = (
    ml.true_measure(beta0=[-8.0, 0.0], beta1=[[25.0], [0.0]], a=[[-20.0], [20.0]],
                    b=[15.0, -5.0], sigma=[0.3, 0.4]),
    ml.true_measure(beta0=[0.5, 0.0], beta1=[[1.0, -2.0], [0.0, 0.0]],
                    a=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 1.0], sigma=[0.5, 1.0]),
)


@st.composite
def sweep_configs(draw):
    truth = draw(st.sampled_from(TRUTHS))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    positive = st.floats(1e-12, 1e3, allow_nan=False)
    metric = draw(st.sampled_from(ex.METRICS))
    lows = draw(arrays(float, truth.d, elements=finite))
    loss = ex.LossSpec(
        metric=metric,
        rbar_policy=draw(st.sampled_from(("exact", "conjecture"))),
        renormalize=draw(st.booleans()),
        terms=draw(st.none() | st.sampled_from((("a",), ("b", "sigma")))) if metric == "d1" else None,
        positive_mass_only=draw(st.booleans()) if metric != "hellinger" else False,
        hellinger_n_mc=draw(st.integers(1, 10**4)),
        y_points=draw(st.integers(2, 10**4)),
    )
    sizes = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=5)))
    fit_k = draw(st.integers(truth.k, 6))
    return ex.SweepConfig(
        truth=truth, data_K=draw(st.integers(1, truth.k)), fit_k=fit_k,
        fit_K=draw(st.integers(1, fit_k)), sample_sizes=tuple(sizes),
        replicates=draw(st.integers(1, 50)), loss=loss, noise_std=draw(positive), tol=draw(positive),
        max_iters=draw(st.integers(1, 10**5)), gating_lr=draw(positive),
        gating_steps_per_m=draw(st.integers(1, 20)),
        bounds=np.column_stack([lows, lows + draw(arrays(float, truth.d, elements=positive))]),
    )


class TestSamplingSettings:
    """Bad Monte-Carlo and box settings fail when the config is made, before
    any fit."""

    @pytest.mark.parametrize("setting", [
        dict(y_points=1), dict(y_points=-5), dict(y_points=2.5),
        dict(hellinger_n_mc=0), dict(rbar_policy="nope"),
        dict(metric="d1", terms=("a", "foo")), dict(metric="l2"),
        dict(positive_mass_only=True),  # Hellinger has no outer max to restrict
    ])
    def test_loss_spec_rejects(self, setting):
        with pytest.raises(ml.InvalidArgumentError):
            ex.LossSpec(**{"metric": "hellinger", **setting})

    @pytest.mark.parametrize("setting", [
        dict(sample_sizes=(0, 100)),
        dict(bounds=[[1.0, 0.0]]), dict(bounds=[[0.0, math.nan]]), dict(bounds=[[-math.inf, 1.0]]),
        dict(bounds=[[0.0, 1.0], [0.0, 1.0]]), dict(bounds=[0.0, 1.0, 2.0]),
        # each of these would otherwise fail every row, not the config
        dict(data_K=3), dict(data_K=0), dict(fit_K=3), dict(fit_k=1, fit_K=1), dict(parallelism=0),
        dict(sample_sizes=(100, 100)), dict(sample_sizes=(100, 50)), dict(sample_sizes=()), dict(replicates=0),
        dict(noise_std=-1.0), dict(noise_std=math.nan), dict(noise_std=math.inf),
    ])
    def test_sweep_config_rejects(self, tiny_cfg, setting):
        with pytest.raises(ml.InvalidArgumentError):
            replace(tiny_cfg, **setting)

    @pytest.mark.parametrize("rows, violation", [
        ("-8 25 -20 15 0.3\n0.5 0 20 -5 0.4", "U.2"),
        ("-8 25 20 -5 0.4\n0 0 20 -5 0.4", "U.3"),
        ("-8 0 -20 15 0.3\n0 0 20 -5 0.4", "U.4"),
    ], ids=["unpinned", "equal-experts", "flat-gate"])
    def test_truth_checked_before_any_fit(self, tiny_cfg, rows, violation):
        head = ex.sweep_config_to_text(tiny_cfg).split("[truth]")[0]
        with pytest.raises(ml.AssumptionError) as err:
            ex.parse_sweep_config(head + "[truth]\nfamily=gaussian d=1 k=2\n" + rows + "\n")
        assert [v[:3] for v in err.value.violations] == [violation]


class TestConfigDocument:
    def test_round_trip(self, tiny_cfg):
        cfg = replace(
            tiny_cfg,
            loss=ex.LossSpec(metric="d1", rbar_policy="conjecture", renormalize=True,
                             terms=("a", "b"), positive_mass_only=True, hellinger_n_mc=17, y_points=33),
            noise_std=0.125, tol=3e-7, max_iters=77, gating_lr=0.3, gating_steps_per_m=2,
            bounds=[[-1.0, 1.0]], base_seed=ex.SweepConfig.base_seed, parallelism=ex.SweepConfig.parallelism,
        )
        assert_same_config(ex.parse_sweep_config(ex.sweep_config_to_text(cfg)), cfg)

    @given(sweep_configs())
    def test_round_trip_property(self, cfg):
        assert_same_config(ex.parse_sweep_config(ex.sweep_config_to_text(cfg)), cfg)

    def test_bounds_checked_against_truth(self, tiny_cfg):
        text = ex.sweep_config_to_text(tiny_cfg).replace("bounds = 0,1", "bounds = 0,1;0,1")
        with pytest.raises(ml.InvalidArgumentError, match="per dimension"):
            ex.parse_sweep_config(text)

    def test_missing_truth_rejected(self):
        with pytest.raises(ml.InvalidArgumentError):
            ex.parse_sweep_config("data_k = 1\nfit_k = 2\n")

    def test_every_written_key_accepted(self, tiny_cfg):
        text = ex.sweep_config_to_text(replace(tiny_cfg, loss=ex.LossSpec(terms=("a",))))
        keys = {line.split("=")[0].strip() for line in text.split("[truth]")[0].splitlines() if line}
        assert "loss_terms" in keys and len(keys) == 18
        ex.parse_sweep_config(text)

    @pytest.mark.parametrize("line, key", [
        ("loss_k = 1", "loss_k"), ("mass_n_mc = 5000", "mass_n_mc"), ("gatinglr = 5", "gatinglr"),
        ("parallelism = 2", "parallelism"),
        ("[extra]", "extra"),
    ])
    def test_unknown_key_or_section_rejected(self, tiny_cfg, line, key):
        # the whole message, so that a "repeated config key" error cannot pass
        text = line + "\n" + ex.sweep_config_to_text(tiny_cfg)
        message = rf"unknown config section \[{key}\]" if line.startswith("[") else f"unknown config key '{key}'"
        with pytest.raises(ml.InvalidArgumentError, match=f"^{message}$"):
            ex.parse_sweep_config(text)

    def test_repeated_key_rejected(self, tiny_cfg):
        text = "data_k = 1\n" + ex.sweep_config_to_text(tiny_cfg)
        with pytest.raises(ml.InvalidArgumentError, match="repeated config key 'data_k'"):
            ex.parse_sweep_config(text)

    def test_required_keys_alone_take_the_dataclass_defaults(self, bench_truth):
        text = ("data_k = 2\nfit_k = 3\nfit_big_k = 2\nsample_sizes = 10, 20\nreplicates = 4\n\n[truth]\n"
                + ml.measure_to_text(bench_truth))
        want = ex.SweepConfig(truth=bench_truth, data_K=2, fit_k=3, fit_K=2, sample_sizes=(10, 20), replicates=4)
        assert_same_config(ex.parse_sweep_config(text), want)

    def test_written_key_order(self, tiny_cfg):
        text = ex.sweep_config_to_text(replace(tiny_cfg, loss=ex.LossSpec(terms=("a",))))
        keys = [line.split("=")[0].strip() for line in text.split("[truth]")[0].splitlines() if line]
        assert keys == [
            "data_k", "fit_k", "fit_big_k", "sample_sizes", "replicates", "metric", "rbar",
            "renormalize", "positive_mass_only", "hellinger_n_mc", "y_points", "noise_std", "tol",
            "max_iters", "gating_lr", "gating_steps_per_m", "bounds", "loss_terms",
        ]

    def test_missing_keys_named(self, bench_truth):
        text = "[truth]\n" + ml.measure_to_text(bench_truth)
        with pytest.raises(ml.InvalidArgumentError, match="data_k"):
            ex.parse_sweep_config(text)
