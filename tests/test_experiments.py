import math
from dataclasses import replace

import numpy as np
import pytest

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

    def test_per_row_variant(self):
        slope, _, _ = ex.fit_slope(synthetic_rows(-0.5), per_row=True)
        assert slope == pytest.approx(-0.5, abs=1e-12)


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

    def test_rescore_under_same_loss_reproduces(self, tiny_cfg):
        result = ex.run_sweep(tiny_cfg)
        rescored = ex.rescore_rows(tiny_cfg, result.rows, tiny_cfg.loss)
        assert [r.loss for r in rescored] == [r.loss for r in result.rows]

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
        res = ex.SweepResult(rows=(), slope=np.nan, slope_stderr=np.nan, intercept=np.nan)
        path = tmp_path / "empty.csv"
        ex.emit_csv(res, path)
        assert path.read_text() == ex.CSV_HEADER + "\n"

    def test_round_trip_identity(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5, sizes=(10, 100), reps=2))
        res = ex.SweepResult(rows=rows, slope=-0.5, slope_stderr=0.0, intercept=0.0)
        path = tmp_path / "x.csv"
        ex.emit_csv(res, path)
        assert ex.parse_csv(path) == rows

    def test_round_trip_with_timing(self, tmp_path):
        rows = (
            ex.SweepRow(n=10, replicate=0, seed=1, loss=0.5, loglik=-1.0,
                        iterations=3, converged=False, wallclock_ms=12.25),
        )
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan, intercept=np.nan)
        path = tmp_path / "t.csv"
        ex.emit_csv(res, path)
        assert ex.parse_csv(path) == rows

    def test_two_by_two_has_four_rows(self, tmp_path):
        rows = tuple(synthetic_rows(-1.0, sizes=(10, 100), reps=2))
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan, intercept=np.nan)
        path = tmp_path / "y.csv"
        ex.emit_csv(res, path)
        assert len(path.read_text().splitlines()) == 5

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
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan, intercept=np.nan)
        path = tmp_path / "z.csv"
        ex.emit_csv(res, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.33333333333333331" in raw


class TestSvg:
    def test_power_law_line_hits_markers(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5))
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan, intercept=np.nan)
        path = tmp_path / "p.svg"
        ex.emit_svg_loglog(res, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "slope = -0.500" in text
        assert text.count("<circle") == 3

    def test_single_n_requires_flag(self, tmp_path):
        rows = tuple(synthetic_rows(-0.5, sizes=(100,)))
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan, intercept=np.nan)
        with pytest.raises(ml.InsufficientDataError):
            ex.emit_svg_loglog(res, tmp_path / "no.svg")
        ex.emit_svg_loglog(res, tmp_path / "ok.svg", allow_no_fit=True)
        text = (tmp_path / "ok.svg").read_text()
        assert "<circle" in text
        assert "slope" not in text

    def test_self_contained(self, tmp_path):
        rows = tuple(synthetic_rows(-1.0))
        res = ex.SweepResult(rows=rows, slope=np.nan, slope_stderr=np.nan, intercept=np.nan)
        path = tmp_path / "s.svg"
        ex.emit_svg_loglog(res, path)
        text = path.read_text()
        assert "http://www.w3.org/2000/svg" in text
        assert "href" not in text  # no external assets


class TestConfigDocument:
    def test_round_trip(self, tiny_cfg):
        text = ex.sweep_config_to_text(tiny_cfg)
        cfg2 = ex.parse_sweep_config(text)
        assert cfg2.sample_sizes == tiny_cfg.sample_sizes
        assert cfg2.loss == tiny_cfg.loss
        assert np.array_equal(cfg2.truth.beta1, tiny_cfg.truth.beta1)
        assert cfg2.base_seed == tiny_cfg.base_seed

    def test_missing_truth_rejected(self):
        with pytest.raises(ml.InvalidArgumentError):
            ex.parse_sweep_config("data_k = 1\nfit_k = 2\n")

    def test_missing_keys_named(self, bench_truth):
        text = "[truth]\n" + ml.measure_to_text(bench_truth)
        with pytest.raises(ml.InvalidArgumentError, match="data_k"):
            ex.parse_sweep_config(text)
