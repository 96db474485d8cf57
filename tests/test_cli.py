import json

import numpy as np
import pytest

import moelab as ml
from moelab import cli

BENCH_TEXT = """family=gaussian d=1 k=2
-8 25 -20 15 0.29999999999999999
0 0 20 -5 0.40000000000000002
"""


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text(BENCH_TEXT)
    return path


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


class TestGen:
    def test_writes_tsv(self, tmp_path, truth_file, capsys):
        out = tmp_path / "data.tsv"
        code, _, _ = run(
            ["gen", "--truth", truth_file, "--K", 1, "--n", 1000, "--seed", 7, "--out", out],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1000
        assert len(lines[0].split("\t")) == 2

    def test_matches_library(self, tmp_path, truth_file, capsys):
        out = tmp_path / "data.tsv"
        run(["gen", "--truth", truth_file, "--K", 1, "--n", 50, "--seed", 3, "--out", out], capsys)
        truth = ml.measure_from_text(BENCH_TEXT)
        direct = ml.sample_dataset(truth, 1, 50, seed=3)
        loaded = np.loadtxt(out, delimiter="\t")
        np.testing.assert_array_equal(loaded[:, 0], direct.x[:, 0])
        np.testing.assert_array_equal(loaded[:, 1], direct.y)

    def test_invalid_truth_names_assumption(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("family=gaussian d=1 k=1\n0.5 1 1 0 1\n")
        code, _, err = run(
            ["gen", "--truth", bad, "--K", 1, "--n", 10, "--seed", 0,
             "--out", tmp_path / "x.tsv"],
            capsys,
        )
        assert code == 1
        assert "U.2" in err


class TestLoss:
    def test_zero_at_truth(self, truth_file, capsys):
        code, out, _ = run(
            ["loss", "--metric", "d1", "--K", 1, "--fit", truth_file, "--true", truth_file],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_d2_needs_valid_rbar(self, truth_file, capsys):
        code, out, _ = run(
            ["loss", "--metric", "d2", "--K", 1, "--fit", truth_file,
             "--true", truth_file, "--rbar", "conjecture"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_positive_mass_restriction(self, tmp_path, truth_file, capsys):
        # shift the flat-gate component's weight; its selected set has zero
        # region mass under K=1, so the restricted max ignores that cell
        shifted = tmp_path / "shifted.txt"
        shifted.write_text(
            "family=gaussian d=1 k=2\n-8 25 -20 15 0.3\n0.3 0 20 -5 0.4\n"
        )
        code, out, _ = run(
            ["loss", "--metric", "d1", "--K", 1, "--fit", shifted, "--true", truth_file],
            capsys,
        )
        full = json.loads(out)["value"]
        code, out, _ = run(
            ["loss", "--metric", "d1", "--K", 1, "--fit", shifted, "--true", truth_file,
             "--positive-mass-only", "--mass-n-mc", 5000],
            capsys,
        )
        restricted = json.loads(out)["value"]
        assert code == 0
        assert full > 0.3 and restricted == 0.0


class TestHellinger:
    def test_identical_measures(self, truth_file, capsys):
        code, out, _ = run(
            ["hellinger", "--fit", truth_file, "--K-fit", 2, "--true", truth_file,
             "--K-true", 2, "--n-mc", 20, "--seed", 1],
            capsys,
        )
        assert code == 0
        mean, stderr = map(float, out.split())
        assert mean <= 1e-8 and stderr <= 1e-8


class TestPartitionCheck:
    def test_table_reaches_one(self, truth_file, capsys):
        code, out, _ = run(
            ["partition-check", "--truth", truth_file, "--K", 1,
             "--etas", "1e-2,1e-4", "--n-mc", 2000, "--seed", 5],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eta\tmatch_rate"
        rates = [float(ln.split("\t")[1]) for ln in lines[1:]]
        assert rates[-1] >= 0.999


class TestPolysys:
    def test_witness_table(self, capsys):
        code, out, _ = run(
            ["polysys", "--m", 2, "--r", 3, "--seed", 0], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eta1\teta2\tresidual"
        vals = [float(ln.split("\t")[2]) for ln in lines[1:]]
        assert max(abs(v) for v in vals) <= 1e-12

    def test_search_reports_solution(self, capsys):
        code, out, _ = run(
            ["polysys", "--m", 2, "--r", 3, "--search", "--restarts", 10, "--seed", 1],
            capsys,
        )
        assert code == 0
        assert "verified non-trivial solution" in out

    def test_search_negative_result(self, capsys):
        code, out, _ = run(
            ["polysys", "--m", 2, "--r", 4, "--search", "--restarts", 5, "--seed", 1],
            capsys,
        )
        assert code == 0
        assert "no non-trivial solution found" in out
        assert "not a proof" in out


class TestSweepAndPlot:
    def test_end_to_end(self, tmp_path, truth_file, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "data_k = 2\nfit_k = 2\nfit_big_k = 2\nsample_sizes = 50,100,200\n"
            "replicates = 2\nmax_iters = 15\n\n[truth]\n" + BENCH_TEXT
        )
        out_csv = tmp_path / "run.csv"
        out_svg = tmp_path / "run.svg"
        code, out, _ = run(
            ["sweep", "--config", cfg, "--out", out_csv, "--plot", out_svg, "--seed", 5],
            capsys,
        )
        assert code == 0
        assert "slope" in out
        rows = ml.parse_csv(out_csv)
        assert len(rows) == 6
        assert out_svg.read_text().startswith("<svg")
        # plot from the CSV alone
        out_svg2 = tmp_path / "replot.svg"
        code, _, _ = run(["plot", "--csv", out_csv, "--out", out_svg2], capsys)
        assert code == 0
        assert out_svg2.read_text().startswith("<svg")

    def test_byte_identical_across_jobs(self, tmp_path, truth_file, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "data_k = 2\nfit_k = 2\nfit_big_k = 2\nsample_sizes = 50,100\n"
            "replicates = 2\nmax_iters = 10\n\n[truth]\n" + BENCH_TEXT
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--config", cfg, "--out", a, "--seed", 9, "--jobs", 1], capsys)
        run(["sweep", "--config", cfg, "--out", b, "--seed", 9, "--jobs", 8], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestFitCommand:
    def test_fit_writes_measure_and_summary(self, tmp_path, truth_file, capsys):
        data = tmp_path / "d.tsv"
        run(["gen", "--truth", truth_file, "--K", 2, "--n", 400, "--seed", 2, "--out", data], capsys)
        out_m = tmp_path / "fit.txt"
        out_s = tmp_path / "fit.json"
        code, out, _ = run(
            ["fit", "--data", data, "--truth", truth_file, "--k", 2, "--K", 2,
             "--seed", 4, "--max-iters", 20, "--out-measure", out_m, "--out-summary", out_s],
            capsys,
        )
        assert code == 0
        fitted = ml.measure_from_text(out_m.read_text())
        assert fitted.k == 2
        summary = json.loads(out_s.read_text())
        assert {"loglik", "iterations", "converged"} <= set(summary)

    def test_unknown_flag_exits_nonzero(self, capsys):
        code, _, _ = run(["gen", "--nope"], capsys)
        assert code != 0


SWEEP_HEAD = "data_k = 2\nfit_k = 2\nfit_big_k = 2\nsample_sizes = 50,100\nreplicates = 1\n"


class TestMalformedInput:
    """Bad input ends in exit 1 and one error line, never a traceback."""

    def assert_clean_error(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "family=gaussian d=1 k2\n-8 25 -20 15 0.3\n",  # header token without '='
        "family=gaussian d=one k=1\n-8 25 -20 15 0.3\n",  # non-integer d
        "family=gaussian d=1 k=2.5\n-8 25 -20 15 0.3\n",  # non-integer k
        "family=gaussian d=1 k=2\n-8 25 -20 15 0.3\n0 0 20 -5 wide\n",  # non-numeric value
    ])
    def test_malformed_measure(self, tmp_path, truth_file, text, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        self.assert_clean_error(["loss", "--metric", "d1", "--K", 1, "--fit", bad, "--true", truth_file], capsys)

    @pytest.mark.parametrize("line", ["replicates = two", "tol = small", "renormalize = maybe"])
    def test_bad_sweep_config_value(self, tmp_path, line, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_HEAD + line + "\n\n[truth]\n" + BENCH_TEXT)
        self.assert_clean_error(["sweep", "--config", cfg, "--out", tmp_path / "o.csv", "--seed", 1], capsys)

    @pytest.mark.parametrize("bounds", ["0,x", "0,1,2", "0,1;0,1"])
    def test_bad_bounds(self, tmp_path, truth_file, bounds, capsys):
        self.assert_clean_error(
            ["gen", "--truth", truth_file, "--K", 1, "--n", 5, "--seed", 0,
             "--out", tmp_path / "d.tsv", "--bounds", bounds],
            capsys,
        )

    @pytest.mark.parametrize("text", ["0.1\t1.0\n0.2\tfoo\n", "0.1\t1.0\n0.2\n", "0.5\n0.7\n"])
    def test_malformed_tsv(self, tmp_path, truth_file, text, capsys):
        data = tmp_path / "d.tsv"
        data.write_text(text)
        self.assert_clean_error(
            ["fit", "--data", data, "--truth", truth_file, "--k", 2, "--K", 2,
             "--seed", 0, "--out-measure", tmp_path / "m.txt"],
            capsys,
        )

    @pytest.mark.parametrize("argv", [
        ["gen", "--truth", "{truth}", "--K", 1, "--n", 5, "--seed", -1, "--out", "{tmp}/d.tsv"],
        ["hellinger", "--fit", "{truth}", "--K-fit", 1, "--true", "{truth}", "--K-true", 1, "--seed", -1],
        ["partition-check", "--truth", "{truth}", "--K", 1, "--seed", -1],
        ["polysys", "--m", 2, "--r", 3, "--seed", -1],
        ["loss", "--metric", "d1", "--K", 1, "--fit", "{truth}", "--true", "{truth}",
         "--positive-mass-only", "--mass-seed", -1],
    ])
    def test_negative_seed(self, tmp_path, truth_file, argv, capsys):
        argv = [str(a).format(truth=truth_file, tmp=tmp_path) for a in argv]
        self.assert_clean_error(argv, capsys)
