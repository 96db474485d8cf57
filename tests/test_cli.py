import json

import numpy as np
import pytest

import moelab as ml
from moelab import cli

from conftest import BOX_2D, TRUTH_2D

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

    def test_two_dimensional_round_trip(self, tmp_path, capsys):
        # a read dataset holds the library's draw, column-major as every
        # Dataset does, and writes back the same bytes
        truth = tmp_path / "truth2d.txt"
        truth.write_text(ml.measure_to_text(ml.true_measure(**TRUTH_2D)))
        out, again = tmp_path / "data.tsv", tmp_path / "again.tsv"
        code, _, _ = run(["gen", "--truth", truth, "--K", 2, "--n", 50, "--seed", 3,
                          "--bounds=-1,1;-1,1", "--out", out], capsys)
        assert code == 0
        data = cli._read_dataset(out)
        direct = ml.sample_dataset(ml.true_measure(**TRUTH_2D), 2, 50, seed=3, bounds=BOX_2D)
        assert data.x.flags.f_contiguous
        assert np.array_equal(data.x, direct.x) and np.array_equal(data.y, direct.y)
        cli._write_dataset(data, again)
        assert again.read_bytes() == out.read_bytes()

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
             "--positive-mass-only"],
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
        # --seed is the sweep's one seed
        assert rows[0].seed == ml.experiments.row_seed(5, 50, 0)
        assert out_svg.read_text().startswith("<svg")
        # plot from the CSV alone
        out_svg2 = tmp_path / "replot.svg"
        code, _, _ = run(["plot", "--csv", out_csv, "--out", out_svg2], capsys)
        assert code == 0
        assert out_svg2.read_text().startswith("<svg")

    def test_failed_fit_exits_2(self, tmp_path, monkeypatch, capsys):
        # every fit fails (a NaN expert step): the rows are still written,
        # as NaN rows, and the exit code says they failed
        monkeypatch.setattr(ml.em, "_wls_solve", lambda A, rhs: np.full(rhs.shape, np.nan))
        out_csv = tmp_path / "o.csv"
        code, out, err = run(["sweep", "--config", sweep_config(tmp_path), "--out", out_csv, "--seed", 1], capsys)
        assert (code, err) == (2, "2 fit(s) failed\n")
        assert "wrote 2 rows" in out
        assert all(np.isnan(r.loss) and r.iterations == 0 for r in ml.parse_csv(out_csv))

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
        assert {"loglik", "iterations", "converged", "reverted_experts", "reverted_gating",
                "backtracks"} <= set(summary)
        assert all(isinstance(summary[key], int) and summary[key] >= 0
                   for key in ("reverted_experts", "reverted_gating", "backtracks"))

    def test_unknown_flag_exits_nonzero(self, capsys):
        code, _, _ = run(["gen", "--nope"], capsys)
        assert code != 0


SWEEP_HEAD = {"data_k": "2", "fit_k": "2", "fit_big_k": "2", "sample_sizes": "50,100", "replicates": "1"}


def sweep_config(tmp_path, lines=""):
    """A sweep config file: ``lines``, then each required key of SWEEP_HEAD
    that ``lines`` does not set, then the truth."""
    given = {ln.split("=")[0].strip() for ln in lines.splitlines() if "=" in ln}
    head = "".join(f"{key} = {value}\n" for key, value in SWEEP_HEAD.items() if key not in given)
    path = tmp_path / "sweep.cfg"
    path.write_text(head + lines + "\n\n[truth]\n" + BENCH_TEXT)
    return path


# Each bad sweep-config line, with the error text it must produce.
BAD_SWEEP_LINES = {
    "replicates = two": "config key replicates: bad value 'two'",
    "tol = small": "config key tol: bad value 'small'",
    "renormalize = maybe": "config key renormalize: bad value 'maybe'",
    "tol = -1": "tol must be finite and > 0",
    "tol = nan": "tol must be finite and > 0",
    "y_points = 1": "y_points must be an integer >= 2",
    "hellinger_n_mc = 0": "hellinger_n_mc must be an integer >= 1",
    "mass_n_mc = 0": "unknown config key 'mass_n_mc'",
    "sample_sizes = 0,100": "sample sizes must be >= 1",
    "bounds = 1,0": "bounds must be finite with lo <= hi",
    "bounds = 0,nan": "bounds must be finite with lo <= hi",
    "data_k = 3": "need 1 <= data_K <= k, got data_K=3",
    "data_k = 0": "need 1 <= data_K <= k, got data_K=0",
    "fit_big_k = 3": "need 1 <= fit_K <= k, got fit_K=3",
    "fit_k = 1\nfit_big_k = 1": "need fit_k >= k*",
    "loss_terms = a,foo": "unknown loss terms",
    "rbar = nope": "unknown rbar policy 'nope'",
    "parallelism = 0": "parallelism must be >= 1",
    "loss_k = 1": "unknown config key 'loss_k'",
    "gatinglr = 5": "unknown config key 'gatinglr'",
    "[extra]": "unknown config section [extra]",
    "data_k = 1\ndata_k = 2": "repeated config key 'data_k'",
    "base_seed = 5": "unknown config key 'base_seed'",
    "metric = hellinger\npositive_mass_only = true": "positive_mass_only restricts D1, D2 and D3, not hellinger",
}


class TestMalformedInput:
    """Bad input ends in exit 1 and one error line, never a traceback."""

    def assert_clean_error(self, argv, capsys, match=""):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert match in err

    def assert_sweep_rejected(self, tmp_path, line, capsys):
        cfg = sweep_config(tmp_path, line)
        self.assert_clean_error(["sweep", "--config", cfg, "--out", tmp_path / "o.csv", "--seed", 1], capsys,
                                BAD_SWEEP_LINES[line])
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("text", [
        "family=gaussian d=1 k2\n-8 25 -20 15 0.3\n",  # header token without '='
        "family=gaussian d=one k=1\n-8 25 -20 15 0.3\n",  # non-integer d
        "family=gaussian d=1 k=2.5\n-8 25 -20 15 0.3\n",  # non-integer k
        "family=gaussian d=1 k=2\n-8 25 -20 15 0.3\n0 0 20 -5 wide\n",  # non-numeric value
        "family=student-t d=1 k=2 dof=inf\n-8 25 -20 15 0.3\n0 0 20 -5 0.4\n",  # retired family and key
    ])
    def test_malformed_measure(self, tmp_path, truth_file, text, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        self.assert_clean_error(["loss", "--metric", "d1", "--K", 1, "--fit", bad, "--true", truth_file], capsys)

    @pytest.mark.parametrize("head, message", [
        ("family=gaussian d=1 k=2 dfo=3", "unknown measure header key 'dfo'"),
        ("family=gaussian d=1 k=2 d=1", "repeated measure header key 'd'"),
    ], ids=["unknown", "repeated"])
    def test_measure_header_key(self, tmp_path, truth_file, head, message, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(head + "\n" + BENCH_TEXT.split("\n", 1)[1])
        self.assert_clean_error(["loss", "--metric", "d1", "--K", 1, "--fit", bad, "--true", truth_file],
                                capsys, message)

    @pytest.mark.parametrize("head, message", [
        ("family=laplace d=1 k=2", "unsupported expert family 'laplace'"),
        ("family=student-t d=1 k=2", "unsupported expert family 'student-t'"),
        ("family=gaussian d=1 k=2 dof=5", "unknown measure header key 'dof'"),
    ], ids=["laplace", "student-t", "dof"])
    @pytest.mark.parametrize("reader", ["gen", "fit", "loss", "hellinger", "partition-check", "sweep"])
    def test_retired_measure_document(self, tmp_path, truth_file, head, message, reader, capsys):
        # every command that reads a measure rejects the retired families and dof key
        bad = tmp_path / "bad.txt"
        bad.write_text(head + "\n" + BENCH_TEXT.split("\n", 1)[1])
        data = tmp_path / "d.tsv"
        data.write_text("0.1\t1.0\n0.2\t2.0\n")
        cfg = sweep_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(BENCH_TEXT, bad.read_text()))
        argv = {
            "gen": ["gen", "--truth", bad, "--K", 1, "--n", 5, "--seed", 0, "--out", tmp_path / "o.tsv"],
            "fit": ["fit", "--data", data, "--truth", bad, "--k", 2, "--K", 2, "--seed", 0,
                    "--out-measure", tmp_path / "m.txt"],
            "loss": ["loss", "--metric", "d1", "--K", 1, "--fit", truth_file, "--true", bad],
            "hellinger": ["hellinger", "--fit", bad, "--K-fit", 1, "--true", truth_file, "--K-true", 1,
                          "--seed", 0],
            "partition-check": ["partition-check", "--truth", bad, "--K", 1, "--seed", 0],
            "sweep": ["sweep", "--config", cfg, "--out", tmp_path / "o.csv", "--seed", 1],
        }[reader]
        self.assert_clean_error(argv, capsys, message)
        assert not any((tmp_path / name).exists() for name in ("o.tsv", "m.txt", "o.csv"))

    @pytest.mark.parametrize("kind", ["measure", "sweep config", "dataset"])
    def test_undecodable_file(self, tmp_path, truth_file, kind, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(BENCH_TEXT.encode() + "# caf\u00e9\n".encode("latin-1"))
        argv = {
            "measure": ["loss", "--metric", "d1", "--K", 1, "--fit", bad, "--true", truth_file],
            "sweep config": ["sweep", "--config", bad, "--out", tmp_path / "o.csv", "--seed", 1],
            "dataset": ["fit", "--data", bad, "--truth", truth_file, "--k", 2, "--K", 2, "--seed", 0,
                        "--out-measure", tmp_path / "m.txt"],
        }[kind]
        self.assert_clean_error(argv, capsys, f"cannot read {kind} {bad}")

    @pytest.mark.parametrize("line", ["replicates = two", "tol = small", "renormalize = maybe"])
    def test_bad_sweep_config_value(self, tmp_path, line, capsys):
        self.assert_sweep_rejected(tmp_path, line, capsys)

    @pytest.mark.parametrize("line", ["tol = -1", "tol = nan"])
    def test_bad_sweep_fit_setting(self, tmp_path, line, capsys):
        self.assert_sweep_rejected(tmp_path, line, capsys)

    def test_fit_tol_nan(self, tmp_path, truth_file, capsys):
        data = tmp_path / "d.tsv"
        assert run(["gen", "--truth", truth_file, "--K", 1, "--n", 50, "--seed", 0, "--out", data], capsys)[0] == 0
        self.assert_clean_error(
            ["fit", "--data", data, "--truth", truth_file, "--k", 2, "--K", 2,
             "--seed", 0, "--out-measure", tmp_path / "m.txt", "--tol", "nan"],
            capsys,
        )

    @pytest.mark.parametrize("line", ["y_points = 1", "hellinger_n_mc = 0", "mass_n_mc = 0",
                                      "sample_sizes = 0,100", "bounds = 1,0", "bounds = 0,nan"])
    def test_bad_sweep_sampling_setting(self, tmp_path, line, capsys):
        self.assert_sweep_rejected(tmp_path, line, capsys)

    @pytest.mark.parametrize("line", [
        "data_k = 3", "data_k = 0", "fit_big_k = 3", "fit_k = 1\nfit_big_k = 1",
        "loss_terms = a,foo", "rbar = nope", "parallelism = 0",
        "loss_k = 1", "gatinglr = 5", "[extra]", "data_k = 1\ndata_k = 2", "base_seed = 5",
        "metric = hellinger\npositive_mass_only = true",
    ])
    def test_sweep_setting_rejected_before_any_fit(self, tmp_path, line, capsys):
        self.assert_sweep_rejected(tmp_path, line, capsys)

    def test_sweep_truth_violating_assumptions(self, tmp_path, capsys):
        # an unpinned last component, which fails every row if it is let through
        cfg = sweep_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("0 0 20 -5 0.40000000000000002", "0.5 0 20 -5 0.4"))
        self.assert_clean_error(["sweep", "--config", cfg, "--out", tmp_path / "o.csv", "--seed", 1], capsys,
                                "assumption check failed: U.2 (last component not pinned")
        assert not (tmp_path / "o.csv").exists()

    def test_fit_degenerate_likelihood(self, tmp_path, truth_file, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("0.1\t1e308\n0.5\t1.0\n0.9\t2.0\n")
        self.assert_clean_error(
            ["fit", "--data", data, "--truth", truth_file, "--k", 2, "--K", 2, "--seed", 0,
             "--out-measure", tmp_path / "m.txt"],
            capsys, "degenerate likelihood at sample index 0")
        assert not (tmp_path / "m.txt").exists()

    def test_sweep_zero_jobs(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path)
        self.assert_clean_error(
            ["sweep", "--config", cfg, "--out", tmp_path / "o.csv", "--seed", 1, "--jobs", 0], capsys
        )
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("args", [["--K", 1, "--etas", "1e-1,x"], ["--K", 0], ["--K", 3]])
    def test_partition_check_bad_setting(self, truth_file, args, capsys):
        self.assert_clean_error(["partition-check", "--truth", truth_file, "--seed", 0, *args], capsys)

    def test_polysys_witness_beyond_m2(self, capsys):
        self.assert_clean_error(["polysys", "--m", 3, "--r", 5, "--seed", 0], capsys,
                                "the built-in constructive witness exists for m=2 only")

    @pytest.mark.parametrize("command, bounds, shown", [
        ("partition-check", "0,inf", "[[0.0, inf]]"),
        ("partition-check", "nan,1", "[[nan, 1.0]]"),
        ("loss", "0,inf", "[[0.0, inf]]"),
        ("loss --positive-mass-only", "0,inf", "[[0.0, inf]]"),
    ])
    def test_non_finite_bounds(self, truth_file, command, bounds, shown, capsys):
        # --bounds is checked whether or not a flag reads it
        loss = ["loss", "--metric", "d1", "--K", 1, "--fit", truth_file, "--true", truth_file]
        argv = {
            "partition-check": ["partition-check", "--truth", truth_file, "--K", 1, "--seed", 0],
            "loss": loss,
            "loss --positive-mass-only": [*loss, "--positive-mass-only"],
        }[command]
        self.assert_clean_error([*argv, "--bounds", bounds], capsys,
                                f"bounds must be finite with lo <= hi, got {shown}")

    def test_hellinger_negative_y_points(self, truth_file, capsys):
        self.assert_clean_error(
            ["hellinger", "--fit", truth_file, "--K-fit", 2, "--true", truth_file, "--K-true", 2,
             "--seed", 0, "--y-points", -5],
            capsys,
        )

    @pytest.mark.parametrize("metric", ["d2", "d3", "hellinger"])
    def test_loss_terms_outside_d1(self, tmp_path, metric, capsys):
        cfg = sweep_config(tmp_path, f"metric = {metric}\nloss_terms = a,b,sigma")
        self.assert_clean_error(["sweep", "--config", cfg, "--out", tmp_path / "o.csv", "--seed", 1], capsys,
                                f"loss terms restrict D1 only, not {metric}")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("bounds", ["0,x", "0,1,2", "0,1;0,1"])
    def test_bad_bounds(self, tmp_path, truth_file, bounds, capsys):
        self.assert_clean_error(
            ["gen", "--truth", truth_file, "--K", 1, "--n", 5, "--seed", 0,
             "--out", tmp_path / "d.tsv", "--bounds", bounds],
            capsys,
        )

    @pytest.mark.parametrize("text", ["0.1\t1.0\n0.2\tfoo\n", "0.1\t1.0\n0.2\n", "0.5\n0.7\n", "# no rows\n"])
    def test_malformed_tsv(self, tmp_path, truth_file, text, capsys):
        data = tmp_path / "d.tsv"
        data.write_text(text)
        self.assert_clean_error(
            ["fit", "--data", data, "--truth", truth_file, "--k", 2, "--K", 2,
             "--seed", 0, "--out-measure", tmp_path / "m.txt"],
            capsys,
        )

    @pytest.mark.parametrize("row", [
        "100,0,5,0.5,-1,3",  # a field short
        "100,0,5,0.5,-1,3,true,x",  # a field over
        "1e2,0,5,0.5,-1,3,true",  # non-integer n
        "100,0,5,small,-1,3,true",  # non-numeric loss
        "100,0,5,0.5,-1,3,yes",  # converged neither true nor false
    ])
    def test_malformed_csv(self, tmp_path, row, capsys):
        csv = tmp_path / "run.csv"
        csv.write_text(ml.experiments.CSV_HEADER + "\n100,1,6,0.25,-1,3,true\n" + row + "\n")
        self.assert_clean_error(["plot", "--csv", csv, "--out", tmp_path / "o.svg"], capsys,
                                f"{csv} line 3: bad row {row!r}")
        assert not (tmp_path / "o.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--truth", "{truth}", "--K", 1, "--n", 5, "--seed", -1, "--out", "{tmp}/d.tsv"],
        ["hellinger", "--fit", "{truth}", "--K-fit", 1, "--true", "{truth}", "--K-true", 1, "--seed", -1],
        ["partition-check", "--truth", "{truth}", "--K", 1, "--seed", -1],
        ["polysys", "--m", 2, "--r", 3, "--seed", -1],
        ["sweep", "--config", "{tmp}/sweep.cfg", "--out", "{tmp}/o.csv", "--seed", -1],
    ])
    def test_negative_seed(self, tmp_path, truth_file, argv, capsys):
        sweep_config(tmp_path)
        argv = [str(a).format(truth=truth_file, tmp=tmp_path) for a in argv]
        self.assert_clean_error(argv, capsys)
        assert not (tmp_path / "o.csv").exists()


class TestDefaults:
    """Each EM and scoring default is written once, on its dataclass; the
    CLI flags take theirs from there."""

    def test_fit_flags_default_to_the_owners(self):
        args = cli.build_parser().parse_args(
            ["fit", "--data", "d", "--truth", "t", "--k", "2", "--K", "2", "--seed", "0", "--out-measure", "m"]
        )
        fit = ml.em.FitConfig
        assert (args.noise_std, args.tol, args.max_iters, args.gating_lr, args.gating_steps) == (
            ml.em.InitSpec.noise_std, fit.tol, fit.max_iters, fit.gating_lr, fit.gating_steps_per_m)

    def test_hellinger_flags_default_to_the_owners(self):
        args = cli.build_parser().parse_args(
            ["hellinger", "--fit", "f", "--K-fit", "1", "--true", "t", "--K-true", "1", "--seed", "0"]
        )
        assert (args.n_mc, args.y_points) == (ml.LossSpec.hellinger_n_mc, ml.LossSpec.y_points)
