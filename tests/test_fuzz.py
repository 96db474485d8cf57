"""Every text reader either parses a document or raises a MoeError, never
another exception or a warning: derandomized hypothesis fuzzing of the
measure reader, the sweep-config reader, the sweep-CSV reader and the CLI's
TSV dataset reader.  Documents are arbitrary text, token soup, or a valid
document with a few characters inserted, deleted or replaced.  A stress
sweep whose fits overflow checks the same of ``moelab sweep --plot``."""

import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moelab as ml
from moelab import cli

MEASURE = "family=gaussian d=1 k=2\n-8 25 -20 15 0.3\n0 0 20 -5 0.4\n"
SWEEP = ("data_k = 2\nfit_k = 2\nfit_big_k = 2\nsample_sizes = 100, 316\nreplicates = 2\n"
         "metric = d1\nbounds = 0,1\nloss_terms = a,b\n\n[truth]\n" + MEASURE)
CSV = ml.experiments.CSV_HEADER + "\n100,0,5,0.5,-1,3,true\n316,1,6,0.25,-1.5,4,false\n"
TSV = "0.1\t1.0\n0.2\t2.0\n0.3\t-1.5\n"

# characters and tokens that the readers give meaning to, and a few they do not
CHARS = "0123456789.-+eE=,;:\t \n\r#[]_adfgiklnrstuxyé٣"
TOKENS = ["family=gaussian", "family=laplace", "d=1", "d=2", "d=0", "k=1", "k=2", "k=-1", "k=2.5",
          "dof=5", "=", "d=", "[truth]", "[extra]", "data_k", "fit_k", "fit_big_k", "sample_sizes",
          "replicates", "bounds", "metric", "d1", "hellinger", "true", "false", ",", ";", "\t",
          "0", "1", "-8", "25", "0.3", "1e400", "nan", "inf", "-inf", "x", "#", "\n"]


@st.composite
def edited(draw, base):
    """``base`` with up to six characters inserted, deleted or replaced."""
    text = list(base)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text.insert(at, draw(st.sampled_from(CHARS)))
        elif at < len(text):
            if op == "delete":
                del text[at]
            else:
                text[at] = draw(st.sampled_from(CHARS))
    return "".join(text)


def documents(base):
    lines = st.lists(st.sampled_from(TOKENS), max_size=8).map(" ".join)
    return st.one_of(st.text(max_size=200), st.lists(lines, max_size=8).map("\n".join), edited(base))


def parses_or_moe_error(read, text):
    # a warning would print a second stderr line beside the CLI's error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(text)
        except ml.MoeError:
            pass


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.txt"


def from_file(read, path):
    """``read`` of a path, as a reader of the text written there."""
    def read_text(text):
        path.write_bytes(text.encode("utf-8"))
        return read(path)
    return read_text


@settings(max_examples=200)
@given(text=documents(MEASURE))
def test_measure_reader(text):
    parses_or_moe_error(ml.measure_from_text, text)


@settings(max_examples=200)
@given(text=documents(SWEEP))
def test_sweep_config_reader(text):
    parses_or_moe_error(ml.parse_sweep_config, text)


@settings(max_examples=200)
@given(text=documents(CSV))
def test_csv_reader(doc_path, text):
    parses_or_moe_error(from_file(ml.parse_csv, doc_path), text)


@settings(max_examples=200)
@given(text=documents(TSV))
def test_tsv_dataset_reader(doc_path, text):
    parses_or_moe_error(from_file(cli._read_dataset, doc_path), text)


@pytest.mark.parametrize("reader, base", [("measure", MEASURE), ("sweep", SWEEP), ("csv", CSV), ("tsv", TSV)])
def test_valid_bases_parse(doc_path, reader, base):
    # the documents the fuzzing edits are themselves valid
    read = {"measure": ml.measure_from_text, "sweep": ml.parse_sweep_config,
            "csv": from_file(ml.parse_csv, doc_path), "tsv": from_file(cli._read_dataset, doc_path)}[reader]
    assert read(base) is not None


# A jitter of 400 sends fits to parameters near 1e2-1e3: losses past 1e160,
# whose per-n std overflows, exp(beta0) overflows, degenerate likelihoods and
# scales outside the floats, depending on the seed.
OVERFLOW_SWEEP = ("data_k = 1\nfit_k = 2\nfit_big_k = 1\nsample_sizes = 50,100,200\nreplicates = 2\n"
                  "metric = d1\nnoise_std = 400\nmax_iters = 3\n\n[truth]\n" + MEASURE)


@pytest.mark.parametrize("seed", range(6))
def test_overflowing_sweep_and_plot(tmp_path, capsys, seed):
    # exit 0 or 2 with one reason line per failed row; a warning would escape
    # main as an exception
    cfg, csv = tmp_path / "sweep.cfg", tmp_path / "o.csv"
    cfg.write_text(OVERFLOW_SWEEP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(csv), "--plot", str(tmp_path / "o.svg"),
                         "--seed", str(seed)])
    _, err = capsys.readouterr()
    failed = [r for r in ml.parse_csv(csv) if not math.isfinite(r.loss)]
    assert code == (2 if failed else 0)
    assert "Warning" not in err and "Traceback" not in err
    lines = err.splitlines()
    assert [ln.split(": ")[0] for ln in lines[:len(failed)]] == [f"n={r.n} replicate={r.replicate}" for r in failed]
    assert lines[len(failed):] == ([f"{len(failed)} fit(s) failed"] if failed else [])


# The README truth, and the same truth with one parameter block at 1e308; the
# last component stays pinned at beta0 = 0, beta1 = 0.
EXTREME_MEASURES = {
    "truth": MEASURE,
    "a": "family=gaussian d=1 k=2\n-8 25 1e308 15 0.3\n0 0 -1e308 -5 0.4\n",
    "b-sigma": "family=gaussian d=1 k=2\n-8 25 -20 1e308 1e308\n0 0 20 -5 0.4\n",
    "beta0": "family=gaussian d=1 k=2\n1e308 25 -20 15 0.3\n0 0 20 -5 0.4\n",
    "beta1": "family=gaussian d=1 k=2\n-8 1e308 -20 15 0.3\n0 0 20 -5 0.4\n",
}
EXTREME_COMMANDS = {
    "gen": ["gen", "--truth", "{m}", "--K", "1", "--n", "200", "--seed", "1", "--out", "{tmp}/data.tsv"],
    "loss-d2": ["loss", "--metric", "d2", "--K", "1", "--fit", "{m}", "--true", "{m}"],
    "loss-d1-mass": ["loss", "--metric", "d1", "--K", "1", "--fit", "{m}", "--true", "{m}",
                     "--positive-mass-only", "--renormalize"],
    "hellinger": ["hellinger", "--fit", "{m}", "--K-fit", "1", "--true", "{m}", "--K-true", "1",
                  "--n-mc", "20", "--y-points", "201", "--seed", "1"],
    # every component selected: the identity selection at K = k
    "hellinger-dense": ["hellinger", "--fit", "{m}", "--K-fit", "2", "--true", "{m}", "--K-true", "2",
                        "--n-mc", "20", "--y-points", "201", "--seed", "1"],
    "partition-check": ["partition-check", "--truth", "{m}", "--K", "1", "--n-mc", "1000", "--seed", "1"],
    # a finite eta that overflows the perturbed slopes of the beta1 measure
    "partition-check-eta": ["partition-check", "--truth", "{m}", "--K", "1", "--n-mc", "100", "--seed", "1",
                            "--etas=1.7e308"],
}


@pytest.mark.parametrize("bounds", [[], ["--bounds=0,1e308"]], ids=["unit-box", "wide-box"])
@pytest.mark.parametrize("measure", EXTREME_MEASURES)
@pytest.mark.parametrize("command", EXTREME_COMMANDS)
def test_extreme_finite_inputs(tmp_path, capsys, command, measure, bounds):
    # exit 0, or 1 with one error line; a warning would escape main as an exception
    (tmp_path / "measure.txt").write_text(EXTREME_MEASURES[measure])
    argv = [arg.format(m=tmp_path / "measure.txt", tmp=tmp_path) for arg in EXTREME_COMMANDS[command]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + bounds)
    _, err = capsys.readouterr()
    assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ") and err.count("\n") == 1)


# fit takes no --bounds, so it runs at K = 1 and K = 2, on data drawn from
# the README truth; the sweep draws its data from the measure itself
EXTREME_FIT = ["fit", "--data", "{tmp}/data.tsv", "--truth", "{m}", "--k", "2", "--seed", "1",
               "--out-measure", "{tmp}/fit.txt", "--out-summary", "{tmp}/fit.json"]
EXTREME_FITS = {
    "fit-K1": EXTREME_FIT + ["--K", "1"],
    "fit-K2": EXTREME_FIT + ["--K", "2"],
    "sweep": ["sweep", "--config", "{tmp}/sweep.cfg", "--out", "{tmp}/o.csv", "--seed", "1"],
}


@pytest.mark.parametrize("measure", EXTREME_MEASURES)
@pytest.mark.parametrize("command", EXTREME_FITS)
def test_extreme_finite_fits(tmp_path, capsys, command, measure):
    # exit 1 with one error line; or a fit exits 0 with the log-likelihood of
    # the measure it wrote, and a sweep 0 or 2 with one reason line per failed
    # row; a warning would escape main as an exception
    (tmp_path / "measure.txt").write_text(EXTREME_MEASURES[measure])
    (tmp_path / "sweep.cfg").write_text("data_k = 2\nfit_k = 2\nfit_big_k = 2\nsample_sizes = 50,100,200\n"
                                        "replicates = 1\nmetric = d1\n\n[truth]\n" + EXTREME_MEASURES[measure])
    data = ml.sample_dataset(ml.measure_from_text(MEASURE), 2, 200, seed=1)
    cli._write_dataset(data, tmp_path / "data.tsv")
    argv = [arg.format(m=tmp_path / "measure.txt", tmp=tmp_path) for arg in EXTREME_FITS[command]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    _, err = capsys.readouterr()
    if measure in ("beta0", "beta1") and command != "sweep":
        # the gating step scores its proposals by their increments, which a
        # steep gate's overflowing sums of scores do not reach
        assert code == 0
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    elif command == "sweep":
        failed = [r for r in ml.parse_csv(tmp_path / "o.csv") if not math.isfinite(r.loss)]
        assert code == (2 if failed else 0)
        lines = err.splitlines()
        assert [ln.split(": ")[0] for ln in lines[:len(failed)]] == [f"n={r.n} replicate={r.replicate}" for r in failed]
        assert lines[len(failed):] == ([f"{len(failed)} fit(s) failed"] if failed else [])
    else:
        assert (code, err) == (0, "")
        G = ml.measure_from_text((tmp_path / "fit.txt").read_text())
        K = int(command[-1])  # fit-K1 or fit-K2
        want = ml.model._softmax(ml.log_joint(G, data.x, data.y, K))[0].mean()
        assert json.loads((tmp_path / "fit.json").read_text())["loglik"] == pytest.approx(want, rel=1e-12)
