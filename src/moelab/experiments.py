"""Replicated sample-size sweeps, log-log slope regression, CSV/SVG artifacts.

Reproducibility contract: every per-(n, replicate) seed is a stable 64-bit
hash of (base_seed, n, replicate, role), so adding sample sizes never
reshuffles existing replicates and the emitted CSV is byte-identical across
runs and parallelism levels.  Wall-clock timing is therefore left out of the
rows.

Each setting has one default, on the dataclass that owns it; the config
document is read and written through one key table, ``_KEYS``.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import em, metrics
from .errors import InsufficientDataError, InvalidArgumentError, MoeError
from .metrics import METRICS, LossSpec
from .model import (
    MixingMeasure,
    _check_sparsity,
    _check_truth,
    _checked_box,
    _fmt,
    _settings,
    measure_from_text,
    measure_to_text,
    sample_dataset,
)


@dataclass(frozen=True)
class SweepConfig:
    truth: MixingMeasure
    data_K: int
    fit_k: int
    fit_K: int
    sample_sizes: tuple
    replicates: int
    base_seed: int = 0
    loss: LossSpec = field(default_factory=LossSpec)
    noise_std: float = em.InitSpec.noise_std
    tol: float = em.FitConfig.tol
    max_iters: int = em.FitConfig.max_iters
    gating_lr: float = em.FitConfig.gating_lr
    gating_steps_per_m: int = em.FitConfig.gating_steps_per_m
    parallelism: int = 1  # not a config key: only the benchmark's pool run and criterion 10 set it
    bounds: np.ndarray = None  # None: the unit box

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        if len(sizes) < 1 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidArgumentError("sample_sizes must be strictly increasing")
        if sizes[0] < 1:
            raise InvalidArgumentError(f"sample sizes must be >= 1, got {sizes[0]}")
        if self.replicates < 1:
            raise InvalidArgumentError("replicates must be >= 1")
        if self.parallelism < 1:
            raise InvalidArgumentError(f"parallelism must be >= 1, got {self.parallelism}")
        _check_sparsity(self.data_K, self.truth.k, "data_K")
        if self.fit_k < self.truth.k:
            raise InvalidArgumentError(f"need fit_k >= k*, got fit_k={self.fit_k}, k*={self.truth.k}")
        _check_sparsity(self.fit_K, self.fit_k, "fit_K")
        em._check_noise_std(self.noise_std)
        em._check_fit_settings(self.tol, self.max_iters, self.gating_lr, self.gating_steps_per_m)
        _check_truth(self.truth)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "bounds", _checked_box(self.bounds, self.truth.d))


@dataclass(frozen=True)
class SweepRow:
    n: int
    replicate: int
    seed: int
    loss: float
    loglik: float
    iterations: int
    converged: bool
    # the fitted measure itself; kept in memory for re-scoring, never in the CSV
    measure: MixingMeasure = None
    # why the row failed, the MoeError's message; in memory only, as measure
    error: str = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    slope: float
    slope_stderr: float
    n_failures: int = 0


def row_seed(base_seed, n: int, replicate: int, role: str = "row") -> int:
    """Stable 64-bit seed from (base_seed, n, replicate, role)."""
    digest = hashlib.blake2b(
        f"{base_seed}:{n}:{replicate}:{role}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _mass_subsets(cfg: SweepConfig, loss: LossSpec):
    """The subsets of ``loss``'s outer max for the whole sweep, drawn with its "mass" seed."""
    return metrics.loss_subsets(loss, cfg.truth, cfg.data_K, cfg.bounds, row_seed(cfg.base_seed, 0, 0, "mass"))


def _row_loss(cfg: SweepConfig, loss: LossSpec, measure, n: int, rep: int, subsets) -> float:
    """``loss`` of the (n, rep) row's fitted measure, with the row's "loss" seed."""
    return metrics.score(loss, measure, cfg.fit_K, cfg.truth, cfg.data_K, cfg.bounds,
                         row_seed(cfg.base_seed, n, rep, "loss"), subsets).value


def _run_one(cfg: SweepConfig, n: int, rep: int, subsets) -> SweepRow:
    seed = row_seed(cfg.base_seed, n, rep)
    try:
        data = sample_dataset(
            cfg.truth, cfg.data_K, n,
            seed=row_seed(cfg.base_seed, n, rep, "data"), bounds=cfg.bounds,
        )
        plan_rng = np.random.default_rng(row_seed(cfg.base_seed, n, rep, "plan"))
        plan = em.random_cell_plan(cfg.fit_k, cfg.truth.k, plan_rng)
        fit_cfg = em.FitConfig(
            K=cfg.fit_K,
            init=em.InitSpec(cfg.truth, plan, cfg.noise_std),
            seed=row_seed(cfg.base_seed, n, rep, "init"),
            tol=cfg.tol,
            max_iters=cfg.max_iters,
            gating_lr=cfg.gating_lr,
            gating_steps_per_m=cfg.gating_steps_per_m,
        )
        result = em.fit(data, fit_cfg)
        return SweepRow(
            n=n, replicate=rep, seed=seed, loss=_row_loss(cfg, cfg.loss, result.measure, n, rep, subsets),
            loglik=float(result.loglik_trace[-1]),
            iterations=result.iterations, converged=result.converged,
            measure=result.measure,
        )
    except MoeError as exc:
        return SweepRow(
            n=n, replicate=rep, seed=seed, loss=math.nan, loglik=math.nan,
            iterations=0, converged=False, error=str(exc),
        )


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Fit every (n, replicate) cell and regress log mean loss on log n.

    Individual fit failures are recorded as NaN-loss rows carrying their
    error message and never abort the sweep.  Deterministic given the
    config, at any parallelism level.
    """
    subsets = _mass_subsets(cfg, cfg.loss)
    tasks = [(n, rep) for n in cfg.sample_sizes for rep in range(cfg.replicates)]
    if cfg.parallelism > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            rows = list(pool.map(lambda t: _run_one(cfg, t[0], t[1], subsets), tasks))
    else:
        rows = [_run_one(cfg, n, rep, subsets) for n, rep in tasks]
    n_failures = sum(1 for r in rows if not math.isfinite(r.loss))
    try:
        slope, stderr, _ = fit_slope(rows)
    except InsufficientDataError:
        slope, stderr = math.nan, math.nan
    return SweepResult(rows=tuple(rows), slope=slope, slope_stderr=stderr, n_failures=n_failures)


def rescore_rows(cfg: SweepConfig, rows, loss: LossSpec):
    """Score the fitted measures of an existing sweep under another loss.

    Rows must carry their fitted measures (run_sweep keeps them in memory).
    Loss seeds are derived exactly as run_sweep derives them, so rescoring a
    sweep under its own loss spec reproduces it.
    """
    subsets = _mass_subsets(cfg, loss)
    return tuple(replace(r, loss=math.nan if r.measure is None else
                         _row_loss(cfg, loss, r.measure, r.n, r.replicate, subsets)) for r in rows)


# A mean or std past the largest float is inf, without a warning.
@np.errstate(over="ignore")
def mean_loss_by_n(rows):
    """Per-n mean of the finite losses, as parallel (n, mean, std) arrays."""
    by_n = {}
    for r in rows:
        if math.isfinite(r.loss):
            by_n.setdefault(r.n, []).append(r.loss)
    ns = np.array(sorted(by_n))
    means = np.array([np.mean(by_n[n]) for n in ns])
    stds = np.array([np.std(by_n[n]) for n in ns])
    return ns, means, stds


def fit_slope(rows):
    """OLS of log(mean loss) on log(n) over the per-n means of the finite
    losses; (slope, stderr, intercept).

    Nonpositive means are excluded; fewer than 3 usable sizes raise
    InsufficientDataError.
    """
    ns, means, _ = mean_loss_by_n(rows)
    keep = np.isfinite(means) & (means > 0)
    xs = np.log(ns[keep].astype(float))
    ys = np.log(means[keep])
    if xs.size < 3 or np.unique(xs).size < 3:
        raise InsufficientDataError(
            f"need >= 3 distinct sample sizes with positive mean loss, have {np.unique(xs).size}"
        )
    xbar, ybar = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = ys - (intercept + slope * xs)
    dof = xs.size - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if dof > 0 else 0.0
    return slope, stderr, intercept


# ---------------------------------------------------------------------------
# Text files: one reader and one writer for every text artifact, and the CSV
# ---------------------------------------------------------------------------

def _read_text(path, what: str) -> str:
    """The text of a UTF-8 file; one that cannot be read or decoded is an error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read {what} {path}: {exc}") from exc


def _write_text(path, text: str, what: str) -> None:
    """Write text as UTF-8 with LF line endings; a failed write is an error naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {what} to {path}: {exc}") from exc


CSV_HEADER = "n,replicate,seed,loss,loglik,iterations,converged"


def emit_csv(result: SweepResult, path) -> None:
    """One row per record under the fixed header; 17 significant digits,
    LF line endings."""
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.n},{r.replicate},{r.seed},{_fmt(r.loss)},{_fmt(r.loglik)},"
            f"{r.iterations},{'true' if r.converged else 'false'}"
        )
    _write_text(path, "\n".join(lines) + "\n", "CSV")


# the type of each CSV field, in CSV_HEADER's order, which is SweepRow's
_CSV_FIELDS = (int, int, int, float, float, int, {"true": True, "false": False}.__getitem__)


def parse_csv(path):
    """Rows back from :func:`emit_csv` output; parse(emit(x)) == x.rows.  A row
    that does not fit the header is an error naming its line."""
    lines = _read_text(path, "CSV").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidArgumentError(f"unrecognized CSV header in {path}")
    rows = []
    for number, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        values = ln.split(",")
        try:
            if len(values) != len(_CSV_FIELDS):
                raise ValueError(f"{len(values)} fields, expected {len(_CSV_FIELDS)}")
            rows.append(SweepRow(*(convert(v) for convert, v in zip(_CSV_FIELDS, values))))
        except (KeyError, ValueError) as exc:
            raise InvalidArgumentError(f"{path} line {number}: bad row {ln!r} ({exc})") from exc
    return tuple(rows)


# ---------------------------------------------------------------------------
# SVG log-log plot
# ---------------------------------------------------------------------------

def emit_svg_loglog(rows, path, allow_no_fit: bool = False) -> None:
    """Self-contained SVG of sweep rows: per-n mean markers with +/-2 std
    error bars on log-log axes and a dashed fitted regression line annotated
    with the slope.

    With a single sample size the regression is impossible; that is an error
    unless allow_no_fit is set, in which case the plot is emitted without the
    line.
    """
    ns, means, stds = mean_loss_by_n(rows)
    keep = np.isfinite(means) & (means > 0)
    ns, means, stds = ns[keep], means[keep], stds[keep]
    if ns.size == 0:
        raise InsufficientDataError("no positive mean losses to plot")
    try:
        slope, _, intercept = fit_slope(rows)
        have_fit = True
    except InsufficientDataError:
        if not allow_no_fit:
            raise
        have_fit = False

    lx = np.log10(ns.astype(float))
    ly = np.log10(means)
    with np.errstate(over="ignore"):  # a bar end past the largest float is inf
        lo_y = means - 2 * stds
        hi_y = means + 2 * stds
    y_low = np.log10(lo_y, where=lo_y > 0, out=np.full_like(lo_y, np.nan))
    y_high = np.log10(hi_y)

    x_min, x_max = float(lx.min()), float(lx.max())
    y_all = np.concatenate([ly, y_high[np.isfinite(y_high)], y_low[np.isfinite(y_low)]])
    y_min, y_max = float(np.min(y_all)), float(np.max(y_all))
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if y_max == y_min:
        y_min, y_max = y_min - 0.5, y_max + 0.5
    pad_x = 0.05 * (x_max - x_min)
    pad_y = 0.08 * (y_max - y_min)
    x_min, x_max = x_min - pad_x, x_max + pad_x
    y_min, y_max = y_min - pad_y, y_max + pad_y

    m, w, h = 64, 640, 480
    axis_color, line_color, marker_color = "#222222", "#ff7f0e", "#1f77b4"

    def sx(v):
        return m + (v - x_min) / (x_max - x_min) * (w - 2 * m)

    def sy(v):
        return h - m - (v - y_min) / (y_max - y_min) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        f'fill="none" stroke="{axis_color}"/>',
    ]
    # Decade ticks.
    for t in range(math.ceil(x_min), math.floor(x_max) + 1):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{h - m}" x2="{sx(t):.2f}" y2="{h - m + 6}" stroke="{axis_color}"/>'
            f'<text x="{sx(t):.2f}" y="{h - m + 20}" font-size="12" text-anchor="middle">1e{t}</text>'
        )
    for t in range(math.ceil(y_min), math.floor(y_max) + 1):
        parts.append(
            f'<line x1="{m - 6}" y1="{sy(t):.2f}" x2="{m}" y2="{sy(t):.2f}" stroke="{axis_color}"/>'
            f'<text x="{m - 10}" y="{sy(t) + 4:.2f}" font-size="12" text-anchor="end">1e{t}</text>'
        )
    parts.append(
        f'<text x="{w / 2:.0f}" y="{h - 12}" font-size="13" text-anchor="middle">sample size n</text>'
        f'<text x="16" y="{h / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {h / 2:.0f})">mean loss</text>'
    )
    if have_fit:
        # fit_slope works in natural logs; convert to the log10 axes.
        y0 = (intercept + slope * x_min * math.log(10.0)) / math.log(10.0)
        y1 = (intercept + slope * x_max * math.log(10.0)) / math.log(10.0)
        parts.append(
            f'<line x1="{sx(x_min):.2f}" y1="{sy(y0):.2f}" x2="{sx(x_max):.2f}" y2="{sy(y1):.2f}" '
            f'stroke="{line_color}" stroke-dasharray="6 4" stroke-width="1.5"/>'
            f'<text x="{w - m - 6}" y="{m + 18}" font-size="13" text-anchor="end" '
            f'fill="{line_color}">slope = {slope:.3f}</text>'
        )
    for i in range(ns.size):
        x = sx(lx[i])
        # a bar end off the log axis (inf above, non-positive below) runs to the plot edge
        top = sy(y_high[i]) if math.isfinite(y_high[i]) else m
        bot = sy(y_low[i]) if math.isfinite(y_low[i]) else (h - m)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{bot:.2f}" '
            f'stroke="{marker_color}" stroke-width="1"/>'
            f'<circle cx="{x:.2f}" cy="{sy(ly[i]):.2f}" r="3.5" fill="{marker_color}"/>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n", "SVG")


# ---------------------------------------------------------------------------
# Sweep config as a key=value document with an embedded [truth] section
# ---------------------------------------------------------------------------

def _parse_bounds(text, d: int = None) -> np.ndarray:
    """A checked ``lo,hi;lo,hi`` box, one pair per input dimension (d pairs
    when ``d`` is given); None is the unit box."""
    try:
        pairs = None if text is None else [[float(v) for v in part.split(",")] for part in text.split(";")]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad bounds {text!r}: {exc}") from exc
    if pairs is not None and any(len(pair) != 2 for pair in pairs):
        raise InvalidArgumentError(f"bad bounds {text!r}: need lo,hi pairs joined by ';'")
    return _checked_box(pairs, d)


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# (text -> value, value -> text) of each kind of config value
_INT, _FLOAT, _WORD = (int, str), (float, _fmt), (str, str)
_FLAG = (lambda text: _BOOL[text.lower()], lambda value: "true" if value else "false")
_INTS = (lambda text: tuple(int(tok) for tok in text.replace(",", " ").split()),
         lambda values: ",".join(str(v) for v in values))
_WORDS = (lambda text: tuple(text.replace(",", " ").split()), ",".join)
_BOX = (_parse_bounds, lambda box: ";".join(f"{_fmt(lo)},{_fmt(hi)}" for lo, hi in box))

# Every config key in written order: (key, the dataclass holding its field,
# the field, its kind).  A None value is not written.
_KEYS = (
    ("data_k", SweepConfig, "data_K", _INT),
    ("fit_k", SweepConfig, "fit_k", _INT),
    ("fit_big_k", SweepConfig, "fit_K", _INT),
    ("sample_sizes", SweepConfig, "sample_sizes", _INTS),
    ("replicates", SweepConfig, "replicates", _INT),
    ("metric", LossSpec, "metric", _WORD),
    ("rbar", LossSpec, "rbar_policy", _WORD),
    ("renormalize", LossSpec, "renormalize", _FLAG),
    ("positive_mass_only", LossSpec, "positive_mass_only", _FLAG),
    ("hellinger_n_mc", LossSpec, "hellinger_n_mc", _INT),
    ("y_points", LossSpec, "y_points", _INT),
    ("noise_std", SweepConfig, "noise_std", _FLOAT),
    ("tol", SweepConfig, "tol", _FLOAT),
    ("max_iters", SweepConfig, "max_iters", _INT),
    ("gating_lr", SweepConfig, "gating_lr", _FLOAT),
    ("gating_steps_per_m", SweepConfig, "gating_steps_per_m", _INT),
    ("bounds", SweepConfig, "bounds", _BOX),
    ("loss_terms", LossSpec, "terms", _WORDS),
)
# the SweepConfig fields without a default, whose keys every config must set
_REQUIRED = {f.name for f in fields(SweepConfig) if f.default is MISSING and f.default_factory is MISSING}


def parse_sweep_config(text: str) -> SweepConfig:
    """key = value lines, plus a ``[truth]`` section holding a measure document.

    A missing key takes its dataclass default.  Keys outside ``_KEYS``, a key
    given twice and sections other than ``[truth]`` are rejected.
    """
    pairs, truth_lines, in_truth = [], [], False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if line.lower() != "[truth]":
                raise InvalidArgumentError(f"unknown config section {line}")
            in_truth = True
        elif in_truth:
            truth_lines.append(line)
        else:
            if "=" not in line:
                raise InvalidArgumentError(f"bad config line: {raw!r}")
            key, val = line.split("=", 1)
            pairs.append((key.strip().lower(), val.strip()))
    if not truth_lines:
        raise InvalidArgumentError("config is missing the [truth] section")
    kv = _settings(pairs, {key for key, *_ in _KEYS}, "config")
    missing = [key for key, _, name, _ in _KEYS if name in _REQUIRED and key not in kv]
    if missing:
        raise InvalidArgumentError(f"config is missing keys: {', '.join(missing)}")
    values = {SweepConfig: {}, LossSpec: {}}
    for key, owner, name, (parse, _) in _KEYS:
        if key in kv:
            try:
                values[owner][name] = parse(kv[key])
            except (KeyError, ValueError) as exc:
                raise InvalidArgumentError(f"config key {key}: bad value {kv[key]!r} ({exc})") from exc
    return SweepConfig(truth=measure_from_text("\n".join(truth_lines)), loss=LossSpec(**values[LossSpec]),
                       **values[SweepConfig])


def sweep_config_to_text(cfg: SweepConfig) -> str:
    """Every key of ``_KEYS`` in order, then the truth; read back equal."""
    lines = []
    for key, owner, name, (_, write) in _KEYS:
        value = getattr(cfg.loss if owner is LossSpec else cfg, name)
        if value is not None:
            lines.append(f"{key} = {write(value)}")
    lines += ["", "[truth]", measure_to_text(cfg.truth).rstrip("\n")]
    return "\n".join(lines) + "\n"
