"""Replicated sample-size sweeps, log-log slope regression, CSV/SVG artifacts.

Reproducibility contract: every per-(n, replicate) seed is a stable 64-bit
hash of (base_seed, n, replicate, role), so adding sample sizes never
reshuffles existing replicates and the emitted CSV is byte-identical across
runs and parallelism levels.  Wall-clock timing is therefore left out of the
rows unless explicitly requested.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import em, metrics, partition
from .errors import InsufficientDataError, InvalidArgumentError, MoeError
from .model import (
    MixingMeasure,
    measure_from_text,
    measure_to_text,
    sample_dataset,
    uniform_box_sampler,
    unit_box,
)

METRICS = ("d1", "d2", "d3", "hellinger")


@dataclass(frozen=True)
class LossSpec:
    """Which discrepancy a sweep reports, and how it is evaluated."""

    metric: str = "d1"
    rbar_policy: str = "exact"
    loss_K: int = None  # subset size of the outer max; defaults to data_K
    renormalize: bool = False  # score modulo the common (beta0, beta1) translation
    terms: tuple = None  # D1 term restriction, e.g. ("a", "b", "sigma")
    positive_mass_only: bool = False
    mass_n_mc: int = 20000
    hellinger_n_mc: int = 200
    y_points: int = 2001

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidArgumentError(f"metric must be one of {METRICS}")


@dataclass(frozen=True)
class SweepConfig:
    truth: MixingMeasure
    data_K: int
    fit_k: int
    fit_K: int
    sample_sizes: tuple
    replicates: int
    base_seed: int
    loss: LossSpec = field(default_factory=LossSpec)
    noise_std: float = 0.05
    tol: float = 1e-6
    max_iters: int = 2000
    gating_lr: float = 0.1
    gating_steps_per_m: int = 5
    parallelism: int = 1
    bounds: np.ndarray = None
    record_timing: bool = False

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        if len(sizes) < 1 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidArgumentError("sample_sizes must be strictly increasing")
        if self.replicates < 1:
            raise InvalidArgumentError("replicates must be >= 1")
        object.__setattr__(self, "sample_sizes", sizes)
        bounds = self.bounds if self.bounds is not None else unit_box(self.truth.d)
        object.__setattr__(self, "bounds", np.asarray(bounds, dtype=float).reshape(-1, 2))


@dataclass(frozen=True)
class SweepRow:
    n: int
    replicate: int
    seed: int
    loss: float
    loglik: float
    iterations: int
    converged: bool
    wallclock_ms: float = None
    # the fitted measure itself; kept in memory for re-scoring, never in the CSV
    measure: MixingMeasure = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    slope: float
    slope_stderr: float
    intercept: float
    n_failures: int = 0


def row_seed(base_seed, n: int, replicate: int, role: str = "row") -> int:
    """Stable 64-bit seed from (base_seed, n, replicate, role)."""
    digest = hashlib.blake2b(
        f"{base_seed}:{n}:{replicate}:{role}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _loss_value(cfg: SweepConfig, fitted: MixingMeasure, seed: int, subsets) -> float:
    spec = cfg.loss
    loss_K = spec.loss_K if spec.loss_K is not None else cfg.data_K
    if spec.metric == "hellinger":
        sampler = uniform_box_sampler(cfg.bounds)
        grid = metrics.default_y_grid(fitted, cfg.truth, cfg.bounds, spec.y_points)
        est = metrics.expected_hellinger(
            fitted, cfg.fit_K, cfg.truth, cfg.data_K,
            sampler, spec.hellinger_n_mc, grid, seed=seed,
        )
        return est.mean
    return metrics.voronoi_loss(
        fitted, cfg.truth, loss_K, spec.metric, rbar_policy=spec.rbar_policy,
        renormalize=spec.renormalize, terms=spec.terms, subsets=subsets,
    ).value


def _positive_mass_subsets(cfg: SweepConfig):
    if not cfg.loss.positive_mass_only or cfg.loss.metric == "hellinger":
        return None
    loss_K = cfg.loss.loss_K if cfg.loss.loss_K is not None else cfg.data_K
    sampler = uniform_box_sampler(cfg.bounds)
    return partition.positive_mass_subsets(
        cfg.truth, loss_K, sampler, cfg.loss.mass_n_mc,
        seed=row_seed(cfg.base_seed, 0, 0, "mass"),
    )


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
            k=cfg.fit_k,
            K=cfg.fit_K,
            init=em.InitSpec(cfg.truth, plan, cfg.noise_std),
            seed=row_seed(cfg.base_seed, n, rep, "init"),
            tol=cfg.tol,
            max_iters=cfg.max_iters,
            gating_lr=cfg.gating_lr,
            gating_steps_per_m=cfg.gating_steps_per_m,
        )
        result = em.fit(data, fit_cfg)
        loss = _loss_value(cfg, result.measure, row_seed(cfg.base_seed, n, rep, "loss"), subsets)
        return SweepRow(
            n=n, replicate=rep, seed=seed, loss=loss,
            loglik=float(result.loglik_trace[-1]),
            iterations=result.iterations, converged=result.converged,
            wallclock_ms=result.wallclock * 1e3 if cfg.record_timing else None,
            measure=result.measure,
        )
    except MoeError:
        return SweepRow(
            n=n, replicate=rep, seed=seed, loss=math.nan, loglik=math.nan,
            iterations=0, converged=False,
            wallclock_ms=0.0 if cfg.record_timing else None,
        )


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Fit every (n, replicate) cell and regress log mean loss on log n.

    Individual fit failures are recorded as NaN-loss rows and never abort the
    sweep.  Deterministic given the config, at any parallelism level.
    """
    subsets = _positive_mass_subsets(cfg)
    tasks = [(n, rep) for n in cfg.sample_sizes for rep in range(cfg.replicates)]
    if cfg.parallelism > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            rows = list(pool.map(lambda t: _run_one(cfg, t[0], t[1], subsets), tasks))
    else:
        rows = [_run_one(cfg, n, rep, subsets) for n, rep in tasks]
    rows.sort(key=lambda r: (r.n, r.replicate))
    n_failures = sum(1 for r in rows if not math.isfinite(r.loss))
    try:
        slope, stderr, intercept = fit_slope(rows)
    except InsufficientDataError:
        slope, stderr, intercept = math.nan, math.nan, math.nan
    return SweepResult(
        rows=tuple(rows), slope=slope, slope_stderr=stderr,
        intercept=intercept, n_failures=n_failures,
    )


def rescore_rows(cfg: SweepConfig, rows, loss: LossSpec):
    """Score the fitted measures of an existing sweep under another loss.

    Rows must carry their fitted measures (run_sweep keeps them in memory).
    Loss seeds are derived exactly as run_sweep derives them, so rescoring a
    sweep under its own loss spec reproduces it.
    """
    cfg2 = replace(cfg, loss=loss)
    subsets = _positive_mass_subsets(cfg2)
    out = []
    for r in rows:
        if r.measure is None:
            value = math.nan
        else:
            value = _loss_value(cfg2, r.measure, row_seed(cfg.base_seed, r.n, r.replicate, "loss"), subsets)
        out.append(replace(r, loss=value))
    return tuple(out)


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


def fit_slope(rows, per_row: bool = False):
    """OLS of log(loss) on log(n); (slope, stderr, intercept).

    Aggregates to the per-n mean loss first unless per_row is set.
    Nonpositive or non-finite losses are excluded; fewer than 3 usable points
    raise InsufficientDataError.
    """
    if per_row:
        pts = [(r.n, r.loss) for r in rows if math.isfinite(r.loss) and r.loss > 0]
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
    else:
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
# CSV
# ---------------------------------------------------------------------------

CSV_HEADER = "n,replicate,seed,loss,loglik,iterations,converged,wallclock_ms"


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def emit_csv(result: SweepResult, path) -> None:
    """One row per record under the fixed header; 17 significant digits,
    LF line endings.  Missing wall-clock values are written as empty fields."""
    lines = [CSV_HEADER]
    for r in result.rows:
        wall = "" if r.wallclock_ms is None else _g17(r.wallclock_ms)
        lines.append(
            f"{r.n},{r.replicate},{r.seed},{_g17(r.loss)},{_g17(r.loglik)},"
            f"{r.iterations},{'true' if r.converged else 'false'},{wall}"
        )
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write CSV to {path}: {exc}") from exc


def parse_csv(path):
    """Rows back from :func:`emit_csv` output; parse(emit(x)) == x.rows."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read CSV from {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidArgumentError(f"unrecognized CSV header in {path}")
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        f = ln.split(",")
        rows.append(
            SweepRow(
                n=int(f[0]), replicate=int(f[1]), seed=int(f[2]),
                loss=float(f[3]), loglik=float(f[4]), iterations=int(f[5]),
                converged=f[6] == "true",
                wallclock_ms=None if f[7] == "" else float(f[7]),
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# SVG log-log plot
# ---------------------------------------------------------------------------

def emit_svg_loglog(result: SweepResult, path, allow_no_fit: bool = False) -> None:
    """Self-contained SVG: per-n mean markers with +/-2 std error bars on
    log-log axes and a dashed fitted regression line annotated with the slope.

    With a single sample size the regression is impossible; that is an error
    unless allow_no_fit is set, in which case the plot is emitted without the
    line.
    """
    ns, means, stds = mean_loss_by_n(result.rows)
    keep = np.isfinite(means) & (means > 0)
    ns, means, stds = ns[keep], means[keep], stds[keep]
    if ns.size == 0:
        raise InsufficientDataError("no positive mean losses to plot")
    try:
        slope, _, intercept = fit_slope(result.rows)
        have_fit = True
    except InsufficientDataError:
        if not allow_no_fit:
            raise
        have_fit = False

    lx = np.log10(ns.astype(float))
    ly = np.log10(means)
    lo_y = means - 2 * stds
    hi_y = means + 2 * stds
    y_low = np.where(lo_y > 0, np.log10(lo_y, where=lo_y > 0, out=np.full_like(lo_y, np.nan)), np.nan)
    y_high = np.log10(hi_y)

    x_min, x_max = float(lx.min()), float(lx.max())
    y_all = np.concatenate([ly, y_high, y_low[np.isfinite(y_low)]])
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
        top = sy(y_high[i])
        bot = sy(y_low[i]) if math.isfinite(y_low[i]) else (h - m)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{bot:.2f}" '
            f'stroke="{marker_color}" stroke-width="1"/>'
            f'<circle cx="{x:.2f}" cy="{sy(ly[i]):.2f}" r="3.5" fill="{marker_color}"/>'
        )
    parts.append("</svg>")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write SVG to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Sweep config as a key=value document with an embedded [truth] section
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def parse_sweep_config(text: str) -> SweepConfig:
    """key = value lines, plus a ``[truth]`` section holding a measure document."""
    kv = {}
    truth_lines = []
    in_truth = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() == "[truth]":
            in_truth = True
            continue
        if line.startswith("["):
            in_truth = False
            continue
        if in_truth:
            truth_lines.append(line)
        else:
            if "=" not in line:
                raise InvalidArgumentError(f"bad config line: {raw!r}")
            key, val = line.split("=", 1)
            kv[key.strip().lower()] = val.strip()
    if not truth_lines:
        raise InvalidArgumentError("config is missing the [truth] section")
    truth = measure_from_text("\n".join(truth_lines))

    def get(key, convert, default=None):
        if key not in kv:
            return default
        try:
            return convert(kv[key])
        except (KeyError, ValueError) as exc:
            raise InvalidArgumentError(f"config key {key}: bad value {kv[key]!r}") from exc

    def to_bool(text):
        return _BOOL[text.lower()]

    def to_ints(text):
        return tuple(int(tok) for tok in text.replace(",", " ").split())

    required = ("data_k", "fit_k", "fit_big_k", "sample_sizes", "replicates")
    missing = [key for key in required if key not in kv]
    if missing:
        raise InvalidArgumentError(f"config is missing keys: {', '.join(missing)}")
    loss = LossSpec(
        metric=kv.get("metric", "d1"),
        rbar_policy=kv.get("rbar", "exact"),
        loss_K=get("loss_k", int),
        renormalize=get("renormalize", to_bool, False),
        terms=get("loss_terms", lambda text: tuple(text.replace(",", " ").split())),
        positive_mass_only=get("positive_mass_only", to_bool, False),
        mass_n_mc=get("mass_n_mc", int, 20000),
        hellinger_n_mc=get("hellinger_n_mc", int, 200),
        y_points=get("y_points", int, 2001),
    )
    return SweepConfig(
        truth=truth,
        data_K=get("data_k", int),
        fit_k=get("fit_k", int),
        fit_K=get("fit_big_k", int),
        sample_sizes=get("sample_sizes", to_ints),
        replicates=get("replicates", int),
        base_seed=get("base_seed", int, 0),
        loss=loss,
        noise_std=get("noise_std", float, 0.05),
        tol=get("tol", float, 1e-6),
        max_iters=get("max_iters", int, 2000),
        gating_lr=get("gating_lr", float, 0.1),
        gating_steps_per_m=get("gating_steps_per_m", int, 5),
        parallelism=get("parallelism", int, 1),
        record_timing=get("record_timing", to_bool, False),
    )


def sweep_config_to_text(cfg: SweepConfig) -> str:
    lines = [
        f"data_k = {cfg.data_K}",
        f"fit_k = {cfg.fit_k}",
        f"fit_big_k = {cfg.fit_K}",
        f"sample_sizes = {','.join(str(n) for n in cfg.sample_sizes)}",
        f"replicates = {cfg.replicates}",
        f"base_seed = {cfg.base_seed}",
        f"metric = {cfg.loss.metric}",
        f"rbar = {cfg.loss.rbar_policy}",
        f"renormalize = {'true' if cfg.loss.renormalize else 'false'}",
        f"positive_mass_only = {'true' if cfg.loss.positive_mass_only else 'false'}",
        f"noise_std = {_g17(cfg.noise_std)}",
        f"tol = {_g17(cfg.tol)}",
        f"max_iters = {cfg.max_iters}",
        f"gating_lr = {_g17(cfg.gating_lr)}",
        f"gating_steps_per_m = {cfg.gating_steps_per_m}",
        f"parallelism = {cfg.parallelism}",
        f"record_timing = {'true' if cfg.record_timing else 'false'}",
    ]
    if cfg.loss.loss_K is not None:
        lines.append(f"loss_k = {cfg.loss.loss_K}")
    if cfg.loss.terms is not None:
        lines.append(f"loss_terms = {','.join(cfg.loss.terms)}")
    if cfg.loss.metric == "hellinger":
        lines.append(f"hellinger_n_mc = {cfg.loss.hellinger_n_mc}")
        lines.append(f"y_points = {cfg.loss.y_points}")
    lines.append("")
    lines.append("[truth]")
    lines.append(measure_to_text(cfg.truth).rstrip("\n"))
    return "\n".join(lines) + "\n"
