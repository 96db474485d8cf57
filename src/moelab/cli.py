"""Command-line entry point.

Every subcommand is a thin adapter over the library and produces the same
results as calling the operations directly.  Randomized subcommands require
an explicit --seed; there is no hidden entropy.  Text-first outputs (TSV,
JSON, SVG, key=value) keep every artifact diffable.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import em, experiments, metrics, partition, polysys
from .errors import InvalidArgumentError, MoeError
from .experiments import _parse_bounds, _read_text, _write_text
from .model import (
    Dataset,
    _fmt,
    measure_from_text,
    measure_to_text,
    sample_dataset,
    uniform_box_sampler,
)


def _read_measure(path):
    return measure_from_text(_read_text(path, "measure"))


def _read_dataset(path):
    text = _read_text(path, "dataset")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows; rejected below
            data = np.loadtxt(text.splitlines(), delimiter="\t", ndmin=2)
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed dataset {path}: {exc}") from exc
    if data.shape[0] < 1:
        raise InvalidArgumentError(f"dataset {path} has no rows")
    if data.shape[1] < 2:
        raise InvalidArgumentError(f"dataset {path} needs x columns and a final y column")
    return Dataset(x=data[:, :-1], y=data[:, -1])


def _write_dataset(data: Dataset, path):
    rows = ["\t".join(_fmt(v) for v in (*data.x[i], data.y[i])) for i in range(data.n)]
    _write_text(path, "\n".join(rows) + "\n", "dataset")


def cmd_gen(args):
    truth = _read_measure(args.truth)
    bounds = _parse_bounds(args.bounds, truth.d)
    data = sample_dataset(truth, args.K, args.n, seed=args.seed, bounds=bounds)
    _write_dataset(data, args.out)
    print(f"wrote {data.n} rows to {args.out}")
    return 0


def cmd_fit(args):
    data = _read_dataset(args.data)
    truth = _read_measure(args.truth)
    plan_rng = np.random.default_rng(args.seed)
    plan = em.random_cell_plan(args.k, truth.k, plan_rng)
    cfg = em.FitConfig(
        K=args.K,
        init=em.InitSpec(truth, plan, args.noise_std),
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
        gating_lr=args.gating_lr,
        gating_steps_per_m=args.gating_steps,
    )
    result = em.fit(data, cfg)
    _write_text(args.out_measure, measure_to_text(result.measure), "measure")
    summary = {
        "loglik": float(result.loglik_trace[-1]),
        "iterations": result.iterations,
        "converged": result.converged,
        "reverted_experts": result.reverted_experts,
        "reverted_gating": result.reverted_gating,
        "backtracks": result.backtracks,
        "wallclock_s": result.wallclock,
        "trace_head": [float(v) for v in result.loglik_trace[:5]],
    }
    if args.out_summary:
        _write_text(args.out_summary, json.dumps(summary, indent=2) + "\n", "summary")
    print(
        f"fit: loglik={summary['loglik']:.6f} iterations={result.iterations} "
        f"converged={str(result.converged).lower()}"
    )
    return 0


def cmd_loss(args):
    fitted = _read_measure(args.fit)
    truth = _read_measure(args.true)
    spec = metrics.LossSpec(metric=args.metric, rbar_policy=args.rbar, renormalize=args.renormalize,
                            positive_mass_only=args.positive_mass_only)
    report = metrics.score(spec, fitted, args.K, truth, args.K, _parse_bounds(args.bounds, truth.d))
    print(report.to_json())
    return 0


def cmd_hellinger(args):
    G_a = _read_measure(args.fit)
    G_b = _read_measure(args.true)
    spec = metrics.LossSpec(metric="hellinger", hellinger_n_mc=args.n_mc, y_points=args.y_points)
    bounds = _parse_bounds(args.bounds, G_b.d)
    est = metrics.score(spec, G_a, args.K_fit, G_b, args.K_true, bounds, args.seed)
    print(f"{est.mean:.10f} {est.stderr:.10f}")
    return 0


def cmd_partition_check(args):
    truth = _read_measure(args.truth)
    bounds = _parse_bounds(args.bounds, truth.d)
    sampler = uniform_box_sampler(bounds)
    try:
        etas = [float(tok) for tok in args.etas.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad --etas {args.etas!r}: {exc}") from exc
    if not np.all(np.isfinite(etas)):
        raise InvalidArgumentError(f"--etas must be finite, got {args.etas!r}")
    if args.n_mc < 1:
        raise InvalidArgumentError(f"--n-mc must be >= 1, got {args.n_mc}")
    rng = np.random.default_rng(args.seed)
    directions = rng.standard_normal((truth.k, truth.d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    directions /= np.where(norms > 0, norms, 1.0)
    with np.errstate(over="ignore"):  # an overflowing slope is inf, which the measure rejects
        slopes = [truth.beta1 + eta * directions for eta in etas]
    # every rate before the header, so a bad argument or box prints no table
    rates = [partition.partition_match_rate(truth, replace(truth, beta1=beta1), args.K, sampler, args.n_mc,
                                            seed=args.seed) for beta1 in slopes]
    print("eta\tmatch_rate")
    for eta, rate in zip(etas, rates):
        print(f"{eta:g}\t{rate:.6f}")
    return 0


def cmd_polysys(args):
    inst = polysys.PolySystemInstance(m=args.m, d=args.d, r=args.r)
    if args.search:
        cand = polysys.search_nontrivial(inst, restarts=args.restarts, seed=args.seed)
        if cand is None:
            print(f"no non-trivial solution found (m={args.m}, d={args.d}, r={args.r}, "
                  f"restarts={args.restarts}); absence is not a proof of insolvability")
            return 0
        print(f"verified non-trivial solution, max |residual| = "
              f"{polysys.max_abs_residual(inst, cand):.3e}")
        for name in ("z1", "z2", "z3", "z4", "z5"):
            print(f"{name} = {np.asarray(getattr(cand, name)).tolist()}")
        _print_residual_table(inst, cand)
        return 0
    if args.m != 2:
        raise InvalidArgumentError(f"the built-in constructive witness exists for m=2 only, got m={args.m}; "
                                   "pass --search to search for solutions")
    cand = polysys.constructive_witness_m2(c=args.witness_c, d=args.d)
    _print_residual_table(inst, cand)
    return 0


def _print_residual_table(inst, cand):
    print("eta1\teta2\tresidual")
    for eta1, eta2, value in polysys.residual_table(inst, cand):
        eta1_s = ",".join(str(e) for e in eta1)
        print(f"{eta1_s}\t{eta2}\t{_fmt(value)}")


def cmd_sweep(args):
    cfg = experiments.parse_sweep_config(_read_text(args.config, "sweep config"))
    cfg = replace(cfg, base_seed=args.seed)
    result = experiments.run_sweep(cfg)
    experiments.emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    if np.isfinite(result.slope):
        print(f"slope = {result.slope:.4f} +/- {result.slope_stderr:.4f}")
    if args.plot:
        experiments.emit_svg_loglog(result.rows, args.plot, allow_no_fit=True)
        print(f"wrote plot to {args.plot}")
    if result.n_failures:
        for r in result.rows:
            if not np.isfinite(r.loss):
                print(f"n={r.n} replicate={r.replicate}: {r.error or 'loss is not finite'}", file=sys.stderr)
        print(f"{result.n_failures} fit(s) failed", file=sys.stderr)
        return 2
    return 0


def cmd_plot(args):
    experiments.emit_svg_loglog(experiments.parse_csv(args.csv), args.out, allow_no_fit=args.allow_no_fit)
    print(f"wrote plot to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="moelab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a synthetic dataset to TSV")
    g.add_argument("--truth", required=True)
    g.add_argument("--K", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--bounds", help='per-dimension box, e.g. "0,1;0,1"')
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("fit", help="fit a measure to a TSV dataset by EM")
    f.add_argument("--data", required=True)
    f.add_argument("--truth", required=True, help="measure used for near-truth init")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--K", type=int, required=True)
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--noise-std", type=float, default=em.InitSpec.noise_std)
    f.add_argument("--tol", type=float, default=em.FitConfig.tol)
    f.add_argument("--max-iters", type=int, default=em.FitConfig.max_iters)
    f.add_argument("--gating-lr", type=float, default=em.FitConfig.gating_lr)
    f.add_argument("--gating-steps", type=int, default=em.FitConfig.gating_steps_per_m)
    f.add_argument("--out-measure", required=True)
    f.add_argument("--out-summary")
    f.set_defaults(func=cmd_fit)

    lo = sub.add_parser("loss", help="Voronoi loss between two measures, JSON out")
    lo.add_argument("--metric", choices=("d1", "d2", "d3"), required=True)
    lo.add_argument("--K", type=int, required=True)
    lo.add_argument("--fit", required=True)
    lo.add_argument("--true", required=True)
    lo.add_argument("--rbar", choices=("exact", "conjecture"), default="exact")
    lo.add_argument(
        "--renormalize", action="store_true",
        help="score the fit modulo the common (beta0, beta1) translation the "
             "likelihood cannot see: take the fitted weights as the softmax of beta0 "
             "times the true total mass and shift every fitted gating slope by the "
             "difference of the softmax-weighted mean slopes before the Voronoi assignment",
    )
    lo.add_argument("--positive-mass-only", action="store_true")
    lo.add_argument("--bounds")
    lo.set_defaults(func=cmd_loss)

    he = sub.add_parser("hellinger", help="expected Hellinger distance with MC stderr")
    he.add_argument("--fit", required=True)
    he.add_argument("--K-fit", type=int, required=True)
    he.add_argument("--true", required=True)
    he.add_argument("--K-true", type=int, required=True)
    he.add_argument("--n-mc", type=int, default=metrics.LossSpec.hellinger_n_mc)
    he.add_argument("--seed", type=int, required=True)
    he.add_argument("--y-points", type=int, default=metrics.LossSpec.y_points)
    he.add_argument("--bounds")
    he.set_defaults(func=cmd_hellinger)

    pc = sub.add_parser("partition-check", help="region match rate over a perturbation sweep")
    pc.add_argument("--truth", required=True)
    pc.add_argument("--K", type=int, required=True)
    pc.add_argument("--etas", default="1e-1,1e-2,1e-3,1e-4,1e-5,1e-6")
    pc.add_argument("--n-mc", type=int, default=100000)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--bounds")
    pc.set_defaults(func=cmd_partition_check)

    ps = sub.add_parser("polysys", help="polynomial-system residual tables and search")
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--d", type=int, default=1)
    ps.add_argument("--r", type=int, required=True)
    ps.add_argument("--search", action="store_true")
    ps.add_argument("--restarts", type=int, default=50)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--witness-c", type=float, default=1.0)
    ps.set_defaults(func=cmd_polysys)

    sw = sub.add_parser("sweep", help="replicated sample-size sweep to CSV (+SVG)")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True)
    sw.add_argument("--plot")
    sw.add_argument("--seed", type=int, required=True, help="base seed for the sweep")
    sw.set_defaults(func=cmd_sweep)

    pl = sub.add_parser("plot", help="SVG log-log plot from an existing sweep CSV")
    pl.add_argument("--csv", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--allow-no-fit", action="store_true")
    pl.set_defaults(func=cmd_plot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if name.endswith("seed") and value < 0:
                raise InvalidArgumentError(f"--{name.replace('_', '-')} must be >= 0, got {value}")
        return args.func(args)
    except (MoeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
