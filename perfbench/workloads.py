"""The benchmark's workloads: their inputs, one timed round, and the checks
of the round's outputs.

Two workloads are replicated sample-size sweeps through
``experiments.run_sweep``; one scores fixed measures and searches the
polynomial system, with no EM.  Every round of a run repeats the same
operations on the same inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles as orc

# The two-component 1-D truth of the acceptance criteria (k* = 2 on [0, 1]).
TRUTH_1D = dict(beta0=[-8.0, 0.0], beta1=[[25.0], [0.0]], a=[[-20.0], [20.0]],
                b=[15.0, -5.0], sigma=[0.3, 0.4])
# A 2-D truth with k* = 3 whose top-2 gate splits [-1, 1]^2 into the three
# regions (0, 1), (0, 2) and (1, 2).
TRUTH_2D = dict(beta0=[-0.5, 0.3, 0.0], beta1=[[4.0, 0.0], [-2.0, 3.5], [0.0, 0.0]],
                a=[[2.0, -1.0], [-1.5, 2.0], [0.5, 0.5]], b=[1.0, -1.0, 0.0],
                sigma=[0.3, 0.4, 0.5])
BOX_1D = [[0.0, 1.0]]
BOX_2D = [[-1.0, 1.0], [-1.0, 1.0]]

SIZES_LARGE = tuple(int(round(10**e)) for e in np.linspace(3, 4, 6))
SIZES_2D = tuple(int(round(10**e)) for e in np.linspace(2.5, 4, 6))

TRACE_SLACK = 1e-9  # allowed per-step decrease of an EM log-likelihood trace
LOGLIK_RTOL = 1e-9
HELLINGER_ATOL = 1e-6
RESIDUAL_TOL = 1e-10


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    latencies_ms: list = field(default_factory=list)
    # The host-speed reference run just before each operation (hostspeed.py).
    reference_ms: list = field(default_factory=list)
    # The round's outputs, kept for the first round only, and what the checks
    # compare between rounds.
    payload: object = None
    digest: object = None


def oracle_mixture(G) -> orc.Mixture:
    return orc.mixture(G.beta0, G.beta1, G.a, G.b, G.sigma)


def log_log_fit(ns, means):
    """OLS slope of log(mean) on log(n)."""
    x, y = np.log(np.asarray(ns, dtype=float)), np.log(np.asarray(means, dtype=float))
    x0 = x - x.mean()
    return float(x0 @ (y - y.mean()) / (x0 @ x0))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

class SweepWorkload:
    """One ``run_sweep`` call at parallelism 1 per round; an operation is one
    sweep row, timed from the start of its data draw to the end of its loss.

    Once per run the same sweep also runs at parallelism 2 (``pool_run``),
    for the CSV check and the thread-pool figures of the traced run.
    """

    hooks = ("model.sample_dataset", "em.fit", "metrics.loss_d1", "metrics.loss_d2", "metrics.loss_d3")
    # The span that starts a row: the host-speed reference runs just before it.
    row_start = "model.sample_dataset"
    reference = "array"

    def __init__(self, ml, name, cfg, max_slope, endpoint_decay=None, out_dir=None):
        self.ml, self.name, self.cfg = ml, name, cfg
        self.max_slope = max_slope
        self.endpoint_decay = endpoint_decay
        self.out_dir = Path(out_dir)

    def _sweep(self, parallelism):
        cfg = replace(self.cfg, parallelism=parallelism)
        cpu0, t0 = time.process_time(), time.perf_counter()
        result = self.ml.experiments.run_sweep(cfg)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        path = self.out_dir / f"{self.name}-p{parallelism}.csv"
        self.ml.experiments.emit_csv(result, path)
        return result, wall, cpu, path.read_bytes()

    def run_round(self, reference=None) -> Round:
        """One sweep; the tracer runs ``reference`` before each row."""
        result, wall, cpu, csv = self._sweep(1)
        failed = sum(1 for r in result.rows if not (math.isfinite(r.loss) and r.converged))
        return Round(wall, cpu, len(result.rows), failed, payload=result, digest=csv)

    def pool_run(self):
        """The sweep at parallelism 2: (wall seconds, CPU seconds, CSV bytes)."""
        return self._sweep(2)[1:]

    def latencies(self, spans):
        """Per row: from the start of its data draw to the end of the loss
        call that follows it (the round is serial), and the reference run
        before it.  Two lists of milliseconds."""
        lat, ref, start = [], [], None
        for s in sorted((s for s in spans if s.name in self.hooks), key=lambda s: s.t0):
            if s.name == self.row_start:
                start = s
            elif s.name.startswith("metrics.loss_") and start is not None:
                lat.append(1e3 * (s.t1 - start.t0))
                ref.append(start.before)
                start = None
        return lat, ref

    def check(self, rounds, spans, pool_csv) -> list:
        """Checks of the first round's rows (``spans`` are its spans) and of
        the CSVs of every round and of the run at parallelism 2."""
        problems = []
        result, csv = rounds[0].payload, rounds[0].digest
        if any(r.digest != csv for r in rounds[1:]):
            problems.append("sweep CSV differs between rounds")
        if pool_csv != csv:
            problems.append("sweep CSV differs between parallelism 1 and 2")

        fits = {id(s.result.measure): s for s in spans if s.name == "em.fit" and s.result is not None}
        rows = [r for r in result.rows if r.measure is not None]
        if len(fits) != len(rows) or any(id(r.measure) not in fits for r in rows):
            problems.append(f"captured {len(fits)} EM fits for {len(rows)} fitted rows")
            return problems
        for r in rows:
            span = fits[id(r.measure)]
            data, fit_cfg = span.args
            trace = span.result.loglik_trace
            where = f"row n={r.n} replicate={r.replicate}"
            if np.any(np.diff(trace) < -TRACE_SLACK):
                problems.append(f"{where}: log-likelihood trace decreases by {-np.diff(trace).min():.3g}")
            want = orc.mean_log_likelihood(oracle_mixture(r.measure), fit_cfg.K, data.x, data.y)
            if not (r.loglik == trace[-1] and abs(r.loglik - want) <= LOGLIK_RTOL * abs(want)):
                problems.append(f"{where}: final log-likelihood {r.loglik!r}, oracle {want!r}")

        kept = [r for r in result.rows if math.isfinite(r.loss) and r.converged]
        ns = sorted({r.n for r in kept})
        means = [float(np.mean([r.loss for r in kept if r.n == n])) for n in ns]
        if len(ns) < 3 or min(means) <= 0:
            problems.append(f"cannot regress a slope on {len(ns)} sizes with means {means}")
            return problems
        slope = log_log_fit(ns, means)
        if not slope <= self.max_slope:
            problems.append(f"log-log slope {slope:.3f} above {self.max_slope}")
        if self.endpoint_decay is not None:
            ratio, want = means[0] / means[-1], (ns[-1] / ns[0]) ** self.endpoint_decay
            if not ratio >= want:
                problems.append(f"endpoint ratio {ratio:.3f} below {want:.3f}")
        return problems


def sweep_workload(ml, name, out_dir) -> SweepWorkload:
    ex = ml.experiments
    if name == "overspec-k3":
        # fit_k = fit_K = 3, so the top-K-bar premise (the data_K largest
        # Voronoi cells hold at most fit_K fitted components) holds on every
        # row by construction and is not checked.
        cfg = ex.SweepConfig(
            truth=ml.model.true_measure(**TRUTH_1D), data_K=2, fit_k=3, fit_K=3,
            sample_sizes=SIZES_LARGE, replicates=2, base_seed=303, noise_std=0.05,
            gating_lr=2.0, gating_steps_per_m=2,
            loss=ex.LossSpec(metric="d2", rbar_policy="exact", renormalize=True),
        )
        return SweepWorkload(ml, name, cfg, max_slope=-0.15, endpoint_decay=0.15, out_dir=out_dir)
    if name == "sparse-2d":
        cfg = ex.SweepConfig(
            truth=ml.model.true_measure(**TRUTH_2D), data_K=2, fit_k=3, fit_K=2,
            sample_sizes=SIZES_2D, replicates=4, base_seed=505, noise_std=0.05,
            loss=ex.LossSpec(metric="d1", renormalize=True), bounds=BOX_2D,
        )
        return SweepWorkload(ml, name, cfg, max_slope=-0.35, out_dir=out_dir)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Analysis: scoring and polynomial search, no EM
# ---------------------------------------------------------------------------

N_MC = 200
Y_POINTS = 2001
MASS_N_MC = 20000
JITTER = 0.1
SCORES_PER_KIND = 4
# (m, r, restart seeds): criterion 7's solvable orders, and r = rbar(2) = 4
# where no non-trivial solution exists, so each restart runs to its end.
# rbar(3) = 6 is left out: one restart there took 0.9 to 11 s.
SEARCHES = ((2, 3, range(4)), (3, 5, range(6)), (2, 4, range(3)))
SEARCH_SEED = 7


class RecordingSampler:
    """Uniform draws on a box, keeping the last draw for the oracle."""

    def __init__(self, bounds):
        self.bounds = np.asarray(bounds, dtype=float)
        self.X = None

    def __call__(self, rng, n):
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        self.X = lo + rng.random((int(n), lo.size)) * (hi - lo)
        return self.X


@dataclass
class ScoreCase:
    kind: str
    truth: object
    K_true: int
    fit: object
    K_fit: int
    moved_truth: object  # the truth under one common (beta0, beta1) translation
    bounds: list
    seed: int


def _jitter(rng, arrays, plan, noise):
    plan = np.asarray(plan)
    beta1 = np.asarray(arrays["beta1"], dtype=float)[plan]
    a = np.asarray(arrays["a"], dtype=float)[plan]
    return dict(
        beta0=np.asarray(arrays["beta0"], dtype=float)[plan] + noise * rng.standard_normal(plan.size),
        beta1=beta1 + noise * rng.standard_normal(beta1.shape),
        a=a + noise * rng.standard_normal(a.shape),
        b=np.asarray(arrays["b"], dtype=float)[plan] + noise * rng.standard_normal(plan.size),
        sigma=np.asarray(arrays["sigma"], dtype=float)[plan] * np.exp(noise * rng.standard_normal(plan.size)),
    )


def score_cases(ml, seed) -> list:
    """Seeded jitters of the truths, made here so that no change to EM can
    alter them: dense and sparse gates, exact and over-specified fits, and
    single experts, whose Hellinger distance has a closed form."""
    MM = ml.model.MixingMeasure
    rng = np.random.default_rng([seed, 2023])

    def single_expert():
        return dict(beta0=[0.0], beta1=[[0.0]], a=[[rng.normal(0.0, 3.0)]],
                    b=[rng.normal(0.0, 2.0)], sigma=[math.exp(rng.normal(-0.5, 0.3))])

    kinds = (
        ("1d-dense", lambda: TRUTH_1D, 2, lambda: [0, 1], 2, BOX_1D),
        ("1d-top1-over", lambda: TRUTH_1D, 1, lambda: rng.permutation([0, 1, int(rng.integers(2))]), 1, BOX_1D),
        ("2d-sparse", lambda: TRUTH_2D, 2, lambda: [0, 1, 2], 2, BOX_2D),
        ("2d-dense-over", lambda: TRUTH_2D, 3, lambda: rng.permutation([0, 1, 2, int(rng.integers(3))]), 3, BOX_2D),
        ("single", single_expert, 1, lambda: [0], 1, BOX_1D),
    )
    cases = []
    for kind, arrays_of, K_true, plan, K_fit, bounds in kinds:
        for _ in range(SCORES_PER_KIND):
            arrays = arrays_of()
            truth = MM.from_arrays(**arrays)
            fit = MM.from_arrays(**_jitter(rng, arrays, plan(), JITTER))
            moved = MM.from_arrays(truth.beta0 + rng.normal(0.0, 2.0),
                                   truth.beta1 + rng.normal(0.0, 5.0, size=truth.d),
                                   truth.a, truth.b, truth.sigma)
            cases.append(ScoreCase(kind, truth, K_true, fit, K_fit, moved, bounds,
                                   int(rng.integers(2**31))))
    return cases


class AnalysisWorkload:
    """An operation is one scored measure or one search restart."""

    hooks = ()
    row_start = None
    reference = "python"

    def __init__(self, ml, seed):
        self.ml = ml
        self.cases = score_cases(ml, seed)
        self.searches = [(m, r, [SEARCH_SEED, i]) for m, r, seeds in SEARCHES for i in seeds]

    def _score(self, case):
        met = self.ml.metrics
        h_sampler = RecordingSampler(case.bounds)
        grid = met.default_y_grid(case.fit, case.truth, case.bounds, Y_POINTS)
        hel = met.expected_hellinger(case.fit, case.K_fit, case.truth, case.K_true,
                                     h_sampler, N_MC, grid, seed=case.seed)
        rbar = self.ml.polysys.rbar_fn("exact")
        K = case.K_true
        losses, zeros = {}, {}
        for renormalize in (False, True):
            losses["d1", renormalize] = met.loss_d1(case.fit, case.truth, K, renormalize=renormalize).value
            losses["d2", renormalize] = met.loss_d2(case.fit, case.truth, K, rbar, renormalize=renormalize).value
            losses["d3", renormalize] = met.loss_d3(case.fit, case.truth, K, renormalize=renormalize).value
        for G, renormalize, tag in ((case.truth, False, "self"), (case.moved_truth, True, "moved")):
            zeros["d1", tag] = met.loss_d1(G, case.truth, K, renormalize=renormalize).value
            zeros["d2", tag] = met.loss_d2(G, case.truth, K, rbar, renormalize=renormalize).value
            zeros["d3", tag] = met.loss_d3(G, case.truth, K, renormalize=renormalize).value
        pm_sampler = RecordingSampler(case.bounds)
        subsets = self.ml.partition.positive_mass_subsets(case.fit, case.K_fit, pm_sampler, MASS_N_MC,
                                                          seed=case.seed + 1)
        return dict(hellinger=hel.mean, X=h_sampler.X, grid=grid, losses=losses, zeros=zeros,
                    subsets=subsets, X_mass=pm_sampler.X)

    def _search(self, m, r, seed):
        ps = self.ml.polysys
        return ps.search_nontrivial(ps.PolySystemInstance(m, 1, r), restarts=1, seed=seed)

    def run_round(self, reference=None) -> Round:
        """Every operation once, each after a run of ``reference`` if given."""
        ops = [(self._score, (c,)) for c in self.cases] + [(self._search, s) for s in self.searches]
        cpu0, t0 = time.process_time(), time.perf_counter()
        latencies, references, outputs, failed = [], [], [], 0
        for fn, args in ops:
            if reference is not None:
                references.append(reference())
            t = time.perf_counter()
            try:
                out = fn(*args)
            except self.ml.MoeError as exc:
                out = exc
                failed += 1
            latencies.append(1e3 * (time.perf_counter() - t))
            outputs.append(out)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        return Round(wall, cpu, len(ops), failed, latencies, references, payload=outputs)

    def pool_run(self):
        return None

    def check(self, rounds, spans, pool_csv) -> list:
        problems = []
        outputs = rounds[0].payload
        for case, out in zip(self.cases, outputs):
            if not isinstance(out, dict):
                continue
            problems += [f"{case.kind}: {p}" for p in self._check_score(case, out)]
        found = {(m, r): 0 for m, r, _ in self.searches if r < self.ml.polysys.rbar(m, "exact")}
        for (m, r, seed), cand in zip(self.searches, outputs[len(self.cases):]):
            if isinstance(cand, Exception):
                continue
            bad = self._check_search(m, r, cand)
            problems += [f"search m={m} r={r} seed={seed}: {p}" for p in bad]
            if cand is not None and not bad:
                found[m, r] += 1
        # A system below rbar(m) has a non-trivial solution, so a working
        # search finds one in some restart at each of these orders.
        problems += [f"no restart at m={m} r={r} returned a verified candidate"
                     for (m, r), n in found.items() if n == 0]
        problems += self._check_truth_regions()
        return problems

    def _check_score(self, case, out) -> list:
        problems = []
        fit, truth = oracle_mixture(case.fit), oracle_mixture(case.truth)
        h = out["hellinger"]
        if case.kind == "single":
            mu_f = out["X"] @ fit.a[0] + fit.b[0]
            mu_t = out["X"] @ truth.a[0] + truth.b[0]
            want = float(np.mean(orc.gaussian_hellinger(mu_f, fit.sigma[0], mu_t, truth.sigma[0])))
        else:
            want = float(np.mean(orc.hellinger_quadrature(fit, case.K_fit, truth, case.K_true,
                                                          out["X"], out["grid"])))
        if not (0.0 <= h <= 1.0 and abs(h - want) <= HELLINGER_ATOL):
            problems.append(f"expected Hellinger {h!r}, oracle {want!r}")
        met = self.ml.metrics
        for x in out["X"][:3]:
            ab = met.hellinger_pointwise(case.fit, case.K_fit, case.truth, case.K_true, x, out["grid"])
            ba = met.hellinger_pointwise(case.truth, case.K_true, case.fit, case.K_fit, x, out["grid"])
            if abs(ab - ba) > 1e-12:
                problems.append(f"Hellinger not symmetric at x={x}: {ab!r} vs {ba!r}")
        for key, v in out["zeros"].items():
            if not (v == 0.0 if key[1] == "self" else abs(v) <= 1e-12):
                problems.append(f"{key[0]} of the {key[1]} truth is {v!r}, not 0")
        for key, v in out["losses"].items():
            if not (math.isfinite(v) and v >= 0.0):
                problems.append(f"{key[0]} (renormalize={key[1]}) is {v!r}")
        want_sets = orc.positive_mass_subsets(fit, case.K_fit, out["X_mass"])
        got_sets = [tuple(s) for s in out["subsets"]]
        if got_sets != want_sets:
            problems.append(f"positive-mass subsets {got_sets}, oracle {want_sets}")
        return problems

    def _check_search(self, m, r, cand) -> list:
        if r >= self.ml.polysys.rbar(m, "exact"):
            return [] if cand is None else ["returned a solution at r = rbar(m)"]
        if cand is None:
            return []  # this restart found none; check() asks for one per order
        args = (cand.z1[:, 0], cand.z2[:, 0], cand.z3, cand.z4, cand.z5)
        problems = []
        worst = orc.max_abs_residual(*args, r=r)
        if not worst <= RESIDUAL_TOL:
            problems.append(f"oracle max |residual| {worst:.3g} above {RESIDUAL_TOL}")
        if not (np.all(cand.z5 != 0.0) and np.max(np.abs(cand.z3)) > 1e-3):
            problems.append("candidate is trivial")
        C = orc.series_coefficients(*args, r=r)
        ps = self.ml.polysys
        inst = ps.PolySystemInstance(m, 1, r)
        gap = max(abs(ps.residual(inst, cand, e1, e2) - C[e1[0], e2])
                  for e1, e2 in ps.enumerate_equations(inst))
        if gap > 1e-12:
            problems.append(f"polysys.residual differs from the oracle by {gap:.3g}")
        return problems

    def _check_truth_regions(self) -> list:
        problems = []
        ml = self.ml
        for arrays, K, bounds, want in ((TRUTH_2D, 2, BOX_2D, [(0, 1), (0, 2), (1, 2)]),
                                        (TRUTH_1D, 1, BOX_1D, [(0,)])):
            truth = ml.model.true_measure(**arrays)
            sampler = RecordingSampler(bounds)
            got = [tuple(s) for s in ml.partition.positive_mass_subsets(truth, K, sampler, MASS_N_MC, seed=3)]
            oracle = orc.positive_mass_subsets(oracle_mixture(truth), K, sampler.X)
            if not got == oracle == want:
                problems.append(f"regions of the d={truth.d} truth at K={K}: {got}, oracle {oracle}, expected {want}")
        return problems


WORKLOADS = ("overspec-k3", "sparse-2d", "analysis")


def build(ml, name, seed, out_dir):
    if name == "analysis":
        return AnalysisWorkload(ml, seed)
    return sweep_workload(ml, name, out_dir)
