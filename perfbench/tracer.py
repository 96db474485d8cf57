"""In-memory spans around moelab's functions, and the per-layer metrics made
from them.

A ``Tracer`` replaces a function at every name a moelab module binds it to,
which is the name its callers look up: ``em.fit`` calls ``gate_log_weights``
through ``moelab.em``'s namespace, ``sample_dataset`` through
``moelab.model``'s.  Each call records a span (name, start, end, thread,
enclosing span) in a list; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("model", "em", "metrics", "partition", "polysys", "experiments")


class Span:
    __slots__ = ("name", "thread", "parent", "t0", "t1", "args", "result", "before")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.args = self.result = self.before = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def public_functions():
    """{"layer.name": function} for the public functions each layer defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"moelab.{layer}"]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Wraps the given functions wherever a moelab module binds them.

    ``targets`` maps span names to function objects.  The arguments and the
    return value of ``em.fit`` calls are stored on their spans, for the
    checks of the fits.  ``before`` maps span names to a function called
    with no arguments just before each such span starts; its result is kept
    on the span.
    """

    def __init__(self, targets: dict, before=None):
        self.spans = []
        self._tls = threading.local()
        self._patched = []
        self._before = before or {}
        by_id = {id(fn): (name, fn) for name, fn in targets.items()}
        modules = [m for n, m in sys.modules.items() if n == "moelab" or n.startswith("moelab.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in by_id:
                    name, fn = by_id[id(obj)]
                    self._patched.append((mod, attr, fn, self._wrap(name, fn, name == "em.fit")))

    def _wrap(self, name, fn, keep):
        spans, tls, clock = self.spans, self._tls, time.perf_counter
        before = self._before.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            span = Span(name, threading.get_ident(), stack[-1] if stack else None)
            if before is not None:
                span.before = before()
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                spans.append(span)
            if keep:
                span.args, span.result = args, result
            return result

        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn, _ in self._patched:
            setattr(mod, attr, fn)
        return False

    def take(self) -> list:
        """The spans recorded so far, removed from the tracer."""
        out, self.spans[:] = list(self.spans), []
        return out


def write_spans(spans, path) -> None:
    """One JSON line per span: name, thread, span id, parent id, start and
    duration in microseconds from the first span."""
    ids = {id(s): i for i, s in enumerate(spans)}
    t_ref = min((s.t0 for s in spans), default=0.0)
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            parent = ids.get(id(s.parent)) if s.parent is not None else None
            fh.write(json.dumps([s.name, s.thread, i, parent, round((s.t0 - t_ref) * 1e6, 1),
                                 round(s.seconds * 1e6, 1)]) + "\n")


def layer_metrics(spans, parallelism: int, sweep_cpu_s: float) -> dict:
    """Per-layer counts and times of one round, by metric name."""
    by = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by[s.name].append(s)
        if s.parent is not None:
            child_s[id(s.parent)] += s.seconds

    def calls(name):
        return len(by[name])

    def ms(*names):
        return 1e3 * sum(s.seconds for n in names for s in by[n])

    def mean_us(name):
        return 1e6 * sum(s.seconds for s in by[name]) / len(by[name]) if by[name] else 0.0

    fits = [s.result for s in by["em.fit"] if s.result is not None]
    iterations = sum(f.iterations for f in fits)
    sweeps = by["experiments.run_sweep"]
    sweep_threads = {s.thread for s in sweeps}
    # Row work: what run_sweep calls directly on its own thread, and every
    # outermost span on the worker threads of its pool.
    row_s = sum(
        s.seconds for s in spans
        if (s.parent is not None and s.parent.name == "experiments.run_sweep")
        or (s.parent is None and sweeps and s.thread not in sweep_threads)
    )
    sweep_s = sum(s.seconds for s in sweeps)
    losses = ("metrics.loss_d1", "metrics.loss_d2", "metrics.loss_d3")
    return {
        "em.m_step_gating.calls": calls("em.m_step_gating"),
        "em.m_step_gating.ms": ms("em.m_step_gating"),
        "em.iterations": iterations,
        "em.iterations.max": max((f.iterations for f in fits), default=0),
        "em.unconverged": sum(not f.converged for f in fits),
        "em.fit.calls": calls("em.fit"),
        "em.fit.self_ms": 1e3 * sum(s.seconds - child_s[id(s)] for s in by["em.fit"]),
        "em.m_step_experts.ms": ms("em.m_step_experts"),
        "em.ms_per_iteration": ms("em.fit") / iterations if iterations else 0.0,
        "model.expert_log_density_matrix.calls": calls("model.expert_log_density_matrix"),
        "model.expert_log_density_matrix.ms": ms("model.expert_log_density_matrix"),
        "model.sample_dataset.ms": ms("model.sample_dataset"),
        "model.gate_log_weights.calls": calls("model.gate_log_weights"),
        "model.gate_log_weights.ms": ms("model.gate_log_weights"),
        "experiments.run_sweep.ms": 1e3 * sweep_s,
        "experiments.busy_ratio": row_s / (sweep_s * parallelism) if sweep_s else 0.0,
        "experiments.cpu_s": sweep_cpu_s if sweeps else 0.0,
        "metrics.expected_hellinger.calls": calls("metrics.expected_hellinger"),
        "metrics.expected_hellinger.ms": ms("metrics.expected_hellinger"),
        "metrics.hellinger_pointwise.calls": calls("metrics.hellinger_pointwise"),
        "metrics.hellinger_pointwise.us": mean_us("metrics.hellinger_pointwise"),
        "metrics.loss.calls": sum(calls(n) for n in losses),
        "metrics.loss.ms": ms(*losses),
        "partition.positive_mass_subsets.ms": ms("partition.positive_mass_subsets"),
        "polysys.search_nontrivial.ms": ms("polysys.search_nontrivial"),
        # search_nontrivial verifies each restart's end point once.
        "polysys.restarts": sum(
            1 for s in by["polysys.max_abs_residual"]
            if s.parent is not None and s.parent.name == "polysys.search_nontrivial"
        ),
        "polysys.residual.calls": calls("polysys.residual"),
        "polysys.residual.us": mean_us("polysys.residual"),
    }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("ms") or ".ms_per_" in metric:
        return "ms"
    if metric.endswith(".us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def mean_metrics(per_round: list) -> dict:
    """Mean over rounds of each metric."""
    return {k: math.fsum(r[k] for r in per_round) / len(per_round) for k in per_round[0]}
