"""moelab benchmark: run one workload for a given time and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; moelab is imported from ``src/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` every public function of
moelab's layers is wrapped and the metrics are per layer, per round.
End-to-end times are scaled to a nominal host speed (``hostspeed.py``).
Results, sweep CSVs and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCES, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# Every run makes at least this many rounds.  round_s and each operation's
# latency are medians over the rounds.
MIN_ROUNDS = 3

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "op_ms_gmean": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="import moelab, build the inputs, and exit (times set-up)")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load(workloads, args):
    """Import moelab from the checkout and build the workload's inputs."""
    import moelab

    if Path(moelab.__file__).resolve().parent != (SRC / "moelab").resolve():
        raise ImportError(f"moelab was imported from {moelab.__file__}, not from {SRC}")
    return workloads.build(moelab, args.workload, args.seed, OUT)


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import moelab, build the
    workload's inputs and exit.  Not scaled: a reference timed between two
    interpreters reads up to three times its usual time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled_latencies(rounds) -> list:
    """Per round, each operation's scaled latency in ms; every round runs the
    same operations in the same order."""
    per_round = [[scaled(t, ref) for t, ref in zip(r.latencies_ms, r.reference_ms)] for r in rounds]
    if len({len(x) for x in per_round} | {len(r.latencies_ms) for r in rounds}) != 1:
        raise ValueError(f"rounds timed different numbers of operations: {[len(x) for x in per_round]}")
    return per_round


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "moelab" / "__init__.py").is_file():
        print(f"error: no moelab sources at {SRC / 'moelab'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        load(workloads, args)
        return 0
    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else setup_seconds(args)
    wl = load(workloads, args)
    # The traced run reports per-layer figures only, so it times no reference.
    reference = None if args.trace else REFERENCES[wl.reference]
    from tracer import Tracer, layer_metrics, mean_metrics, public_functions, unit_of, write_spans

    functions = public_functions()
    if args.trace:
        tracer = Tracer(functions)
    else:
        tracer = Tracer({name: functions[name] for name in wl.hooks},
                        before={wl.row_start: reference} if wl.row_start else None)

    rounds, first_spans, per_layer = [], None, []
    with tracer:
        t_begin = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_begin < args.seconds:
            rnd = wl.run_round(reference)
            spans = tracer.take()
            if wl.row_start and not args.trace:
                rnd.latencies_ms, rnd.reference_ms = wl.latencies(spans)
            if args.trace:
                per_layer.append(layer_metrics(spans, 1, rnd.cpu_s))
            if first_spans is None:
                first_spans = spans
            else:
                # Only the first round's outputs are checked; dropping the rest
                # keeps peak memory independent of the number of rounds.
                rnd.payload = None
            rounds.append(rnd)
        # Peak memory of the timed rounds, before the checks allocate their own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pool = wl.pool_run()
        pool_spans = tracer.take()

    problems = wl.check(rounds, first_spans, pool and pool[2])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        metrics = mean_metrics(per_layer)
        metrics["experiments.run_sweep.p1_ms"] = metrics["experiments.run_sweep.ms"]
        # The thread-pool figures come from the sweep at parallelism 2.
        pooled = layer_metrics(pool_spans, 2, pool[1]) if pool else {}
        for k in ("experiments.run_sweep.ms", "experiments.busy_ratio", "experiments.cpu_s"):
            metrics[k] = pooled.get(k, 0.0)
        metrics["traced.wall_s"] = min(r.wall_s for r in rounds)
        write_spans(first_spans, OUT / f"spans-{tag}.jsonl")
        units = {k: unit_of(k) for k in metrics}
    else:
        per_round = scaled_latencies(rounds)
        metrics = {
            "setup_s": setup_s,
            "round_s": statistics.median(math.fsum(x) for x in per_round) / 1e3,
            # Geometric, not median: the operations of a round fall into a few
            # groups of very different cost, and a median jumps between them.
            "op_ms_gmean": statistics.geometric_mean([statistics.median(op) for op in zip(*per_round)]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    refs = [x for r in rounds for x in r.reference_ms]
    print(f"{args.workload}: {len(rounds)} rounds of "
          f"{', '.join(f'{r.wall_s:.3f}' for r in rounds)} s wall, {result['attempted']} operations, "
          f"{result['failed']} failed, {len(problems)} check failures"
          + (f", reference median {statistics.median(refs):.2f} ms" if refs else ""), file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
