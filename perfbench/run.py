"""wsnsim benchmark: one workload per call, timed end to end or traced by layer.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Workloads: sweep, large-n, bound (see perfbench/README.md). The run
repeats the workload's fixed unit of work for --seconds (and at least
MIN_REPS times), checks every output, prints a table of all metrics with
units and a digest of the simulated outputs, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured without tracing. Work
times are divided by the time of a reference loop sampled during the same
repetition (calibration.py), because the host's speed drifts by tens of
percent between runs; the raw times are printed in the table.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones plus the tracing overhead. The seed
fixes all inputs; 0 is the default and 7 is held out for confirming
claims. wsnsim is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0             # seed 7 is held out, see README.md
SETUP_SAMPLES = 5            # this process plus four fresh child processes
MIN_REPS = 5
TAIL_BEYOND = 10             # operations beyond the tail, where there are enough

END_TO_END = {
    "setup_s": "s",
    "pass_ref": "ref",
    "op_ref_p50": "ref",
    "op_ref_tail": "ref",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "protocols.elect_us_per_round": "us/round",
    "protocols.teen_gate_us_per_round": "us/round",
    "protocols.form_clusters_us_per_round": "us/round",
    "protocols.teen_next_hop_us_per_round": "us/round",
    "protocols.teen_next_hop_calls": "count",
    "protocols.ch_per_round": "count",
    "engine.run_round_self_us": "us/round",
    "engine.rounds": "count",
    "network.deploy_ms": "ms",
    "network.deploy_calls": "count",
    "network.dist_matrix_mb": "MiB",
    "cli.write_ms": "ms",
    "cli.bytes_written": "bytes",
    "metrics.aggregate_ms": "ms",
    "energy_model.calls": "count",
    "lifetime_bound.solve_exact_ms": "ms",
    "lifetime_bound.solve_exhaustive_ms": "ms",
    "lifetime_bound.verify_ms": "ms",
    "lifetime_bound.oracle_checked": "count",
    "trace.overhead_pct": "%",
    "rounds_per_s": "1/s",
    "leach.us_per_round": "us/round",
    "teen.us_per_round": "us/round",
    "sep.us_per_round": "us/round",
    "deec.us_per_round": "us/round",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "large-n", "bound"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this process, print it and exit")
    return parser.parse_args(argv)


def set_up(args):
    """Import wsnsim from this checkout and build the workload's inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import wsnsim
    if not Path(wsnsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"wsnsim was imported from {wsnsim.__file__}, not {SRC}")
    import workloads
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    return workload, scratch, time.perf_counter() - t0


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """Highest nearest-rank percentile with TAIL_BEYOND values beyond it, but
    at least p90: (value, percentile, values beyond)."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND, math.ceil(0.9 * len(ordered)))
    return ordered[k - 1], 100 * k / len(ordered), len(ordered) - k


def calibrated_reps(workload, args):
    """Repeat the workload while the reference loop samples the host's speed.

    Returns the repetitions and, for each, the cost of each of its
    operations and of the rest of the repetition, in ref units: each time
    divided by the loop's median time around it.
    """
    import calibration
    import workloads
    gauge = calibration.Gauge()
    costs = []

    def step():
        gauge.sample()
        start = gauge.clock()
        rep = workload.rep()
        gauge.sample()
        ops = [s / gauge.near(at, s) for s, at in zip(rep.op_s, rep.op_at)]
        rest = (rep.wall_s - sum(rep.op_s)) / gauge.near(start, rep.wall_s)
        costs.append((ops, rest))
        return rep

    workloads.clock = gauge.clock
    try:
        with gauge.running():
            reps = repeat(args.seconds, 1 if args.smoke else MIN_REPS, step)
    finally:
        workloads.clock = time.perf_counter
    return reps, costs, statistics.median(gauge.slices)


def repeat(seconds, min_reps, step):
    deadline = time.perf_counter() + seconds
    out = []
    while len(out) < min_reps or time.perf_counter() < deadline:
        out.append(step())
    return out


def mark_nondeterminism(reps) -> None:
    """Outputs must be identical in every repetition; count any that differ."""
    for rep in reps[1:]:
        if rep.digest != reps[0].digest:
            rep.failed = rep.attempted


def simulation_rates(reps) -> dict[str, float]:
    """rounds_per_s and per-protocol host us per round, medians over reps."""
    rates = {}
    if any(rep.rounds for rep in reps):
        rates["rounds_per_s"] = statistics.median(
            sum(rep.rounds.values()) / rep.wall_s for rep in reps)
    for name in ("leach", "teen", "sep", "deec"):
        if any(name in rep.rounds for rep in reps):
            rates[f"{name}.us_per_round"] = statistics.median(
                rep.run_s[name] / rep.rounds[name] * 1e6 for rep in reps if name in rep.rounds)
    return rates


def layer_metrics(rep, spans, energy_calls, node_count) -> dict[str, float]:
    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def total_ns(name):
        return spans.get(name, (0, 0, 0))[1]

    def self_ns(name):
        return spans.get(name, (0, 0, 0))[2]

    rounds = sum(rep.rounds.values())

    def per_round_us(ns):
        return ns / rounds / 1e3 if rounds else 0.0

    return {
        "protocols.elect_us_per_round": per_round_us(total_ns("protocols.elect")),
        "protocols.teen_gate_us_per_round": per_round_us(total_ns("protocols.teen_gate")),
        "protocols.form_clusters_us_per_round": per_round_us(total_ns("protocols.form_clusters")),
        "protocols.teen_next_hop_us_per_round": per_round_us(total_ns("protocols.teen_next_hop")),
        "protocols.teen_next_hop_calls": calls("protocols.teen_next_hop"),
        "protocols.ch_per_round": rep.ch_total / rounds if rounds else 0.0,
        "engine.run_round_self_us": per_round_us(self_ns("engine.run_round")),
        "engine.rounds": rounds,
        "network.deploy_ms": total_ns("network.deploy") / 1e6,
        "network.deploy_calls": calls("network.deploy"),
        # computed, not measured: the dense float64 N x N distance matrix
        "network.dist_matrix_mb": 8 * node_count ** 2 / 2 ** 20,
        # everything cli.main does besides simulating, deploying and aggregating
        "cli.write_ms": (self_ns("cli.main") + total_ns("cli.write_trace_csv")) / 1e6,
        "cli.bytes_written": rep.bytes_written,
        "metrics.aggregate_ms": total_ns("metrics.aggregate") / 1e6,
        "energy_model.calls": energy_calls,
        # solve_exact's own time; the verify_schedule it calls is in verify_ms
        "lifetime_bound.solve_exact_ms": self_ns("lifetime_bound.solve_exact") / 1e6,
        "lifetime_bound.solve_exhaustive_ms": total_ns("lifetime_bound.solve_exhaustive") / 1e6,
        "lifetime_bound.verify_ms": total_ns("lifetime_bound.verify_schedule") / 1e6,
        "lifetime_bound.oracle_checked": rep.oracle_checked,
    }


def run_plain(workload, args):
    reps, costs, ref_s = calibrated_reps(workload, args)
    mark_nondeterminism(reps)
    n_ops = max(len(ops) for ops, _ in costs)
    if not n_ops:
        raise RuntimeError("no operation completed")
    # each operation's median cost over the repetitions that ran all of them
    full = [ops for ops, _ in costs if len(ops) == n_ops]
    ops = [statistics.median(column) for column in zip(*full)]
    op_tail, pct, beyond = tail(ops)
    metrics = {
        "pass_ref": statistics.median(sum(ops) + rest for ops, rest in costs),
        "op_ref_p50": statistics.median(ops),
        "op_ref_tail": op_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    table = {"wall_s": statistics.median(rep.wall_s for rep in reps),
             "ref_ms": ref_s * 1e3}
    notes = {"pass_ref": f"median of {len(reps)} repetitions",
             "op_ref_p50": f"over {n_ops} operations, each its median over {len(full)} repetitions",
             "op_ref_tail": f"p{pct:.4g} of the same, {beyond} beyond it",
             "wall_s": "raw: median repetition time, reference loop left out",
             "ref_ms": "raw: median time of one reference loop"}
    return reps, metrics, {**table, **simulation_rates(reps)}, notes


def run_traced(workload, args):
    import tracing
    tracer = tracing.Tracer()
    plain, traced = [], []

    def pair():
        plain.append(workload.rep())
        lo, calls_before = len(tracer), tracer.energy_calls[0]
        with tracer.installed():
            rep = tracer.wrap("rep", workload.rep)()
        spans = tracer.summary(lo, len(tracer))
        traced.append((rep, layer_metrics(rep, spans, tracer.energy_calls[0] - calls_before,
                                          workload.node_count)))

    repeat(args.seconds, 1 if args.smoke else 2, pair)
    reps = plain + [rep for rep, _ in traced]
    mark_nondeterminism(reps)
    # median_low keeps each value one repetition's own, so counts stay exact
    metrics = {name: statistics.median_low(layers[name] for _, layers in traced)
               for name in traced[0][1]}
    untraced_wall = statistics.median(rep.wall_s for rep in plain)
    traced_wall = statistics.median(rep.wall_s for rep, _ in traced)
    metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1) * 100
    rates = simulation_rates(plain)
    for name in ("rounds_per_s", "leach.us_per_round", "teen.us_per_round",
                 "sep.us_per_round", "deec.us_per_round"):
        metrics[name] = rates.get(name, 0.0)
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{args.workload}.npz"
    tracer.dump(span_file)
    notes = {"trace.overhead_pct": f"{len(traced)} traced vs {len(plain)} untraced repetitions",
             "spans": f"{len(tracer)} spans written to {span_file.relative_to(ROOT)}"}
    if tracer.skipped:
        notes["skipped"] = "not found, read as 0: " + ", ".join(sorted(tracer.skipped))
    return reps, metrics, {}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wsnsim" / "__init__.py").is_file():
        print(f"error: no wsnsim sources under {SRC}", file=sys.stderr)
        return 2
    workload, scratch, setup_s = set_up(args)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    try:
        if args.trace:
            reps, metrics, rates, notes = run_traced(workload, args)
            units = PER_LAYER
        else:
            children = 1 if args.smoke else SETUP_SAMPLES - 1
            samples = [setup_s] + [child_setup_s(args) for _ in range(children)]
            reps, metrics, rates, notes = run_plain(workload, args)
            metrics["setup_s"] = statistics.median(samples)
            notes["setup_s"] = f"median of {len(samples)} set-ups"
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
    print(f"digest {reps[0].digest}")
    rows = dict(metrics)
    rows.update(rates)
    rows["fail_frac"] = failed / attempted
    all_units = {**END_TO_END, **PER_LAYER, "wall_s": "s", "ref_ms": "ms", "fail_frac": "1"}
    for name, value in rows.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:14.6g} {all_units[name]:9s} {note}")
    for key in ("spans", "skipped"):
        if key in notes:
            print(f"  {notes[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
