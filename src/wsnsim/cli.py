"""Command-line interface: run / compare / bound subcommands.

All outputs are deterministic functions of (config, protocols, seeds):
rerunning a command reproduces byte-identical files. Topologies depend
only on the seed, never on the protocol, so protocols compared under the
same seed see the same field.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .engine import run_simulation, write_summary_json, write_trace_csv
from .lifetime_bound import (
    MAX_ROUNDS,
    bound_for_simulated_network,
    instance_from_text,
    instance_to_text,
    schedule_to_text,
    solve_exact,
)
from .metrics import aggregate, network_lifetime, run_metrics, write_summary_stats_csv
from .network import NetworkConfig, config_as_items, config_from_items, deploy, load_config, split_entry
from .protocols import Protocol, make_protocol


def _reject_repeats(kind: str, items: list) -> None:
    repeats = [item for item, count in Counter(items).items() if count > 1]
    if repeats:
        raise ValueError(f"{kind} {repeats[0]} given more than once")


def parse_seeds(spec: str) -> list[int]:
    """Seed list syntax: `7`, `1,2,5`, or an inclusive range `1..20`; no seed twice."""
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            bounds = [int(bound) for bound in part.split("..", 1)]
        except ValueError:
            raise ValueError(f"--seeds takes integers such as 7, 1,2,5 or 1..20, "
                             f"got {part!r}") from None
        lo, hi = bounds[0], bounds[-1]
        if hi < lo:
            raise ValueError(f"--seeds has a reversed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ValueError(f"--seeds lists no seeds: {spec!r}")
    _reject_repeats("seed", seeds)
    return seeds


def parse_protocols(spec: str) -> list[Protocol]:
    protocols = [make_protocol(name) for name in spec.split(",") if name.strip()]
    if not protocols:
        raise ValueError("no protocols given")
    _reject_repeats("protocol", [p.name for p in protocols])
    return protocols


def _load_effective_config(args) -> NetworkConfig:
    """The default config or the config file over it, then --override."""
    config = load_config(args.config, base=args.default_config) if args.config else args.default_config
    return config_from_items(dict(split_entry(entry, "--override") for entry in args.override),
                             base=config)


def _show_config(config: NetworkConfig) -> int:
    for key, value in config_as_items(config).items():
        print(f"{key} = {value}")
    return 0


def _write_run_outputs(out_dir: Path, result) -> None:
    prefix = f"{result.protocol}_seed{result.seed}"
    with open(out_dir / f"{prefix}_trace.csv", "w", encoding="utf-8") as fh:
        write_trace_csv(result, fh)
    with open(out_dir / f"{prefix}_summary.json", "w", encoding="utf-8") as fh:
        write_summary_json(result, fh)


def _sweep(args) -> int:
    """Run every protocol on every seed, writing each run's files as it returns.

    `run` and `compare` write the same files: each seed's topology once,
    each run's trace and summary, and `summary_stats.csv`; `compare` only
    defaults to all four protocols and needs two or more. Only each run's
    `run_metrics` row outlives it; every check runs before the output
    directory is created.
    """
    config = _load_effective_config(args)
    if args.show_config:
        return _show_config(config)
    if config.max_rounds < 1:
        raise ValueError("max_rounds must be >= 1 to run a simulation")
    protocols = parse_protocols(args.protocol)
    if args.compare and len(protocols) < 2:
        raise ValueError("compare needs at least two protocols")
    seeds = parse_seeds(args.seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for seed in seeds:
        with open(out_dir / f"seed{seed}_topology.csv", "w", encoding="utf-8") as fh:
            deploy(config, seed).write_topology_csv(fh)
    runs = []
    for protocol in protocols:
        for seed in seeds:
            result = run_simulation(config, protocol, seed)
            _write_run_outputs(out_dir, result)
            runs.append(run_metrics(result))
    with open(out_dir / "summary_stats.csv", "w", encoding="utf-8") as fh:
        write_summary_stats_csv(aggregate(runs), fh)
    if args.require_termination and all(run["censored"] for run in runs):
        print("error: every run was censored at max_rounds", file=sys.stderr)
        return 1
    return 0


def cmd_bound(args) -> int:
    if args.instance:
        # the flags only a deployed network reads are None (--override empty) unless given
        for name in ("config", "override", "seed", "check_sim", "show_config"):
            if getattr(args, name) not in (None, []):
                raise ValueError(f"--{name.replace('_', '-')} does not apply to an instance file")
        instance = instance_from_text(Path(args.instance).read_text(encoding="utf-8"))
    else:
        config = _load_effective_config(args)
        if args.show_config:
            return _show_config(config)
        seed = 1 if args.seed is None else args.seed
        instance = bound_for_simulated_network(deploy(config, seed), k_max=config.max_rounds)

    # every refusal, the unusable --out included, comes before the solve prints
    instance.check_solver_guards()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    k_star, schedule = solve_exact(instance)
    print(f"K* = {k_star}")
    with open(out_dir / "bound_schedule.txt", "w", encoding="utf-8") as fh:
        fh.write(schedule_to_text(schedule))
    with open(out_dir / "bound_instance.txt", "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(instance))

    if args.check_sim:
        # K* counts at most K = max_rounds rounds, so it bounds min(lifetime, K)
        result = run_simulation(config, Protocol("leach"), seed)
        lifetime = network_lifetime(result.trace, result.n_nodes)
        print(f"simulated lifetime {'>=' if result.censored else '='} {lifetime}")
        if lifetime > k_star:
            print(f"error: simulated lifetime {lifetime} exceeds bound {k_star}",
                  file=sys.stderr)
            return 1
        print("bound dominance holds")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsnsim",
                                     description="WSN clustering protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="config override (repeatable)")
    common.add_argument("--show-config", action="store_true", default=None,
                        help="print the effective config and exit")
    common.set_defaults(default_config=NetworkConfig())

    for name, protocols, summary in (
            ("run", "leach", "run one or more protocols"),
            ("compare", "leach,teen,sep,deec", "run several protocols on shared topologies")):
        sweep_p = sub.add_parser(name, parents=[common], help=summary)
        sweep_p.add_argument("--protocol", default=protocols,
                             help="comma-separated protocol list")
        sweep_p.add_argument("--seeds", default="1", help="e.g. 7 or 1,2,5 or 1..20")
        sweep_p.add_argument("--max-rounds", dest="override", action="append",
                             type="max_rounds={}".format, metavar="N",
                             help="shorthand for --override max_rounds=N")
        sweep_p.add_argument("--require-termination", action="store_true",
                             help="fail if every run hits max_rounds with survivors")
        sweep_p.set_defaults(func=_sweep, compare=name == "compare")

    bound_p = sub.add_parser("bound", parents=[common],
                             help="solve the exact lifetime bound on a tiny instance")
    bound_p.add_argument("instance", nargs="?",
                         help="instance file (matrix format); without it, deploy the network")
    bound_p.add_argument("--seed", type=int, help="deployment seed (default 1)")
    bound_p.add_argument("--check-sim", action="store_true", default=None,
                         help="also run LEACH on the network for K = max_rounds rounds and "
                              "assert min(lifetime, K) <= K*")
    # a 4-node network by default, and K = max_rounds: small enough for the exact solver
    bound_p.set_defaults(func=cmd_bound,
                         default_config=NetworkConfig(node_count=4, max_rounds=MAX_ROUNDS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
