"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop in one thread: the next simulation run or
solve starts only when the previous one has returned. `rep()` performs one
fixed unit of work, times it, checks its outputs, and returns a `Rep`;
run.py repeats it for the requested number of seconds. All
inputs are derived from the workload seed, so one seed always gives the
same work, and a later commit is timed on the same inputs.

wsnsim is called through module attributes (`cli.main`,
`engine.run_simulation`, `lifetime_bound.solve_exact`, ...) so the tracer
can wrap them where they are looked up.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from wsnsim import cli, engine, lifetime_bound, network, protocols
from wsnsim.lifetime_bound import BoundInstance
from wsnsim.network import NetworkConfig

LEDGER_TOLERANCE_J = 1e-9
PROTOCOL_NAMES = ("leach", "teen", "sep", "deec")

# Every work time is read from this clock. The end-to-end run replaces it
# with one that leaves out the reference loop's samples (calibration.py).
clock = time.perf_counter


@dataclass
class Rep:
    """Outcome of one unit of work."""

    wall_s: float
    op_s: list[float]                   # host time of each run or instance, in a fixed order
    op_at: list[float]                  # clock() when each of them started
    attempted: int
    failed: int
    digest: str                         # over the simulated outputs only
    rounds: dict[str, int] = field(default_factory=dict)      # per protocol
    run_s: dict[str, float] = field(default_factory=dict)     # per protocol
    ch_total: int = 0                   # CHs elected, summed over all rounds
    bytes_written: int = 0
    oracle_checked: int = 0


def ledger_closes(result, initial_total: float) -> bool:
    """True when every round's debit equals that round's drop in residual energy."""
    if len(result.round_debits) != len(result.trace):
        return False
    before = initial_total
    for metrics, debit in zip(result.trace, result.round_debits):
        after = metrics.total_residual_energy
        if not abs((before - after) - debit) <= LEDGER_TOLERANCE_J:
            return False
        before = after
    return True


def _initial_total(config: NetworkConfig, seed: int) -> float:
    # the unwrapped deploy, so the check adds no spans or deploy calls
    return math.fsum(n.initial_energy for n in network.deploy(config, seed).nodes)


def _result_bytes(result) -> bytes:
    buf = io.StringIO()
    engine.write_trace_csv(result, buf)
    json.dump(engine.summary_dict(result), buf, sort_keys=True)
    return buf.getvalue().encode()


class Sweep:
    """`wsnsim compare` over all four protocols, in-process through `cli.main`.

    The paper's experiment at the default N = 100 config. Seed 0 runs
    simulation seeds 1..K, the start of the acceptance sweep 1..20; seed s
    runs the K seeds after those of seed s-1. Small rounds (~10 CHs), so the
    per-node Python loops of election and `run_round` dominate; the only
    workload that writes the CLI's artifacts.
    """

    name = "sweep"
    node_count = 100

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        per_seed = 1 if smoke else 2
        self.first = 1 + per_seed * seed
        self.last = self.first + per_seed - 1
        self.argv = ["compare", "--protocol", ",".join(PROTOCOL_NAMES),
                     f"--seeds={self.first}..{self.last}"]
        if smoke:
            self.argv.append("--max-rounds=40")
        self.expected_runs = len(PROTOCOL_NAMES) * per_seed
        self.scratch = scratch
        self._initial: dict[int, float] = {}
        self._count = 0

    def describe(self) -> str:
        return (f"compare {','.join(PROTOCOL_NAMES)} over simulation seeds "
                f"{self.first}..{self.last}, N={self.node_count}")

    def rep(self) -> Rep:
        self._count += 1
        out = self.scratch / f"sweep-{self._count}"
        runs = []
        inner = cli.run_simulation

        def timed_run(config, protocol, seed):
            t0 = clock()
            result = inner(config, protocol, seed)
            runs.append((config, result, t0, clock() - t0))
            return result

        cli.run_simulation = timed_run
        t0 = clock()
        try:
            code = cli.main(self.argv + ["--out", str(out)])
        except Exception:
            traceback.print_exc()
            code = None
        finally:
            cli.run_simulation = inner
        wall = clock() - t0

        rep = Rep(wall_s=wall, op_s=[], op_at=[], attempted=self.expected_runs, failed=0,
                  digest="")
        if code != 0 or len(runs) != self.expected_runs:
            rep.failed = self.expected_runs
        for config, result, started, seconds in runs:
            rep.op_at.append(started)
            rep.op_s.append(seconds)
            rep.rounds[result.protocol] = rep.rounds.get(result.protocol, 0) + len(result.trace)
            rep.run_s[result.protocol] = rep.run_s.get(result.protocol, 0.0) + seconds
            rep.ch_total += sum(m.ch_count for m in result.trace)
            if result.seed not in self._initial:
                self._initial[result.seed] = _initial_total(config, result.seed)
            if not ledger_closes(result, self._initial[result.seed]) and code == 0:
                rep.failed += 1
        # the digest covers every artifact the CLI wrote
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            rep.bytes_written += len(data)
            digest.update(path.name.encode() + b"\0" + data)
        rep.digest = digest.hexdigest()
        shutil.rmtree(out, ignore_errors=True)
        return rep


class LargeN:
    """`run_simulation` for LEACH, TEEN and DEEC at N = 1600, rounds capped.

    About 160 CHs per round, so `form_clusters`, TEEN's O(CH^2) next-hop
    search and the dense N x N distance matrix dominate. The cap keeps every
    run censored with no deaths, so each round does a similar amount of work.
    Seed s runs simulation seed 1 + s.
    """

    name = "large-n"
    node_count = 1600
    protocol_names = ("leach", "teen", "deec")

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.config = NetworkConfig(node_count=self.node_count,
                                    max_rounds=2 if smoke else 40)
        self.sim_seed = 1 + seed
        self._initial = None

    def describe(self) -> str:
        return (f"run_simulation {','.join(self.protocol_names)} at N={self.node_count}, "
                f"max_rounds={self.config.max_rounds}, simulation seed {self.sim_seed}")

    def rep(self) -> Rep:
        results = []
        t0 = clock()
        try:
            for name in self.protocol_names:
                t_run = clock()
                result = engine.run_simulation(
                    self.config, protocols.make_protocol(name, self.config), self.sim_seed)
                results.append((result, t_run, clock() - t_run))
        except Exception:
            traceback.print_exc()
            return Rep(wall_s=clock() - t0, op_s=[], op_at=[],
                       attempted=len(self.protocol_names),
                       failed=len(self.protocol_names), digest="error")
        wall = clock() - t0

        if self._initial is None:
            self._initial = _initial_total(self.config, self.sim_seed)
        rep = Rep(wall_s=wall, op_s=[], op_at=[], attempted=len(self.protocol_names), failed=0,
                  digest="")
        digest = hashlib.sha256()
        for result, started, seconds in results:
            rep.op_at.append(started)
            rep.op_s.append(seconds)
            rep.rounds[result.protocol] = len(result.trace)
            rep.run_s[result.protocol] = seconds
            rep.ch_total += sum(m.ch_count for m in result.trace)
            if not ledger_closes(result, self._initial):
                rep.failed += 1
            digest.update(_result_bytes(result))
        rep.digest = digest.hexdigest()
        return rep


def _random_instance(rng: random.Random, n_sensors, n_chs, n_ranges, k_max) -> BoundInstance:
    """Criterion 7's instance generator, with the shape ranges as parameters."""
    n, m, z, k = (rng.randint(*n_sensors), rng.randint(*n_chs),
                  rng.randint(*n_ranges), rng.randint(*k_max))
    energies = tuple(round(rng.uniform(0.2, 1.5), 3) for _ in range(z))
    budget = round(rng.uniform(0.5, 3.0), 3)
    coverage = tuple(tuple(tuple(rng.random() < 0.7 for _ in range(m)) for _ in range(z))
                     for _ in range(n))
    return BoundInstance(n_sensors=n, n_chs=m, n_ranges=z, k_max=k,
                         range_energies=energies, budget=budget, coverage=coverage)


def _relabel(instance: BoundInstance, rng: random.Random) -> BoundInstance:
    """Permute the targets and rescale all energies by one power of two.

    Power-of-two scaling is exact in binary floating point, so every budget
    comparison and the optimum K* are unchanged. Sensor order is kept: both
    solvers search assignments in sensor order, and permuting sensors moved
    a set's cost by about 25% between seeds.
    """
    targets = list(range(instance.n_chs))
    rng.shuffle(targets)
    scale = 2.0 ** rng.randint(-4, 4)
    coverage = tuple(tuple(tuple(per_range[j] for j in targets) for per_range in per_sensor)
                     for per_sensor in instance.coverage)
    return BoundInstance(n_sensors=instance.n_sensors, n_chs=instance.n_chs,
                         n_ranges=instance.n_ranges, k_max=instance.k_max,
                         range_energies=tuple(e * scale for e in instance.range_energies),
                         budget=instance.budget * scale, coverage=coverage)


# Shapes: criterion 7's (N <= 4), checked against the oracle, and a larger
# tier within the exact solver's guards that only solve_exact can handle.
ORACLE_SHAPE = ((1, 4), (1, 2), (1, 2), (1, 10))
EXACT_SHAPE = ((5, 6), (1, 2), (1, 2), (4, 12))


class Bound:
    """`solve_exact` + `verify_schedule` over a seeded instance set.

    Solver cost depends steeply on instance shape, so drawing fresh shapes
    per seed would make seeds incomparable. The set is therefore a pinned
    base set, relabelled by the seed (`_relabel`): every seed has the same
    shapes, optima and solver work, on different inputs. Instances of
    criterion 7's shape also go through `solve_exhaustive`, which must agree.
    """

    name = "bound"
    node_count = 0

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        n_oracle, n_exact = (8, 2) if smoke else (240, 60)
        base = random.Random("perfbench:bound-base")
        shapes = [(ORACLE_SHAPE, True)] * n_oracle + [(EXACT_SHAPE, False)] * n_exact
        relabel = random.Random(f"perfbench:bound:{seed}")
        self.instances = [(_relabel(_random_instance(base, *shape), relabel), oracle)
                          for shape, oracle in shapes]
        self.seed = seed

    def describe(self) -> str:
        n_oracle = sum(1 for _, oracle in self.instances if oracle)
        return (f"{len(self.instances)} instances ({n_oracle} also through the "
                f"oracle), relabelled by seed {self.seed}")

    def rep(self) -> Rep:
        rep = Rep(wall_s=0.0, op_s=[], op_at=[], attempted=len(self.instances), failed=0,
                  digest="")
        answers = []
        t0 = clock()
        for instance, oracle in self.instances:
            t_op = clock()
            try:
                k_star, schedule = lifetime_bound.solve_exact(instance)
                feasible, _ = lifetime_bound.verify_schedule(instance, schedule)
                k_oracle = lifetime_bound.solve_exhaustive(instance) if oracle else None
            except Exception:
                traceback.print_exc()
                rep.failed += 1
                continue
            finally:
                rep.op_at.append(t_op)
                rep.op_s.append(clock() - t_op)
            if not feasible or schedule.objective() != k_star or (
                    oracle and k_oracle != k_star):
                rep.failed += 1
            rep.oracle_checked += oracle
            answers.append((k_star, k_oracle, schedule))
        rep.wall_s = clock() - t0

        digest = hashlib.sha256()
        for k_star, k_oracle, schedule in answers:
            digest.update(f"{k_star} {k_oracle}\n".encode())
            digest.update(lifetime_bound.schedule_to_text(schedule).encode())
        rep.digest = digest.hexdigest()
        return rep


WORKLOADS = {cls.name: cls for cls in (Sweep, LargeN, Bound)}
