"""Exact small-instance solver for the network-lifetime activation problem.

The model: N sensors with a shared per-sensor energy budget E must, in
every active round, have at least one of them cover every CH position,
each active sensor using exactly one of Z sensing ranges with per-round
cost e_z. Maximizing the number of active rounds bounds the achievable
network lifetime from above.

Two independent solution paths are kept deliberately separate:
`solve_exact` is a branch-and-bound over minimal covering assignments,
while `solve_exhaustive` enumerates every affordable covering assignment
round by round (memoized on remaining budgets) and serves as the oracle
the branch-and-bound is tested against. Each solve builds one coverage
encoding and one budget table, and both searches read them. Coverage is a
bitmask per (sensor, range): an assignment covers when the OR of its
active masks has all M bits set. A sensor's activation counts are interned
as a small int, and the table maps (state, range) to the state after one
more activation at that range, or to "unaffordable". States stop at k_max
activations, since a sensor is active at most once per round. Both solvers
fill the table through the same affordability helper, so their
floating-point budget arithmetic agrees bit for bit, and the masks and the
table die with the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import getitem
from typing import Optional

from .energy_model import crossover_distance, tx_energy
from .network import Network

MAX_SENSORS = 8
MAX_CHS = 4
MAX_RANGES = 3
MAX_ROUNDS = 16


class InstanceTooLargeError(ValueError):
    pass


def _check_sizes(**sizes: int) -> None:
    """Reject an empty instance: no sensors, CHs or ranges, or no rounds."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class BoundInstance:
    """One activation-scheduling instance.

    coverage[i][z][j] is True when sensor i operating at range z covers CH
    position j.
    """

    n_sensors: int
    n_chs: int
    n_ranges: int
    k_max: int
    range_energies: tuple[float, ...]
    budget: float
    coverage: tuple[tuple[tuple[bool, ...], ...], ...]

    def __post_init__(self):
        _check_sizes(n_sensors=self.n_sensors, n_chs=self.n_chs,
                     n_ranges=self.n_ranges, k_max=self.k_max)
        if len(self.range_energies) != self.n_ranges:
            raise ValueError("range_energies length must equal n_ranges")
        if not all(math.isfinite(e) and e > 0 for e in self.range_energies):
            raise ValueError(f"range energies must be positive and finite, "
                             f"got {self.range_energies}")
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ValueError(f"budget must be positive and finite, got {self.budget!r}")
        if len(self.coverage) != self.n_sensors or any(
                len(rows) != self.n_ranges or any(len(row) != self.n_chs for row in rows)
                for rows in self.coverage):
            raise ValueError("coverage tensor must be n_sensors x n_ranges x n_chs")

    def check_solver_guards(self) -> None:
        """The size guard of both solvers; instances past it can still be built."""
        if (self.n_sensors > MAX_SENSORS or self.n_chs > MAX_CHS
                or self.n_ranges > MAX_RANGES or self.k_max > MAX_ROUNDS):
            raise InstanceTooLargeError(
                f"instance exceeds exact-solver guards "
                f"(N <= {MAX_SENSORS}, M <= {MAX_CHS}, Z <= {MAX_RANGES}, "
                f"K <= {MAX_ROUNDS}): got N={self.n_sensors}, M={self.n_chs}, "
                f"Z={self.n_ranges}, K={self.k_max}")


# an assignment maps each sensor to a range index, or -1 for idle
Assignment = tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    """Activation plan: rounds[k] is round k's assignment, over n_ranges = Z ranges.

    A round is active when some sensor in it is active.
    """

    n_ranges: int
    rounds: tuple[Assignment, ...]

    def active_rounds(self) -> list[bool]:
        return [any(z >= 0 for z in assignment) for assignment in self.rounds]

    def objective(self) -> int:
        return sum(self.active_rounds())


def _sensor_cost(counts: tuple[int, ...], energies: tuple[float, ...]) -> float:
    """Total energy for a sensor's activation counts; the one shared arithmetic."""
    return sum(c * e for c, e in zip(counts, energies))


def _with_activation(counts: tuple[int, ...], z: int) -> tuple[int, ...]:
    return counts[:z] + (counts[z] + 1,) + counts[z + 1:]


def _affordable(counts: tuple[int, ...], z: int, instance: BoundInstance) -> bool:
    return _sensor_cost(_with_activation(counts, z), instance.range_energies) <= instance.budget


class _Memo(dict):
    """A dict that fills a missing key with `fill(key)`; each lives for one solve."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _budget_table(instance: BoundInstance) -> _Memo:
    """state -> the state after one more activation at each range z, then the state itself.

    A state is a sensor's activation counts, interned as a small int; state 0
    is no activation. A step is None when it is unaffordable or would take
    the sensor past k_max activations, which no k_max-round schedule needs.
    The trailing entry makes row[-1], the idle choice, leave the state as is.
    """
    counts_of = [(0,) * instance.n_ranges]
    ids = {counts_of[0]: 0}

    def intern(counts: tuple[int, ...]) -> int:
        if counts not in ids:
            ids[counts] = len(counts_of)
            counts_of.append(counts)
        return ids[counts]

    def row(state: int) -> tuple[Optional[int], ...]:
        counts = counts_of[state]
        capped = sum(counts) == instance.k_max
        return tuple(None if capped or not _affordable(counts, z, instance)
                     else intern(_with_activation(counts, z))
                     for z in range(instance.n_ranges)) + (state,)

    return _Memo(row)


def _coverage_masks(instance: BoundInstance) -> list[tuple[int, ...]]:
    """masks[i][z]: bit j set when sensor i at range z covers CH j.

    Each row ends with a 0, so masks[i][-1], the idle choice, covers nothing.
    """
    return [tuple(sum(1 << j for j, covered in enumerate(row) if covered) for row in rows)
            + (0,) for rows in instance.coverage]


def _covering_assignments(instance: BoundInstance,
                          masks: list[tuple[int, ...]]) -> list[Assignment]:
    """Every assignment whose active masks OR to all M bits, in product order."""
    partial: list[tuple[Assignment, int]] = [((), 0)]
    for sensor_masks in masks:
        partial = [(a + (z,), covered | sensor_masks[z])
                   for a, covered in partial for z in range(-1, instance.n_ranges)]
    full = (1 << instance.n_chs) - 1
    return [a for a, covered in partial if covered == full]


def _is_minimal(assignment: Assignment, masks: list[tuple[int, ...]]) -> bool:
    """True when every active sensor of a covering assignment covers a CH alone."""
    once = twice = 0
    for row, z in zip(masks, assignment):
        twice |= once & row[z]
        once |= row[z]
    alone = once & ~twice
    for row, z in zip(masks, assignment):
        if z >= 0 and not row[z] & alone:
            return False
    return True


def _assignment_cost(assignment: Assignment, instance: BoundInstance) -> float:
    return sum(instance.range_energies[z] for z in assignment if z >= 0)


def verify_schedule(instance: BoundInstance,
                    schedule: Schedule) -> tuple[bool, list[tuple]]:
    """Check the budget (1a) and coverage (1c); violations carry their indices.

    A schedule holds one range or none per sensor per round, so it cannot
    break (1b). A range index outside -1..Z-1 is reported as ("1d", i, k),
    and then nothing else is read.
    """
    n, z_count = instance.n_sensors, instance.n_ranges
    if (schedule.n_ranges != z_count or len(schedule.rounds) != instance.k_max
            or any(len(assignment) != n for assignment in schedule.rounds)):
        raise ValueError("schedule dimensions do not match instance")

    violations: list[tuple] = [("1d", i, k) for k, assignment in enumerate(schedule.rounds)
                               for i, z in enumerate(assignment) if z not in range(-1, z_count)]
    if violations:
        return False, violations

    # 1a: per-sensor lifetime budget (counts form, same arithmetic as solvers)
    for i in range(n):
        counts = tuple(sum(1 for assignment in schedule.rounds if assignment[i] == z)
                       for z in range(z_count))
        if _sensor_cost(counts, instance.range_energies) > instance.budget:
            violations.append(("1a", i))

    # 1c: every CH covered in every active round, read from the coverage
    # tensor rather than the solvers' masks, so the check is independent of them
    for k, (assignment, active) in enumerate(zip(schedule.rounds, schedule.active_rounds())):
        if not active:
            continue
        for j in range(instance.n_chs):
            if not any(z >= 0 and instance.coverage[i][z][j] for i, z in enumerate(assignment)):
                violations.append(("1c", k, j))

    return (not violations, violations)


def solve_exhaustive(instance: BoundInstance) -> int:
    """Oracle: maximum active rounds by plain round-by-round enumeration.

    Tries every affordable covering assignment at every level, memoizing on
    the per-sensor budget states and taking each activation from the solve's
    budget steps. Every round activates some sensor and no sensor passes
    k_max activations, so the recursion is at most N * k_max deep. Exact, no
    pruning heuristics.
    """
    instance.check_solver_guards()
    n_ranges = instance.n_ranges
    assignments = _covering_assignments(instance, _coverage_masks(instance))
    table = _budget_table(instance)
    # bit i*Z + z: sensor i active at range z (uses), or unable to step at z (blocked)
    uses = [sum(1 << (i * n_ranges + z) for i, z in enumerate(a) if z >= 0)
            for a in assignments]
    blocked_bits = _Memo(lambda state: sum(1 << z for z in range(n_ranges)
                                           if table[state][z] is None))
    affordable = _Memo(lambda blocked: [a for a, used in zip(assignments, uses)
                                        if not used & blocked])
    memo: dict[tuple[int, ...], int] = {}

    def best_from(state: tuple[int, ...]) -> int:
        cached = memo.get(state)
        if cached is not None:
            return cached
        best = 0
        blocked = 0
        for i, s in enumerate(state):
            blocked |= blocked_bits[s] << (i * n_ranges)
        rows = [table[s] for s in state]
        for assignment in affordable[blocked]:
            depth = 1 + best_from(tuple(map(getitem, rows, assignment)))
            if depth > best:
                best = depth
                if best >= instance.k_max:
                    break
        memo[state] = best
        return best

    return min(instance.k_max, best_from((0,) * instance.n_sensors))


def solve_exact(instance: BoundInstance) -> tuple[int, Schedule]:
    """Maximum active rounds plus a witnessing schedule, by branch-and-bound.

    Searches multisets of minimal covering assignments (rounds are
    interchangeable) with an admissible per-CH capacity bound for pruning.
    The witness always passes `verify_schedule`.
    """
    instance.check_solver_guards()
    masks = _coverage_masks(instance)
    minimal = [a for a in _covering_assignments(instance, masks) if _is_minimal(a, masks)]
    minimal.sort(key=lambda a: (_assignment_cost(a, instance), a))
    # each cover's active (sensor, range) pairs, the only budget states a round moves
    minimal_pairs = [tuple((i, z) for i, z in enumerate(a) if z >= 0) for a in minimal]
    table = _budget_table(instance)
    k_cap = instance.k_max

    # coverage options per CH: which (sensor, range) pairs can serve it
    per_ch_options: list[list[tuple[int, int]]] = [
        [(i, z) for i in range(instance.n_sensors)
         for z in range(instance.n_ranges) if instance.coverage[i][z][j]]
        for j in range(instance.n_chs)
    ]

    def remaining_activations(key: tuple[int, int]) -> int:
        # exact count of further range-z activations this sensor can afford
        # within k_max, walked through the budget table (no float division)
        state, z = key
        extra = 0
        while (state := table[state][z]) is not None:
            extra += 1
        return extra

    remaining = _Memo(remaining_activations)

    def upper_bound(state: tuple[int, ...]) -> int:
        bound = k_cap
        for options in per_ch_options:
            capacity = 0
            for i, z in options:
                capacity += remaining[state[i], z]
                if capacity >= bound:
                    break
            bound = min(bound, capacity)
            if bound == 0:
                return 0
        return bound

    best = 0
    best_path: list[Assignment] = []
    path: list[Assignment] = []

    def dfs(state: tuple[int, ...], start: int) -> None:
        nonlocal best, best_path
        depth = len(path)
        if depth > best:
            best = depth
            best_path = list(path)
        if depth >= k_cap or depth + upper_bound(state) <= best:
            return
        for idx in range(start, len(minimal_pairs)):
            next_state = list(state)
            for i, z in minimal_pairs[idx]:
                next_state[i] = table[state[i]][z]
                if next_state[i] is None:
                    break
            else:
                path.append(minimal[idx])
                dfs(tuple(next_state), idx)
                path.pop()
                if best >= k_cap:
                    return

    dfs((0,) * instance.n_sensors, 0)

    idle = (-1,) * instance.n_sensors
    schedule = Schedule(instance.n_ranges, tuple(best_path) + (idle,) * (k_cap - best))
    ok, violations = verify_schedule(instance, schedule)
    if not ok:
        raise AssertionError(f"solver produced an infeasible witness: {violations}")
    return best, schedule


def bound_for_simulated_network(network: Network, k_max: int = MAX_ROUNDS) -> BoundInstance:
    """Map a deployed network onto a bound instance.

    The single coverage target is the base station. Range 0 is the
    free-space regime (radius d0) priced at the electronics-only floor of a
    packet transmission; range 1 is the multipath regime priced at the d0
    crossing cost, and it reaches the BS from every node, as the
    simulator's radio does. Both prices understate what any node actually
    pays per round in the simulator, and the budget is the richest node's
    initial energy, so K* >= min(simulated lifetime, k_max) once that
    budget pays for one packet sent at d0 (`tx_energy(bits, d0)`, 0.508 mJ
    at the defaults). Below it K* can be 0 while a LEACH run still lives a
    round or two: the engine lets a node's last round overdraw its battery
    and refunds the overshoot, and this model's strict budget cannot count
    that round. Any N maps; the solvers refuse an instance past their
    guards.
    """
    config = network.config
    radio = config.radio
    d0 = crossover_distance(radio)
    bits = config.packet_bits
    e_near = tx_energy(radio, bits, 0.0)
    e_far = tx_energy(radio, bits, d0)
    coverage = tuple(((d <= d0,), (True,)) for d in network.dist_to_bs.tolist())
    return BoundInstance(
        n_sensors=config.node_count,
        n_chs=1,
        n_ranges=2,
        k_max=k_max,
        range_energies=(e_near, e_far),
        budget=float(network.initial_energy.max()),
        coverage=coverage,
    )


def instance_to_text(instance: BoundInstance) -> str:
    """Serialize to the plain matrix format (see `instance_from_text`)."""
    lines = [f"{instance.n_sensors} {instance.n_chs} {instance.n_ranges} {instance.k_max}"]
    lines.append(" ".join(repr(e) for e in instance.range_energies))
    lines.append(repr(instance.budget))
    for i in range(instance.n_sensors):
        for z in range(instance.n_ranges):
            lines.append(" ".join("1" if c else "0" for c in instance.coverage[i][z]))
    return "\n".join(lines) + "\n"


def instance_from_text(text: str) -> BoundInstance:
    """Parse the plain matrix format.

    Line 1: `N M Z K`, four integers of at least 1. Line 2: the Z range
    energies. Line 3: the budget E. Then N*Z rows of M 0/1 flags: row
    i*Z + z holds sensor i's coverage of each CH at range z.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) < 3:
        raise ValueError("instance text too short")
    n, m, z_count, k_max = _line_values(lines, 1, int, 4, "four integers N M Z K")
    # here, not only in BoundInstance: an empty M or Z would first fail line 2 or the row count
    _check_sizes(n_sensors=n, n_chs=m, n_ranges=z_count, k_max=k_max)
    energies = _line_values(lines, 2, float, z_count, f"Z = {z_count} range energies")
    (budget,) = _line_values(lines, 3, float, 1, "one number, the budget E")
    rows = lines[3:]
    if len(rows) != n * z_count:
        raise ValueError(f"expected {n * z_count} coverage rows, got {len(rows)}")
    flags = []
    for row_no, row in enumerate(rows):
        toks = row.split()
        if len(toks) != m:
            raise ValueError(f"coverage row {row_no} needs {m} entries")
        if any(tok not in ("0", "1") for tok in toks):
            raise ValueError(f"coverage row {row_no} must hold only 0 or 1, "
                             f"got {' '.join(toks)!r}")
        flags.append(tuple(tok == "1" for tok in toks))
    return BoundInstance(n_sensors=n, n_chs=m, n_ranges=z_count, k_max=k_max,
                         range_energies=energies, budget=budget,
                         coverage=tuple(tuple(flags[i * z_count:(i + 1) * z_count])
                                        for i in range(n)))


def _line_values(lines: list[str], line_no: int, parse, count: int, what: str) -> tuple:
    """The `count` values on header line `line_no` (1-based), or an error naming the line."""
    try:
        values = tuple(parse(tok) for tok in lines[line_no - 1].split())
    except ValueError:
        values = ()
    if len(values) != count:
        raise ValueError(f"line {line_no} must hold {what}, got {lines[line_no - 1]!r}")
    return values


def schedule_to_text(schedule: Schedule) -> str:
    """Serialize a schedule: the K active-round flags, then per sensor K rows of Z range flags."""
    lines = [" ".join("1" if active else "0" for active in schedule.active_rounds())]
    for per_sensor in zip(*schedule.rounds):
        for z in per_sensor:
            lines.append(" ".join("1" if z == zz else "0" for zz in range(schedule.n_ranges)))
    return "\n".join(lines) + "\n"
