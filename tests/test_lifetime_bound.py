import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim.energy_model import RadioParams
from wsnsim.lifetime_bound import (
    MAX_ROUNDS,
    BoundInstance,
    InstanceTooLargeError,
    Schedule,
    _coverage_masks,
    _covering_assignments,
    _is_minimal,
    bound_for_simulated_network,
    instance_from_text,
    instance_to_text,
    schedule_to_text,
    solve_exact,
    solve_exhaustive,
    verify_schedule,
)
from wsnsim.metrics import network_lifetime
from wsnsim.network import Network, NetworkConfig, deploy
from wsnsim.engine import run_simulation
from wsnsim.protocols import make_protocol

from helpers import D0_PACKET, random_instance


def full_coverage(n, z, m):
    return tuple(tuple(tuple(True for _ in range(m)) for _ in range(z))
                 for _ in range(n))


def single_sensor_instance(e=0.5, budget=2.0, k_max=16):
    return BoundInstance(n_sensors=1, n_chs=1, n_ranges=1, k_max=k_max,
                         range_energies=(e,), budget=budget,
                         coverage=full_coverage(1, 1, 1))


def padded(instance, *rounds):
    """A schedule of the given rounds' assignments, then idle rounds up to K."""
    idle = ((-1,) * instance.n_sensors,)
    return Schedule(instance.n_ranges, tuple(rounds) + idle * (instance.k_max - len(rounds)))


def brute_force_rounds(instance):
    """Plain enumeration over every list of K per-round assignments; tiny instances only."""
    n, z, k = instance.n_sensors, instance.n_ranges, instance.k_max
    assert (z + 1) ** (n * k) <= 729, "enumeration oracle limited to micro instances"
    best = 0
    for rounds in itertools.product(itertools.product(range(-1, z), repeat=n), repeat=k):
        schedule = Schedule(z, rounds)
        if verify_schedule(instance, schedule)[0]:
            best = max(best, schedule.objective())
    return best


def reference_verify(instance, x, r):
    """The dense verifier of x[i][k][z] range flags and r[k] active-round flags
    that the per-round assignment form replaced, kept as a reference."""
    n, z_count, k_count, m = (instance.n_sensors, instance.n_ranges,
                              instance.k_max, instance.n_chs)
    violations = []
    for i in range(n):
        for k in range(k_count):
            for z in range(z_count):
                if x[i][k][z] not in (False, True):
                    violations.append(("1d", i, k, z))
    for k in range(k_count):
        if r[k] not in (False, True):
            violations.append(("1d-r", k))
    for i in range(n):
        counts = tuple(sum(1 for k in range(k_count) if x[i][k][z]) for z in range(z_count))
        if sum(c * e for c, e in zip(counts, instance.range_energies)) > instance.budget:
            violations.append(("1a", i))
    for i in range(n):
        for k in range(k_count):
            if sum(x[i][k]) > (1 if r[k] else 0):
                violations.append(("1b", i, k))
    for k in range(k_count):
        if not r[k]:
            continue
        for j in range(m):
            if not any(x[i][k][z] and instance.coverage[i][z][j]
                       for i in range(n) for z in range(z_count)):
                violations.append(("1c", k, j))
    return (not violations, violations)


# --- verify_schedule ------------------------------------------------------

def test_all_zero_schedule_is_feasible():
    instance = single_sensor_instance()
    schedule = padded(instance)
    ok, violations = verify_schedule(instance, schedule)
    assert ok and violations == []
    assert schedule.objective() == 0


def test_budget_violation_is_reported():
    instance = single_sensor_instance(e=0.5, budget=2.0, k_max=16)
    # 5 * 0.5 = 2.5 > 2.0
    ok, violations = verify_schedule(instance, padded(instance, *[(0,)] * 5))
    assert not ok
    assert ("1a", 0) in violations


def test_uncovered_active_round_is_reported():
    # sensor 0's one range covers no CH, so round 0, with only sensor 0 on, is uncovered
    instance = BoundInstance(n_sensors=2, n_chs=1, n_ranges=1, k_max=2,
                             range_energies=(0.5,), budget=2.0,
                             coverage=(((False,),), ((True,),)))
    ok, violations = verify_schedule(instance, padded(instance, (0, -1), (-1, 0)))
    assert not ok
    assert violations == [("1c", 0, 0)]


def test_dimension_mismatch_raises():
    instance = single_sensor_instance(k_max=4)
    for bad in (Schedule(1, ((-1,),) * 3), Schedule(2, ((-1,),) * 4),
                Schedule(1, ((-1, -1),) * 4)):
        with pytest.raises(ValueError, match="dimensions"):
            verify_schedule(instance, bad)


def test_out_of_range_ranges_are_reported():
    # with Z = 1, range 1 does not exist and -2 is not idle; neither may
    # reach the coverage tensor, where -2 would read range Z - 2
    instance = BoundInstance(n_sensors=2, n_chs=1, n_ranges=1, k_max=2,
                             range_energies=(0.5,), budget=2.0,
                             coverage=full_coverage(2, 1, 1))
    ok, violations = verify_schedule(instance, Schedule(1, ((1, 0), (0, -2))))
    assert not ok
    assert violations == [("1d", 0, 0), ("1d", 1, 1)]


@st.composite
def instances_with_rounds(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=3))
    z = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=6))
    instance = BoundInstance(
        n_sensors=n, n_chs=m, n_ranges=z, k_max=k,
        range_energies=tuple(draw(st.lists(st.floats(min_value=0.2, max_value=1.5),
                                           min_size=z, max_size=z))),
        budget=draw(st.floats(min_value=0.5, max_value=3.0)),
        coverage=tuple(tuple(tuple(draw(st.booleans()) for _ in range(m)) for _ in range(z))
                       for _ in range(n)))
    rounds = tuple(tuple(draw(st.integers(min_value=-1, max_value=z - 1)) for _ in range(n))
                   for _ in range(k))
    return instance, rounds


@settings(max_examples=300, deadline=None)
@given(instances_with_rounds())
def test_verify_matches_the_dense_reference(case):
    # random rounds break the budget or leave a CH uncovered as often as not
    instance, rounds = case
    x = [[[a[i] == z for z in range(instance.n_ranges)] for a in rounds]
         for i in range(instance.n_sensors)]
    r = [any(z >= 0 for z in a) for a in rounds]
    ok, violations = verify_schedule(instance, Schedule(instance.n_ranges, rounds))
    ref_ok, ref_violations = reference_verify(instance, x, r)
    assert ok == ref_ok
    for family in ("1a", "1c"):
        assert ([v for v in violations if v[0] == family]
                == [v for v in ref_violations if v[0] == family])


# --- solvers --------------------------------------------------------------

def test_single_sensor_budget_quotient():
    k_star, schedule = solve_exact(single_sensor_instance(e=0.5, budget=2.0))
    assert k_star == 4
    assert schedule.objective() == 4
    assert verify_schedule(single_sensor_instance(e=0.5, budget=2.0), schedule)[0]


@pytest.mark.parametrize("budget,k_star", [(0.3, 2), (0.6, 5), (0.7, 6)])
def test_budget_boundary_follows_the_counts_form(budget, k_star):
    # the budget check prices counts * e: 6 * 0.1 = 0.6000000000000001 > 0.6,
    # while a running sum of six 0.1s reaches 0.6 exactly and would allow six
    instance = single_sensor_instance(e=0.1, budget=budget)
    assert solve_exact(instance)[0] == k_star
    assert solve_exhaustive(instance) == k_star


def test_verify_rejects_the_activation_past_the_float_boundary():
    instance = single_sensor_instance(e=0.1, budget=0.6)
    for active in (5, 6):
        schedule = padded(instance, *[(0,)] * active)
        assert verify_schedule(instance, schedule)[0] == (active == 5)


def test_two_sensors_pool_their_budgets():
    instance = BoundInstance(n_sensors=2, n_chs=1, n_ranges=1, k_max=16,
                             range_energies=(1.0,), budget=2.0,
                             coverage=full_coverage(2, 1, 1))
    k_star, _ = solve_exact(instance)
    assert k_star == 4  # two activations each, one sensor per round suffices


def test_uncoverable_ch_means_zero_rounds():
    # the second CH column is covered by no (sensor, range) pair
    instance = BoundInstance(n_sensors=2, n_chs=2, n_ranges=2, k_max=8,
                             range_energies=(0.5, 1.0), budget=2.0,
                             coverage=(((True, False), (True, False)),
                                       ((True, False), (True, False))))
    k_star, schedule = solve_exact(instance)
    assert k_star == 0
    assert schedule.objective() == 0


def test_exhaustive_matches_brute_force_on_micro_instances():
    rng = random.Random(202)
    checked = 0
    while checked < 12:
        instance = random_instance(rng, n_max=2, m_max=2, z_max=2, k_max=3)
        if instance.n_sensors * instance.n_ranges * instance.k_max > 12:
            continue
        assert solve_exhaustive(instance) == brute_force_rounds(instance)
        checked += 1


def test_exact_matches_exhaustive_on_random_instances():
    rng = random.Random(77)
    for _ in range(25):
        instance = random_instance(rng)
        k_exact, schedule = solve_exact(instance)
        assert k_exact == solve_exhaustive(instance)
        assert verify_schedule(instance, schedule)[0]


# SHA-256 over K*, the oracle's K* and the witness schedule of 45 instances
# with N <= 4 and 15 with N = 5..6, K <= 8 (seed 2026). The witness depends
# on solve_exact's search order, which the K* comparisons above do not pin.
WITNESS_GOLDEN = "5d8452b761850131d1bb7c6b26ae9fad8cb137a2ac2876b2231a05468c17db11"


def test_witness_schedules_are_pinned():
    rng = random.Random(2026)
    instances = ([random_instance(rng) for _ in range(45)]
                 + [random_instance(rng, n_min=5, n_max=6, k_max=8) for _ in range(15)])
    digest = hashlib.sha256()
    for instance in instances:
        k_star, schedule = solve_exact(instance)
        digest.update(f"{k_star} {solve_exhaustive(instance)}\n".encode())
        digest.update(schedule_to_text(schedule).encode())
    assert digest.hexdigest() == WITNESS_GOLDEN


@st.composite
def single_target_instances(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    z = draw(st.integers(min_value=1, max_value=2))
    return BoundInstance(
        n_sensors=n, n_chs=1, n_ranges=z,
        k_max=draw(st.integers(min_value=1, max_value=10)),
        range_energies=tuple(draw(st.lists(st.floats(min_value=0.2, max_value=1.5),
                                           min_size=z, max_size=z))),
        budget=draw(st.floats(min_value=0.5, max_value=3.0)),
        coverage=tuple(tuple((draw(st.booleans()),) for _ in range(z)) for _ in range(n)))


@settings(max_examples=200, deadline=None)
@given(single_target_instances())
def test_exact_matches_exhaustive_with_one_target(instance):
    assert solve_exact(instance)[0] == solve_exhaustive(instance)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=1.0, max_value=6.0),
       st.integers(min_value=0, max_value=10**6))
def test_exact_matches_exhaustive_on_simulated_networks(n, packets, seed):
    # a battery of a few packets' electronics cost keeps K* below K = 16
    cfg = NetworkConfig(node_count=n, adv_fraction=0.0,
                        initial_energy=packets * 4000 * RadioParams().e_elec)
    instance = bound_for_simulated_network(deploy(cfg, seed))
    assert solve_exact(instance)[0] == solve_exhaustive(instance)


def reference_is_covering(assignment, instance):
    return all(any(z >= 0 and instance.coverage[i][z][j] for i, z in enumerate(assignment))
               for j in range(instance.n_chs))


def reference_is_minimal(assignment, instance):
    return not any(reference_is_covering(assignment[:i] + (-1,) + assignment[i + 1:], instance)
                   for i, z in enumerate(assignment) if z >= 0)


@st.composite
def coverage_instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=4))
    z = draw(st.integers(min_value=1, max_value=3))
    coverage = tuple(tuple(tuple(draw(st.booleans()) for _ in range(m)) for _ in range(z))
                     for _ in range(n))
    return BoundInstance(n_sensors=n, n_chs=m, n_ranges=z, k_max=4,
                         range_energies=(1.0,) * z, budget=2.0, coverage=coverage)


@settings(max_examples=60, deadline=None)
@given(coverage_instances())
def test_bitmask_covers_match_the_plain_definition(instance):
    masks = _coverage_masks(instance)
    covering = _covering_assignments(instance, masks)
    every = itertools.product(range(-1, instance.n_ranges), repeat=instance.n_sensors)
    assert covering == [a for a in every if reference_is_covering(a, instance)]
    assert ([a for a in covering if _is_minimal(a, masks)]
            == [a for a in covering if reference_is_minimal(a, instance)])


@pytest.mark.parametrize("n", [4, 6])
def test_both_solvers_reach_k_max_at_the_default_battery(n):
    # 0.5 J affords thousands of activations: the search must stop at k_max
    instance = bound_for_simulated_network(deploy(NetworkConfig(node_count=n), 3))
    assert solve_exact(instance)[0] == 16
    assert solve_exhaustive(instance) == 16


@pytest.mark.parametrize("changes,match", [
    ({"range_energies": (0.5, 0.7)}, "range_energies length must equal n_ranges"),
    ({"coverage": full_coverage(2, 1, 1)}, "coverage tensor"),
    ({"coverage": full_coverage(1, 2, 1)}, "coverage tensor"),
    ({"coverage": full_coverage(1, 1, 2)}, "coverage tensor"),
])
def test_instance_shape_mismatch_is_rejected(changes, match):
    fields = dict(n_sensors=1, n_chs=1, n_ranges=1, k_max=4, range_energies=(0.5,),
                  budget=2.0, coverage=full_coverage(1, 1, 1))
    with pytest.raises(ValueError, match=match):
        BoundInstance(**{**fields, **changes})


@pytest.mark.parametrize("field", ["n_sensors", "n_chs", "n_ranges", "k_max"])
def test_empty_instance_is_rejected(field):
    sizes = dict(n_sensors=1, n_chs=1, n_ranges=1, k_max=4)
    sizes[field] = 0
    with pytest.raises(ValueError, match=field):
        BoundInstance(**sizes, range_energies=(0.5,) * sizes["n_ranges"], budget=2.0,
                      coverage=full_coverage(sizes["n_sensors"], sizes["n_ranges"],
                                             sizes["n_chs"]))


def test_k_star_monotone_in_budget_and_coverage():
    rng = random.Random(11)
    for _ in range(10):
        instance = random_instance(rng, n_max=3, m_max=2, z_max=2, k_max=6)
        base, _ = solve_exact(instance)
        richer = BoundInstance(
            n_sensors=instance.n_sensors, n_chs=instance.n_chs,
            n_ranges=instance.n_ranges, k_max=instance.k_max,
            range_energies=instance.range_energies,
            budget=instance.budget * 1.5, coverage=instance.coverage)
        assert solve_exact(richer)[0] >= base

        flat = [list(map(list, rows)) for rows in instance.coverage]
        i = rng.randrange(instance.n_sensors)
        z = rng.randrange(instance.n_ranges)
        j = rng.randrange(instance.n_chs)
        flat[i][z][j] = True
        wider = BoundInstance(
            n_sensors=instance.n_sensors, n_chs=instance.n_chs,
            n_ranges=instance.n_ranges, k_max=instance.k_max,
            range_energies=instance.range_energies, budget=instance.budget,
            coverage=tuple(tuple(tuple(row) for row in rows) for rows in flat))
        assert solve_exact(wider)[0] >= base


def test_solver_guards_name_the_limits():
    instance = BoundInstance(n_sensors=9, n_chs=1, n_ranges=1, k_max=4,
                             range_energies=(1.0,), budget=2.0,
                             coverage=full_coverage(9, 1, 1))
    with pytest.raises(InstanceTooLargeError, match="N <= 8"):
        solve_exact(instance)
    with pytest.raises(InstanceTooLargeError):
        solve_exhaustive(instance)


# --- serialization --------------------------------------------------------

def test_instance_text_round_trip():
    rng = random.Random(5)
    for _ in range(5):
        instance = random_instance(rng)
        assert instance_from_text(instance_to_text(instance)) == instance


def test_schedule_text_shape():
    instance = single_sensor_instance(k_max=4)
    _, schedule = solve_exact(instance)
    lines = schedule_to_text(schedule).strip().splitlines()
    assert len(lines) == 1 + instance.n_sensors * instance.k_max
    assert lines[0] == "1 1 1 1"


def test_instance_text_rejects_garbage():
    cases = [
        ("1 1 1\n", None),
        ("2 1 1 4\n0.5\n2.0\n1\n", "coverage rows"),  # missing coverage row
        ("1 2 1 4\n0.5\n2.0\n1 2\n", "coverage row 0"),
        ("1 2 1 4\n0.5\n2.0\n1\n", "coverage row 0 needs 2 entries"),
        ("1 1 1 4\nabc\n2.0\n1\n", "line 2 must hold Z = 1 range energies, got 'abc'"),
        ("1 1 2 4\n0.5\n2.0\n1\n1\n", "line 2 must hold Z = 2 range energies, got '0.5'"),
        ("1 1 1 4\n0.5 0.6\n2.0\n1\n", "line 2 must hold Z = 1 range energies"),
        ("1 1 1 4\n0.5\n0.5 0.6\n1\n", "line 3 must hold one number, the budget E, "
                                           "got '0.5 0.6'"),
        ("1 1 1 4\n0.5\nabc\n1\n", "line 3 must hold one number"),
        ("2 1 1 4\n0.5\n2.0\n1\nyes\n", "coverage row 1"),
        ("1 1 1 4\n0.5\n2.0\n1.0\n", "coverage row 0"),
        ("1 1 1 4\n0.5\nnan\n1\n", "budget"),
        ("1 1 1 4\n0.5\ninf\n1\n", "budget"),
        ("1 1 2 4\n0.5 nan\n2.0\n1\n1\n", "range energies"),
        ("1 1 1 4\n-inf\n2.0\n1\n", "range energies"),
        ("1 1 1 4\ninf\n2.0\n1\n", "range energies"),
        ("4 1 2\n0.5\n2.0\n1\n", "line 1 must hold four integers N M Z K"),
        ("0 0 1 4\n0.5\n2.0\n", "n_sensors"),
        ("1 0 1 4\n0.5\n2.0\n", "n_chs"),
        ("1 1 0 4\n0.5\n2.0\n1\n", "n_ranges"),
    ]
    for text, match in cases:
        with pytest.raises(ValueError, match=match):
            instance_from_text(text)


# --- network mapping ------------------------------------------------------

def co_located_network(n, energy, bs=(50.0, 50.0)):
    cfg = NetworkConfig(node_count=n, bs_position=bs, initial_energy=energy,
                        adv_fraction=0.0, max_rounds=100)
    return Network(cfg, [bs[0]] * n, [bs[1]] * n, [False] * n, [energy] * n)


def test_colocated_node_bound_is_budget_quotient():
    radio = RadioParams()
    packet_floor = 4000 * radio.e_elec  # 2.0e-4 J
    net = co_located_network(1, energy=6.5 * packet_floor)
    instance = bound_for_simulated_network(net)
    assert instance.n_chs == 1
    assert all(all(all(row) for row in rows) for rows in instance.coverage)
    k_star, _ = solve_exact(instance)
    assert k_star == 6  # floor(budget / cheapest range energy)


def test_node_beyond_the_field_diagonal_still_reaches_the_bs():
    # 290 m from the BS on a 100 m field: the multipath range reaches it all the same
    cfg = NetworkConfig(node_count=1, bs_position=(300.0, 50.0), adv_fraction=0.0)
    net = Network(cfg, [10.0], [50.0], [False], [0.5])
    instance = bound_for_simulated_network(net)
    assert instance.coverage == (((False,), (True,)),)
    k_star, _ = solve_exact(instance)
    assert k_star == MAX_ROUNDS


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.tuples(st.floats(min_value=20.0, max_value=300.0),
                 st.floats(min_value=20.0, max_value=300.0)),
       st.tuples(st.floats(min_value=-400.0, max_value=500.0),
                 st.floats(min_value=-400.0, max_value=500.0)),
       st.floats(min_value=D0_PACKET, max_value=5e-3), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=MAX_ROUNDS))
def test_bound_dominates_leach_wherever_the_bs_lies(n, field, bs, battery, seed, k):
    # bound --check-sim's check: LEACH run for K = max_rounds rounds, where
    # K* = K only says that the model lasts K rounds or more
    cfg = NetworkConfig(node_count=n, field_width=field[0], field_height=field[1],
                        bs_position=bs, initial_energy=battery, max_rounds=k)
    result = run_simulation(cfg, make_protocol("leach", cfg), seed)
    k_star, _ = solve_exact(bound_for_simulated_network(deploy(cfg, seed), k_max=k))
    assert network_lifetime(result.trace, n) <= k_star


def test_simulated_lifetime_never_exceeds_bound():
    radio = RadioParams()
    packet_floor = 4000 * radio.e_elec
    for seed in range(1, 9):
        cfg = NetworkConfig(node_count=3, initial_energy=4.1 * packet_floor,
                            adv_fraction=0.0, max_rounds=64)
        result = run_simulation(cfg, make_protocol("leach", cfg), seed=seed)
        assert not result.censored
        lifetime = network_lifetime(result.trace, 3)
        instance = bound_for_simulated_network(deploy(cfg, seed))
        k_star, _ = solve_exact(instance)
        assert lifetime <= k_star


def test_bound_guard_for_large_networks():
    # the mapping takes any N; only the solvers refuse past their guard
    instance = bound_for_simulated_network(deploy(NetworkConfig(node_count=9), 1))
    assert instance.n_sensors == 9
    with pytest.raises(InstanceTooLargeError, match="got N=9"):
        solve_exact(instance)
