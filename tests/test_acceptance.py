"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
come. The protocol-comparison criteria share a 4-protocol x 20-seed sweep
fixture; all tolerances are asserted exactly as pinned.
"""

import io
import random
import statistics
import time
from dataclasses import replace

import pytest

from wsnsim.energy_model import (
    RadioParams,
    aggregation_energy,
    crossover_distance,
    rx_energy,
    tx_energy,
)
from wsnsim.engine import run_simulation, write_trace_csv
from wsnsim.lifetime_bound import (
    bound_for_simulated_network,
    solve_exact,
    solve_exhaustive,
    verify_schedule,
)
from wsnsim.metrics import network_lifetime, run_metrics, stability_period
from wsnsim.network import NetworkConfig, deploy
from wsnsim.protocols import (
    Protocol,
    elect_cluster_heads,
    make_protocol,
    sep_probabilities,
)

from helpers import random_instance

SEEDS = tuple(range(1, 21))
PROTOCOLS = ("leach", "sep", "teen", "deec")


def report(name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    detail = f"  [{'; '.join(failures)}]" if failures else ""
    print(f"\n[ACCEPTANCE] {name}: {status}{detail}")
    assert not failures, f"{name}: {'; '.join(failures)}"


@pytest.fixture(scope="module")
def sweep():
    """All four protocols over 20 shared-topology seeds, default config."""
    cfg = NetworkConfig()
    t0 = time.time()
    results = {name: [run_simulation(cfg, make_protocol(name, cfg), seed)
                      for seed in SEEDS]
               for name in PROTOCOLS}
    elapsed = time.time() - t0
    print(f"\n[ACCEPTANCE] sweep: {len(PROTOCOLS) * len(SEEDS)} runs "
          f"in {elapsed:.1f}s")
    return cfg, results, elapsed


def mean_metric(results, name):
    return statistics.fmean(run_metrics(r)[name] for r in results if not r.censored)


def test_criterion_1_energy_model_exactness():
    failures = []
    params = RadioParams()
    checks = [
        ("tx free-space", tx_energy(params, 4000, 50.0), 3.0e-4),
        ("rx", rx_energy(params, 4000), 2.0e-4),
        ("aggregation", aggregation_energy(params, 4000, 10), 2.0e-4),
        ("crossover", crossover_distance(params), 87.70580193070292),
    ]
    for label, got, want in checks:
        if not got == pytest.approx(want, rel=1e-12):
            failures.append(f"{label}: {got!r} != {want!r}")
    d0 = crossover_distance(params)
    d_sq = d0 * d0
    fs = 4000 * params.e_elec + 4000 * (params.e_fs * d_sq)
    mp = 4000 * params.e_elec + 4000 * (params.e_mp * d_sq * d_sq)
    if fs != mp:
        failures.append(f"branches differ at d0: {fs!r} vs {mp!r}")
    report("criterion 1 (energy model exactness)", failures)


def test_criterion_2_threshold_algebra():
    failures = []
    # the thresholds LEACH elects with on a fresh default deployment
    for r, want, label in ((0, 0.1, "epoch-start"), (9, 1.0, "epoch-end")):
        outcome = elect_cluster_heads(deploy(NetworkConfig(), 1), Protocol("leach"), r,
                                      random.Random(0))
        if not outcome.thresholds.tolist() == pytest.approx([want] * 100, rel=1e-12):
            failures.append(f"{label} thresholds != {want}")
    for p_opt in (0.05, 0.1, 0.2, 0.37):
        for m in (0.0, 0.1, 0.25, 0.6):
            for alpha in (0.0, 0.5, 1.0, 3.0):
                p_nrm, p_adv = sep_probabilities(p_opt, m, alpha)
                got = (1 - m) * p_nrm + m * p_adv
                if abs(got - p_opt) > 1e-12:
                    failures.append(
                        f"weighted mean off at ({p_opt},{m},{alpha}): {got!r}")
    # on deployed networks, whose floor(m*N) advanced nodes need not be m*N,
    # the class probabilities SEP elects with (its round-0 thresholds) average
    # to p_opt over the nodes; p_opt < 1/(1+alpha) keeps both below 1
    rng = random.Random(1)
    for _ in range(50):
        alpha = rng.uniform(0, 4)
        cfg = NetworkConfig(node_count=rng.randint(1, 40),
                            p_opt=rng.uniform(0.01, 1.0) / (1 + alpha),
                            adv_fraction=rng.random(), adv_energy_factor=alpha)
        net = deploy(cfg, rng.randrange(10**6))
        thresholds = elect_cluster_heads(net, Protocol("sep"), 0, random.Random(0)).thresholds
        if abs(sum(thresholds.tolist()) / cfg.node_count - cfg.p_opt) > 1e-12:
            failures.append(f"deployed class probabilities do not average to p_opt: {cfg}")
            break
    report("criterion 2 (threshold algebra)", failures)


def test_criterion_3_stability_ordering(sweep):
    cfg, results, elapsed = sweep
    failures = []
    means = {name: mean_metric(results[name], "stability_period")
             for name in PROTOCOLS}
    order = ["leach", "sep", "teen", "deec"]
    for lo, hi in zip(order, order[1:]):
        if not means[lo] < means[hi]:
            failures.append(
                f"mean first death {lo}={means[lo]:.1f} !< {hi}={means[hi]:.1f}")
    if elapsed >= 60.0:
        failures.append(f"sweep took {elapsed:.1f}s (target < 60s)")
    print(f"\n[ACCEPTANCE] stability means: " +
          ", ".join(f"{k}={v:.1f}" for k, v in means.items()))
    report("criterion 3 (stability ordering LEACH<SEP<TEEN<DEEC)", failures)


def test_criterion_4_lifetime_ordering(sweep):
    cfg, results, _ = sweep
    failures = []
    means = {name: mean_metric(results[name], "network_lifetime")
             for name in PROTOCOLS}
    order = ["teen", "deec", "sep", "leach"]
    for hi, lo in zip(order, order[1:]):
        if not means[hi] > means[lo]:
            failures.append(
                f"mean lifetime {hi}={means[hi]:.1f} !> {lo}={means[lo]:.1f}")
    if not means["teen"] >= 1.3 * means["deec"]:
        failures.append(
            f"teen lifetime {means['teen']:.1f} < 1.3 x deec {means['deec']:.1f}")
    print(f"\n[ACCEPTANCE] lifetime means: " +
          ", ".join(f"{k}={v:.1f}" for k, v in means.items()))
    report("criterion 4 (lifetime ordering TEEN>DEEC>SEP>LEACH)", failures)


def test_criterion_5_throughput(sweep):
    cfg, results, _ = sweep
    failures = []
    means = {name: mean_metric(results[name], "total_packets_to_bs")
             for name in PROTOCOLS}
    for other in ("leach", "sep", "teen"):
        if not means["deec"] > means[other]:
            failures.append(
                f"deec packets {means['deec']:.0f} !> {other} {means[other]:.0f}")
    print(f"\n[ACCEPTANCE] packet means: " +
          ", ".join(f"{k}={v:.0f}" for k, v in means.items()))
    report("criterion 5 (DEEC highest packets to BS)", failures)


def test_criterion_6_ch_count_behavior(sweep):
    cfg, results, _ = sweep
    failures = []
    for name in PROTOCOLS:
        for result in results[name]:
            counts = [m.ch_count for m in result.trace]
            if statistics.pvariance(counts) <= 0.0:
                failures.append(f"{name} seed {result.seed}: zero CH variance")
                break
    for name in ("leach", "sep"):
        ratios = []
        for result in results[name]:
            stable = stability_period(result.trace)
            rounds = result.trace[:stable] if stable > 0 else result.trace
            mean_ch = statistics.fmean(m.ch_count for m in rounds)
            mean_alive = statistics.fmean(m.alive for m in rounds)
            ratios.append(mean_ch / (cfg.p_opt * mean_alive))
        ratio = statistics.fmean(ratios)
        if not 0.5 <= ratio <= 1.5:
            failures.append(f"{name}: stable-period CH ratio {ratio:.2f} outside +-50%")
    report("criterion 6 (CH count variance and stable-period level)", failures)


def test_criterion_7_bound_dominance():
    failures = []
    t0 = time.time()
    rng = random.Random(20260810)
    for idx in range(50):
        instance = random_instance(rng)
        k_exact, schedule = solve_exact(instance)
        k_oracle = solve_exhaustive(instance)
        if k_exact != k_oracle:
            failures.append(f"instance {idx}: exact {k_exact} != oracle {k_oracle}")
        if not verify_schedule(instance, schedule)[0]:
            failures.append(f"instance {idx}: witness infeasible")

    packet_floor = 4000 * RadioParams().e_elec
    for seed in range(1, 13):
        n = 3 if seed % 2 else 4
        cfg = NetworkConfig(node_count=n, adv_fraction=0.0,
                            initial_energy=4.3 * packet_floor, max_rounds=64)
        result = run_simulation(cfg, make_protocol("leach", cfg), seed)
        if result.censored:
            failures.append(f"seed {seed}: tiny run censored")
            continue
        lifetime = network_lifetime(result.trace, n)
        k_star, _ = solve_exact(bound_for_simulated_network(deploy(cfg, seed)))
        if lifetime > k_star:
            failures.append(f"seed {seed}: lifetime {lifetime} > K* {k_star}")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (required < 30s)")
    report("criterion 7 (exact solver vs oracle; bound dominance)", failures)


def test_criterion_8_ledger_and_determinism(sweep):
    cfg, results, _ = sweep
    failures = []
    for name in PROTOCOLS:
        for result in results[name]:
            initial = sum(deploy(cfg, result.seed).initial_energy.tolist())
            totals = [initial] + [m.total_residual_energy for m in result.trace]
            for before, after, debit in zip(totals, totals[1:], result.round_debits):
                if abs((before - after) - debit) > 1e-9:
                    failures.append(
                        f"{name} seed {result.seed}: ledger drift "
                        f"{abs((before - after) - debit):.3e}")
                    break
            if failures:
                break
    # byte-identical reruns of one sweep member
    fresh = run_simulation(cfg, make_protocol("leach", cfg), SEEDS[0])
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trace_csv(results["leach"][0], buf_a)
    write_trace_csv(fresh, buf_b)
    if buf_a.getvalue() != buf_b.getvalue():
        failures.append("rerun produced different trace bytes")
    report("criterion 8 (energy ledger and determinism)", failures)


def test_criterion_9_teen_reduction(sweep):
    cfg, results, _ = sweep
    failures = []
    reduced_cfg = replace(cfg, teen_hard_threshold=cfg.teen_sense_min,
                          teen_soft_threshold=0.0)
    reduced = [run_simulation(reduced_cfg, Protocol("teen", forwarding=False), seed)
               for seed in SEEDS]
    teen_mean = statistics.fmean(
        network_lifetime(r.trace, r.n_nodes) for r in reduced)
    leach_mean = mean_metric(results["leach"], "network_lifetime")
    gap = abs(teen_mean - leach_mean) / leach_mean
    print(f"\n[ACCEPTANCE] reduction gap: teen={teen_mean:.1f} "
          f"leach={leach_mean:.1f} ({100 * gap:.2f}%)")
    if gap > 0.02:
        failures.append(f"reduced TEEN lifetime differs from LEACH by {100 * gap:.2f}%")
    report("criterion 9 (TEEN reduces to LEACH)", failures)
