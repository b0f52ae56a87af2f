import csv
import io

import pytest

from wsnsim.engine import (
    RoundMetrics,
    SimulationResult,
    run_simulation,
    write_trace_csv,
)
from wsnsim.metrics import (
    aggregate,
    instability_period,
    network_lifetime,
    run_metrics,
    stability_period,
    write_summary_stats_csv,
)
from wsnsim.network import NetworkConfig
from wsnsim.protocols import make_protocol


def trace_from_dead_counts(dead_counts, n):
    return [RoundMetrics(round=i, alive=n - d, dead=d, ch_count=1,
                         packets_to_bs=1, packets_to_ch=0,
                         total_residual_energy=0.0)
            for i, d in enumerate(dead_counts)]


def fake_result(dead_counts, n, protocol="leach", seed=1):
    trace = trace_from_dead_counts(dead_counts, n)
    return SimulationResult(protocol=protocol, seed=seed, n_nodes=n, trace=trace,
                            round_debits=[0.0] * len(trace))


def test_stability_first_positive_index():
    assert stability_period(trace_from_dead_counts([0, 0, 1, 2], 10)) == 2


def test_stability_censored_is_trace_length():
    assert stability_period(trace_from_dead_counts([0, 0, 0], 10)) == 3


def test_stability_death_in_round_zero():
    assert stability_period(trace_from_dead_counts([3, 4], 10)) == 0


def test_stability_rejects_empty_trace():
    with pytest.raises(ValueError):
        stability_period([])


def test_lifetime_first_all_dead_round():
    assert network_lifetime(trace_from_dead_counts([0, 1, 2, 2], 2), 2) == 2


def test_lifetime_censored_is_trace_length():
    assert network_lifetime(trace_from_dead_counts([0, 1], 2), 2) == 2


def test_lifetime_single_node():
    assert network_lifetime(trace_from_dead_counts([1], 1), 1) == 0


def test_lifetime_rejects_empty_trace():
    with pytest.raises(ValueError, match="empty trace"):
        network_lifetime([], 1)


def test_instability_arithmetic():
    trace = trace_from_dead_counts([0] * 500 + [1] * 1000 + [10], 10)
    assert stability_period(trace) == 500
    assert network_lifetime(trace, 10) == 1500
    assert instability_period(trace, 10) == 1000


def test_instability_zero_when_no_deaths():
    assert instability_period(trace_from_dead_counts([0, 0], 5), 5) == 0


def test_instability_zero_when_all_die_together():
    assert instability_period(trace_from_dead_counts([0, 5], 5), 5) == 0


def test_aggregate_single_seed_has_zero_std():
    stats = aggregate([run_metrics(fake_result([0, 1, 2], 2))])
    (row,) = stats
    assert row.network_lifetime.mean == 2
    assert row.network_lifetime.std == 0.0
    assert row.n_runs == 1


def test_aggregate_two_seed_stddev():
    results = [fake_result([0] * 1000 + [2], 2, seed=1),
               fake_result([0] * 1200 + [2], 2, seed=2)]
    (row,) = aggregate(run_metrics(r) for r in results)
    assert row.network_lifetime.mean == pytest.approx(1100.0)
    assert row.network_lifetime.std == pytest.approx(141.4213562373095, rel=1e-12)


def test_aggregate_shape_four_protocols():
    results = [fake_result([0, 2], 2, protocol=p, seed=s)
               for p in ("leach", "teen", "sep", "deec") for s in (1, 2)]
    stats = aggregate(run_metrics(r) for r in results)
    assert sorted(s.protocol for s in stats) == ["deec", "leach", "sep", "teen"]


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_stability_invariant_against_lifetime():
    for dead_counts in ([0, 1, 5], [5], [0, 0], [0, 3, 4, 5]):
        trace = trace_from_dead_counts(dead_counts, 5)
        assert stability_period(trace) <= network_lifetime(trace, 5)


def test_metrics_recomputable_from_persisted_csv():
    cfg = NetworkConfig(node_count=12, initial_energy=0.01, max_rounds=500)
    result = run_simulation(cfg, make_protocol("leach", cfg), seed=4)
    buf = io.StringIO()
    write_trace_csv(result, buf)
    buf.seek(0)
    # the CSV is lossless: every field reads back to the value the run recorded
    reloaded = [RoundMetrics(**{name: (float if name == "total_residual_energy" else int)(value)
                                for name, value in row.items()})
                for row in csv.DictReader(buf)]
    assert reloaded == result.trace
    assert stability_period(reloaded) == stability_period(result.trace)
    assert network_lifetime(reloaded, 12) == network_lifetime(result.trace, 12)


def test_summary_stats_csv_layout():
    stats = aggregate([run_metrics(fake_result([0, 1, 2], 2)),
                       run_metrics(fake_result([0, 2, 2], 2, seed=2))])
    buf = io.StringIO()
    write_summary_stats_csv(stats, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header[:3] == ["protocol", "n_runs", "n_censored"]
    assert "network_lifetime_mean" in header
    assert lines[1].startswith("leach,2,0,")


def test_result_from_never_all_dead_trace_is_censored():
    # censoring is read off the trace: no row has every node dead
    result = fake_result([0, 1], 2)
    assert result.censored
    assert result.last_death_round is None
    assert run_metrics(result)["network_lifetime"] == 2
    finished = fake_result([0, 1, 2, 2], 2)
    assert not finished.censored
    assert (finished.first_death_round, finished.last_death_round) == (1, 2)
    assert finished.total_packets_to_bs == 4
