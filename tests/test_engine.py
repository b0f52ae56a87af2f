import io
import math

import numpy as np
import pytest

from wsnsim import engine
from wsnsim.energy_model import aggregation_energy, rx_energy, tx_energy
from wsnsim.engine import (
    AllNodesDeadError,
    SimulationState,
    run_simulation,
    write_trace_csv,
)
from wsnsim.network import NetworkConfig, deploy
from wsnsim.protocols import Protocol, form_clusters, make_protocol

from helpers import ScriptedRng, make_network


def test_single_node_ch_round_debit():
    # lone node at the BS position, forced CH by p=1: pays aggregation of
    # its own report plus a zero-distance transmission
    net = make_network([(50.0, 50.0)], p_opt=1.0)
    radio = net.config.radio
    state = SimulationState(net, Protocol("leach"), seed=1)
    metrics = state.run_round()
    expected = aggregation_energy(radio, 4000, 1) + tx_energy(radio, 4000, 0.0)
    assert expected == pytest.approx(2.2e-4, rel=1e-12)
    assert state.round_debits[-1] == pytest.approx(expected, rel=1e-12)
    assert net.residual[0] == pytest.approx(0.5 - expected, rel=1e-12)
    assert metrics.packets_to_bs == 1
    assert metrics.ch_count == 1


def test_fallback_round_sends_direct_to_bs():
    net = make_network([(40.0, 50.0), (80.0, 50.0)])
    radio = net.config.radio
    state = SimulationState(net, Protocol("leach"), seed=1)
    state.rng = ScriptedRng(0.99, 0.99)  # above every threshold: no CH
    metrics = state.run_round()
    assert metrics.ch_count == 0
    assert metrics.packets_to_bs == 2
    assert metrics.packets_to_ch == 0
    expected = tx_energy(radio, 4000, 10.0) + tx_energy(radio, 4000, 30.0)
    assert state.round_debits[-1] == pytest.approx(expected, rel=1e-12)


def test_teen_silent_round_sends_nothing():
    # all nodes become CH (draw 0) but nobody crosses the hard threshold
    net = make_network([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)])
    state = SimulationState(net, Protocol("teen"), seed=1)
    state.rng = ScriptedRng(0.0, 0.0, 0.0, 0.25, 0.25, 0.25)  # reading 50 < hard threshold 100
    metrics = state.run_round()
    assert metrics.ch_count == 3
    assert metrics.packets_to_bs == 0
    assert metrics.packets_to_ch == 0
    assert state.round_debits[-1] == 0.0


def test_teen_forwarding_merges_packets():
    # three CHs on a line, BS at the right end: 0 -> 1 -> 2 -> BS, and the
    # BS sees exactly one merged packet
    net = make_network([(0.0, 50.0), (20.0, 50.0), (40.0, 50.0)], bs=(50.0, 50.0))
    radio = net.config.radio
    state = SimulationState(net, Protocol("teen"), seed=1)
    state.rng = ScriptedRng(0.0, 0.0, 0.0, 0.75, 0.75, 0.75)  # all CHs, all read 150
    metrics = state.run_round()
    assert metrics.ch_count == 3
    assert metrics.packets_to_bs == 1
    expected = (
        aggregation_energy(radio, 4000, 1) * 3
        + tx_energy(radio, 4000, 20.0)      # 0 -> 1
        + rx_energy(radio, 4000)            # 1 receives
        + tx_energy(radio, 4000, 20.0)      # 1 -> 2
        + rx_energy(radio, 4000)            # 2 receives
        + tx_energy(radio, 4000, 10.0)      # 2 -> BS
    )
    assert state.round_debits[-1] == pytest.approx(expected, rel=1e-12)


def test_teen_forwarding_disabled_goes_direct():
    net = make_network([(0.0, 50.0), (20.0, 50.0), (40.0, 50.0)], bs=(50.0, 50.0))
    state = SimulationState(net, Protocol("teen", forwarding=False), seed=1)
    state.rng = ScriptedRng(0.0, 0.0, 0.0, 0.75, 0.75, 0.75)
    metrics = state.run_round()
    assert metrics.packets_to_bs == 3


def test_teen_relays_send_without_data_of_their_own():
    # chain 0 -> 1 -> 2 -> BS where only CH 0 reads above the hard threshold:
    # CHs 1 and 2 still send, to carry its packet, and the BS gets one packet
    net = make_network([(0.0, 50.0), (20.0, 50.0), (40.0, 50.0)], bs=(50.0, 50.0))
    radio = net.config.radio
    state = SimulationState(net, Protocol("teen"), seed=1)
    state.rng = ScriptedRng(0.0, 0.0, 0.0, 0.75, 0.25, 0.25)  # readings 150, 50, 50
    metrics = state.run_round()
    assert metrics.ch_count == 3
    assert metrics.packets_to_bs == 1
    expected = (
        aggregation_energy(radio, 4000, 1)  # only CH 0 fuses a report
        + tx_energy(radio, 4000, 20.0) + rx_energy(radio, 4000)
        + tx_energy(radio, 4000, 20.0) + rx_energy(radio, 4000)
        + tx_energy(radio, 4000, 10.0)
    )
    assert state.round_debits[-1] == pytest.approx(expected, rel=1e-12)
    assert net.teen_last_sent[0] == 150.0
    assert np.isnan(net.teen_last_sent[1:]).all()


def test_teen_round_with_no_reporting_member(monkeypatch):
    # CHs 0 and 1, members 2 and 3; only CH 0 reads above the hard threshold,
    # so no member is clustered and CH 0's own report goes straight up
    net = make_network([(45.0, 50.0), (10.0, 50.0), (20.0, 50.0), (80.0, 50.0)])
    radio = net.config.radio
    state = SimulationState(net, Protocol("teen"), seed=1)
    state.rng = ScriptedRng(0.0, 0.0, 0.99, 0.99, 0.75, 0.25, 0.25, 0.25)
    formed = []

    def recording_form_clusters(*args):
        formed.append(form_clusters(*args))
        return formed[-1]

    monkeypatch.setattr(engine, "form_clusters", recording_form_clusters)
    before = net.total_residual_energy()
    metrics = state.run_round()
    assert [len(c.members) for c in formed] == [0]
    assert len(formed[0].heads) == len(formed[0].distances) == 0
    assert metrics.ch_count == 2
    assert metrics.packets_to_ch == 0
    assert metrics.packets_to_bs == 1
    expected = aggregation_energy(radio, 4000, 1) + tx_energy(radio, 4000, 5.0)
    assert state.round_debits[-1] == pytest.approx(expected, rel=1e-12)
    assert abs(state.round_debits[-1] - (before - net.total_residual_energy())) <= 1e-9
    assert net.residual[1:].tolist() == [0.5, 0.5, 0.5]


def test_member_and_ch_debits_add_up():
    # node 1 elected nowhere near epoch end would be random; force both
    # nodes CH-eligible with p=1 for node count 1 cluster? instead: two
    # nodes, draw 0 elects both as CHs; no members remain
    net = make_network([(45.0, 50.0), (55.0, 50.0)])
    radio = net.config.radio
    state = SimulationState(net, Protocol("leach"), seed=1)
    state.rng = ScriptedRng(0.0, 0.0)
    state.run_round()
    expected = 2 * aggregation_energy(radio, 4000, 1) + 2 * tx_energy(radio, 4000, 5.0)
    assert state.round_debits[-1] == pytest.approx(expected, rel=1e-12)


def test_run_round_requires_alive_nodes():
    net = make_network([(10.0, 10.0)], p_opt=0.5)
    net.alive[0] = False
    net.residual[0] = 0.0
    state = SimulationState(net, Protocol("leach"), seed=1)
    with pytest.raises(AllNodesDeadError):
        state.run_round()


def test_zero_max_rounds_gives_empty_trace():
    cfg = NetworkConfig(node_count=4, max_rounds=0)
    result = run_simulation(cfg, Protocol("leach"), seed=1)
    assert result.trace == []
    assert result.first_death_round is None


def test_trace_structure_and_monotone_alive():
    cfg = NetworkConfig(node_count=30, max_rounds=300, adv_fraction=0.0)
    result = run_simulation(cfg, make_protocol("leach", cfg), seed=5)
    assert len(result.trace) <= 300
    alive = [m.alive for m in result.trace]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    prev_dead = 0
    for i, m in enumerate(result.trace):
        assert m.round == i
        assert m.alive + m.dead == 30
        alive_at_start = 30 - prev_dead
        cap = m.ch_count if m.ch_count > 0 else alive_at_start
        assert m.packets_to_bs <= cap
        prev_dead = m.dead


def test_default_run_orders_first_and_last_death():
    cfg = NetworkConfig()
    result = run_simulation(cfg, make_protocol("leach", cfg), seed=2)
    assert result.first_death_round is not None
    assert result.last_death_round is not None
    assert 0 < result.first_death_round < result.last_death_round


def test_energy_ledger_closes_every_round():
    cfg = NetworkConfig(node_count=25, initial_energy=0.02, max_rounds=400)
    result = run_simulation(cfg, make_protocol("deec", cfg), seed=3)
    assert not result.censored
    totals = [sum(deploy(cfg, 3).initial_energy.tolist())]
    totals += [m.total_residual_energy for m in result.trace]
    for before, after, debit in zip(totals, totals[1:], result.round_debits):
        assert before - after == pytest.approx(debit, abs=1e-9)


def test_dead_nodes_stay_dead_and_at_zero():
    cfg = NetworkConfig(node_count=15, initial_energy=0.01, max_rounds=400,
                        adv_fraction=0.0)
    network = deploy(cfg, seed=6)
    state = SimulationState(network, Protocol("leach"), seed=6)
    died_at = {}
    for r in range(400):
        alive_before = set(np.flatnonzero(network.alive).tolist())
        if not alive_before:
            break
        state.run_round()
        for node_id in np.flatnonzero(~network.alive).tolist():
            assert network.residual[node_id] == 0.0
            died_at.setdefault(node_id, r)
            assert node_id not in alive_before or died_at[node_id] == r
    assert died_at  # the run actually killed nodes


def test_rerun_reproduces_identical_trace_bytes():
    cfg = NetworkConfig(node_count=20, max_rounds=120)
    protocol = make_protocol("teen", cfg)
    buffers = []
    for _ in range(2):
        result = run_simulation(cfg, protocol, seed=17)
        buf = io.StringIO()
        write_trace_csv(result, buf)
        buffers.append(buf.getvalue())
    assert buffers[0] == buffers[1]


def test_trace_fields_are_python_numbers():
    # a numpy scalar would print as np.float64(...) in the trace and summary
    cfg = NetworkConfig(node_count=30, initial_energy=0.02, max_rounds=300)
    for name in ("leach", "teen", "sep", "deec"):
        result = run_simulation(cfg, make_protocol(name, cfg), seed=4)
        assert type(result.total_packets_to_bs) is int
        for m in result.trace:
            assert all(type(getattr(m, f)) is int for f in
                       ("round", "alive", "dead", "ch_count", "packets_to_bs", "packets_to_ch"))
            assert type(m.total_residual_energy) is float
