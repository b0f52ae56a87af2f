"""Per-round invariants of `SimulationState.run_round`, as hypothesis properties.

Counts are bounded by the alive count at the start of the round: the
trace's `alive` column is taken after the round's deaths, so it is the
wrong bound for what happened during the round. A run's summary and its
metrics are checked against what the trace's rows give.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim import engine, network
from wsnsim.energy_model import RadioParams
from wsnsim.engine import SimulationState, run_simulation, summary_dict
from wsnsim.metrics import run_metrics
from wsnsim.network import NetworkConfig, deploy
from wsnsim.protocols import PROTOCOL_NAMES, Protocol

from helpers import assert_same_rounds, configs, run_rounds

MAX_ROUNDS = 150


@settings(max_examples=60, deadline=None)
@given(configs(), st.sampled_from(PROTOCOL_NAMES), st.booleans(),
       st.integers(min_value=0, max_value=10**6))
def test_every_round_keeps_the_invariants(cfg, name, forwarding, seed):
    net = deploy(cfg, seed)
    state = SimulationState(net, Protocol(name, forwarding), seed)
    hops = []
    next_hop = engine.teen_next_hop

    def recording_next_hop(network, ch_ids, sending):
        out = next_hop(network, ch_ids, sending)
        hops.append((np.array(ch_ids), out[0].copy()))
        assert (out[2] >= sending).all()
        return out

    engine.teen_next_hop = recording_next_hop
    try:
        total = math.fsum(net.residual.tolist())
        for _ in range(MAX_ROUNDS):
            alive_before = net.alive.copy()
            n_alive = int(alive_before.sum())
            if not n_alive:
                break
            m = state.run_round()

            assert (net.residual >= 0.0).all()
            assert (net.residual[~net.alive] == 0.0).all()
            assert not (net.alive & ~alive_before).any()
            assert m.alive == int(net.alive.sum()) <= n_alive
            assert m.ch_count <= n_alive
            assert m.packets_to_ch <= n_alive - m.ch_count
            after = math.fsum(net.residual.tolist())
            assert abs((total - after) - state.round_debits[-1]) <= 1e-9
            total = after
    finally:
        engine.teen_next_hop = next_hop

    for ch_ids, relay in hops:
        forwarded = relay >= 0
        assert (net.dist_to_bs[relay[forwarded]] < net.dist_to_bs[ch_ids[forwarded]]).all()


@settings(max_examples=60, deadline=None)
@given(configs(), st.sampled_from(PROTOCOL_NAMES), st.booleans(),
       st.integers(min_value=0, max_value=10**6))
def test_link_tables_change_no_bit(cfg, name, forwarding, seed):
    # every node count the strategy draws is under the table cutoff; a cutoff
    # of 0 sends the same run through the per-round distances and tx_energy
    cfg, protocol = replace(cfg, max_rounds=MAX_ROUNDS), Protocol(name, forwarding)
    shipped, tabled, _ = run_rounds(cfg, protocol, seed)
    cutoff = network._TABLE_MAX_PAIRS
    network._TABLE_MAX_PAIRS = 0
    try:
        formula, untabled, _ = run_rounds(cfg, protocol, seed)
    finally:
        network._TABLE_MAX_PAIRS = cutoff
    assert tabled and not untabled
    assert_same_rounds(shipped, formula)


@settings(max_examples=40, deadline=None)
@given(configs(), st.integers(min_value=1, max_value=MAX_ROUNDS), st.sampled_from(PROTOCOL_NAMES),
       st.integers(min_value=0, max_value=10**6))
def test_summary_and_metrics_agree_with_the_trace(cfg, max_rounds, name, seed):
    result = run_simulation(replace(cfg, max_rounds=max_rounds), Protocol(name), seed)
    trace = result.trace
    deaths = [m.round for m in trace if m.dead > 0]
    wipeouts = [m.round for m in trace if m.alive == 0]
    # a run stops at its first round with no node alive, else at max_rounds
    assert len(trace) == (wipeouts[0] + 1 if wipeouts else max_rounds)
    assert len(result.round_debits) == len(trace)

    summary = summary_dict(result)
    assert summary["rounds"] == len(trace)
    assert summary["first_death_round"] == (deaths[0] if deaths else None)
    assert summary["last_death_round"] == (wipeouts[0] if wipeouts else None)
    assert summary["censored"] == (not wipeouts)
    assert summary["total_packets_to_bs"] == sum(m.packets_to_bs for m in trace)

    metrics = run_metrics(result)
    stability = summary["first_death_round"]
    lifetime = summary["last_death_round"]
    assert metrics["stability_period"] == (len(trace) if stability is None else stability)
    assert metrics["network_lifetime"] == (len(trace) if lifetime is None else lifetime)
    assert metrics["instability_period"] == metrics["network_lifetime"] - metrics["stability_period"]
    assert metrics["total_packets_to_bs"] == summary["total_packets_to_bs"]


# powers of ten from everyday values up to past where a packet's cost overflows
# (a 1e77 m hop already costs more than a float holds at the default radio)
exponents = st.integers(min_value=-15, max_value=80)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4000),
       st.lists(exponents, min_size=8, max_size=8), st.sampled_from(PROTOCOL_NAMES),
       st.integers(min_value=0, max_value=10**6))
def test_every_accepted_config_keeps_a_finite_ledger(n, bits, powers, name, seed):
    # a config that NetworkConfig accepts, however large its field, BS offset
    # or radio constants, runs rounds whose debits and residuals are finite
    width, height, bs_x, bs_y, *radio = (10.0 ** p for p in powers)
    try:
        cfg = NetworkConfig(node_count=n, packet_bits=bits, field_width=width, field_height=height,
                            bs_position=(bs_x, -bs_y), radio=RadioParams(*radio), max_rounds=3)
    except ValueError as exc:
        assert "overflows" in str(exc)
        return
    result = run_simulation(cfg, Protocol(name), seed)
    assert all(math.isfinite(debit) for debit in result.round_debits)
    assert all(math.isfinite(m.total_residual_energy) for m in result.trace)
