"""Round loop: CH election, cluster formation, steady-state data transfer.

Every charge a round applies to a node's residual is also added to the
round's debit, so the per-round energy ledger closes: the drop in total
residual energy equals the round's debit. Control traffic
(advertisement, join, TDMA scheduling) is free; only data packets cost
energy. Deaths are checked at round end: a node may finish a round
slightly negative, in which case the overshoot is refunded to the ledger
and the residual floored at zero.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, TextIO

import numpy as np

from .energy_model import aggregation_energy, rx_energy
from .network import Network, NetworkConfig, deploy
from .protocols import (
    Protocol,
    elect_cluster_heads,
    form_clusters,
    teen_next_hop,
    teen_should_transmit,
)

@dataclass
class RoundMetrics:
    round: int
    alive: int
    dead: int
    ch_count: int
    packets_to_bs: int
    packets_to_ch: int
    total_residual_energy: float


TRACE_COLUMNS = tuple(f.name for f in fields(RoundMetrics))
_trace_values = attrgetter(*TRACE_COLUMNS)
_TRACE_ROW = ",".join(["%s"] * len(TRACE_COLUMNS)) + "\n"


def death_round(trace: list[RoundMetrics], dead: int) -> Optional[int]:
    """The round of the first trace row with at least `dead` dead nodes, or None."""
    return next((m.round for m in trace if m.dead >= dead), None)


@dataclass
class SimulationResult:
    """One run's record, its trace and ledger; the summary values are read off the trace."""

    protocol: str
    seed: int
    n_nodes: int
    trace: list[RoundMetrics]
    round_debits: list[float]

    @property
    def first_death_round(self) -> Optional[int]:
        return death_round(self.trace, 1)

    @property
    def last_death_round(self) -> Optional[int]:
        return death_round(self.trace, self.n_nodes)

    @property
    def censored(self) -> bool:  # stopped at max_rounds with nodes alive
        return self.last_death_round is None

    @property
    def total_packets_to_bs(self) -> int:
        return sum(m.packets_to_bs for m in self.trace)


class AllNodesDeadError(RuntimeError):
    pass


class SimulationState:
    """One protocol run over one deployed network; `run_round` appends to its
    `trace` (so its length is the next round's index) and `round_debits`."""

    def __init__(self, network: Network, protocol: Protocol, seed: int):
        self.network = network
        self.protocol = protocol
        self.rng = random.Random(f"protocol:{seed}")
        self.trace: list[RoundMetrics] = []
        self.round_debits: list[float] = []

    def run_round(self) -> RoundMetrics:
        """Advance the simulation by one round and append its metrics and debit.

        Each phase works on whole arrays, and each node's residual sees the
        same float operations in the same order as a node-by-node loop: a
        CH hears its members' reports, pays for aggregation, hears any
        relayed packets, then sends.
        """
        net = self.network
        residual = net.residual
        alive_ids = net.alive.nonzero()[0]
        if not len(alive_ids):
            raise AllNodesDeadError("cannot run a round with no alive nodes")
        radio, bits = net.config.radio, net.config.packet_bits
        elec = rx_energy(radio, bits)

        outcome = elect_cluster_heads(net, self.protocol, len(self.trace), self.rng)
        ch_ids = outcome.ch_ids

        is_teen = self.protocol.name == "teen"
        # every alive node has data each round, except where TEEN's gate holds it back
        reporting = teen_should_transmit(net, alive_ids, self.rng) if is_teen else net.alive

        if len(ch_ids):
            # members report to their CH; CHs fuse what they heard (plus
            # their own report) and send one compressed packet up: straight
            # to the BS, or for TEEN to the next CH in the hierarchy, which
            # folds it into its own packet
            clusters = form_clusters(net, ch_ids, reporting)
            fused = np.bincount(clusters.heads, minlength=len(residual))[ch_ids] + reporting[ch_ids]
            # outside TEEN every CH has its own report, so every CH sends
            sending = fused > 0 if is_teen else slice(None)
            if is_teen and self.protocol.forwarding:
                next_hop, hop_dist, sending = teen_next_hop(net, ch_ids, sending)
                hops = next_hop[sending]
                relayed = hops[hops >= 0]
            else:
                hops, hop_dist, relayed = np.full(len(ch_ids), -1)[sending], net.dist_to_bs[ch_ids], ()

            # a CH hears its members' reports, pays for aggregation, hears
            # the packets it relays, then sends
            np.subtract.at(residual, clusters.heads, elec)
            aggregation = aggregation_energy(radio, bits, fused)
            residual[ch_ids] -= aggregation
            if len(relayed):
                np.subtract.at(residual, relayed, elec)
            senders = np.concatenate((clusters.members, ch_ids[sending]))
            cost = net.transmit_costs(senders, np.concatenate((clusters.heads, hops)),
                                      np.concatenate((clusters.distances, hop_dist[sending])))
            packets_to_ch = len(clusters.members)
            packets_to_bs = len(senders) - packets_to_ch - len(relayed)
            debits = [elec * (packets_to_ch + len(relayed)), math.fsum(aggregation.tolist())]
        else:
            # no CH elected this round: everyone with data reports straight
            # to the base station
            senders = reporting.nonzero()[0]
            cost = net.uplink_cost[senders]
            packets_to_ch = 0
            packets_to_bs = len(senders)
            debits = []
        residual[senders] -= cost
        debits += cost.tolist()

        # deaths are assessed once the round completes; overshoot from a
        # node's final transmissions is refunded so the ledger stays exact
        dying = alive_ids[residual[alive_ids] <= 0.0]
        if len(dying):
            debits += residual[dying].tolist()
            residual[dying] = 0.0
            net.alive[dying] = False
        alive_count = len(alive_ids) - len(dying)

        self.round_debits.append(math.fsum(debits))
        metrics = RoundMetrics(
            round=len(self.trace),
            alive=alive_count,
            dead=len(residual) - alive_count,
            ch_count=len(ch_ids),
            packets_to_bs=packets_to_bs,
            packets_to_ch=packets_to_ch,
            total_residual_energy=net.total_residual_energy(),
        )
        self.trace.append(metrics)
        return metrics


def run_simulation(config: NetworkConfig, protocol: Protocol,
                   seed: int) -> SimulationResult:
    """Run one protocol until no node is alive or max_rounds is reached, deterministically."""
    state = SimulationState(deploy(config, seed), protocol, seed)
    for _ in range(config.max_rounds):
        if not state.run_round().alive:
            break
    return SimulationResult(protocol.name, seed, config.node_count,
                            state.trace, state.round_debits)


def write_trace_csv(result: SimulationResult, stream: TextIO) -> None:
    """Emit the per-round trace, one column per `RoundMetrics` field in order.

    `str` is exact for ints and round-trips floats.
    """
    stream.write(",".join(TRACE_COLUMNS) + "\n")
    stream.writelines(_TRACE_ROW % _trace_values(m) for m in result.trace)


def summary_dict(result: SimulationResult) -> dict:
    return {
        "protocol": result.protocol,
        "seed": result.seed,
        "n_nodes": result.n_nodes,
        "rounds": len(result.trace),
        "first_death_round": result.first_death_round,
        "last_death_round": result.last_death_round,
        "total_packets_to_bs": result.total_packets_to_bs,
        "censored": result.censored,
    }


def write_summary_json(result: SimulationResult, stream: TextIO) -> None:
    json.dump(summary_dict(result), stream, indent=2)
    stream.write("\n")
