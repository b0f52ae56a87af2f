"""Cluster-head election, cluster formation and TEEN-specific mechanics.

All four protocols elect CHs the same way: an eligible node draws a uniform
number and becomes CH when the draw falls below its threshold. They differ
in how they turn the network config's p_opt, advanced fraction m and
energy factor alpha into the threshold probability:

- LEACH / TEEN use p_opt for every node.
- SEP splits p_opt into class-weighted probabilities for normal and
  advanced nodes so advanced nodes take CH duty more often.
- DEEC scales each node's probability by its residual energy relative to
  the current network average, so depleted nodes skip CH duty.

A node that becomes CH leaves the eligibility set until its epoch
(round(1/p) rounds) wraps around; the set also refills whenever it runs
empty. TEEN additionally gates member transmissions behind hard/soft
sensing thresholds and forwards CH packets hop-by-hop toward the base
station instead of directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import Network


PROTOCOL_NAMES = ("leach", "teen", "sep", "deec")


@dataclass(frozen=True)
class Protocol:
    """A protocol by name; the network config holds its election parameters."""

    name: str
    forwarding: bool = True     # TEEN only: hop CH packets through closer CHs

    def __post_init__(self):
        if self.name not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.name!r} (expected one of {PROTOCOL_NAMES})")


def make_protocol(name: str, config=None) -> Protocol:
    """The protocol named `name`, case and blanks ignored; `config` is
    accepted for callers but not read, as elections read the network's."""
    return Protocol(name.strip().lower())


@dataclass
class ElectionOutcome:
    """One round's election, as arrays in node-id order.

    `candidates` are the alive nodes eligible this round; each drew once,
    in id order, against its threshold. `ch_ids` are those whose draw fell
    below their threshold.
    """

    ch_ids: np.ndarray
    candidates: np.ndarray
    thresholds: np.ndarray
    draws: np.ndarray


def _check_probability(p) -> None:
    p = np.asarray(p)
    valid = (p > 0) & (p <= 1)
    if not valid.all():
        raise ValueError(f"probability must lie in (0, 1], got {float(p[~valid].flat[0])!r}")


def epoch_length(p):
    """Rounds until a former CH becomes eligible again: round(1/p), at least 1.

    Rounds half to even, as Python's round does; array-capable, as a float.
    """
    _check_probability(p)
    return np.maximum(1.0, np.rint(1.0 / np.asarray(p, dtype=float)))


def leach_threshold(p, round_index: int, eligible):
    """Election threshold T(n) = p / (1 - p * (r mod round(1/p))), 0 if ineligible.

    The threshold ramps up within an epoch so that nodes still waiting get
    elected with certainty by the epoch's final round. Clamped to 1.
    Array-capable in `p` and `eligible`.
    """
    return np.where(eligible, _ramp(p, round_index % epoch_length(p)), 0.0)


def _ramp(p, r_mod):
    """T(n) of an eligible node `r_mod` rounds into its epoch, clamped to 1."""
    return np.minimum(1.0, p / (1.0 - p * r_mod))


@lru_cache(maxsize=4096)
def _class_round(p: float, r_mod: int) -> tuple[bool, float]:
    """Whether a class electing with probability p refills its eligibility
    `r_mod` rounds into its epoch, and its threshold there."""
    return r_mod == 0, float(_ramp(p, r_mod))


@lru_cache(maxsize=None)
def sep_probabilities(p_opt: float, m: float, alpha: float) -> tuple[float, float]:
    """Class-weighted CH probabilities (p_nrm, p_adv).

    p_nrm = p_opt / (1 + alpha*m), p_adv = p_nrm * (1 + alpha); the
    population mix satisfies (1-m)*p_nrm + m*p_adv = p_opt.
    """
    _check_probability(p_opt)
    denom = 1.0 + alpha * m
    return p_opt / denom, p_opt * (1.0 + alpha) / denom


def network_average_energy(residuals: list[float]) -> float:
    """Mean residual energy over all deployed nodes; dead nodes count as zero.

    Takes Python floats and adds them left to right with the builtin sum:
    np.sum's pairwise order would change the average's last bits, and with
    them DEEC's thresholds and which draws elect.
    """
    if not residuals:
        raise ValueError("no nodes")
    return sum(residuals) / len(residuals)


def deec_probability(residual, advanced, p_opt: float, m: float, alpha: float,
                     avg_energy: float):
    """Residual-energy-weighted CH probability, clamped to (0, 1].

    Normal nodes get p_opt * E_i / ((1 + alpha*m) * E_avg); advanced nodes
    carry an extra (1 + alpha) factor. Values can exceed 1 late in life
    when a survivor holds far more energy than the network average.
    Array-capable in `residual` and `advanced`.
    """
    if avg_energy <= 0:
        raise ValueError("network average energy must be positive")
    base = p_opt * np.asarray(residual, dtype=float) / ((1.0 + alpha * m) * avg_energy)
    return np.minimum(1.0, np.where(advanced, base * (1.0 + alpha), base))


def deec_reference_weight(alpha_values: list[float], p_opt: float) -> list[float]:
    """Multi-level heterogeneity reference probabilities.

    Node i gets p_opt * N * (1 + alpha_i) / (N + sum(alpha)); the weights
    average back to p_opt exactly. Elections call `deec_probability`, which
    divides by the configured (1 + alpha*m): the two agree only when deploy's
    floor(m*N) advanced nodes are m*N (at N = 25, m = 0.1 they are 1.9% apart).
    """
    n = len(alpha_values)
    if n < 1:
        raise ValueError("need at least one node")
    total = sum(alpha_values)
    return [p_opt * n * (1.0 + a) / (n + total) for a in alpha_values]


@lru_cache(maxsize=256)
def _classes(name: str, p_opt: float, m: float, alpha: float) -> tuple[tuple[float, int], ...]:
    """LEACH, TEEN and SEP's (p, epoch in rounds) for normal, then advanced nodes."""
    p = (p_opt, p_opt)
    if name == "sep":
        # a p above 1 means a one-round epoch and a threshold of 1, as p = 1 does
        p = tuple(min(1.0, q) for q in sep_probabilities(p_opt, m, alpha))
    return tuple((q, int(epoch_length(q))) for q in p)


def elect_cluster_heads(network: Network, protocol: Protocol,
                        round_index: int, rng: random.Random) -> ElectionOutcome:
    """Run one round of threshold-based CH election.

    Eligibility refills at each node's epoch boundary (and wholesale when
    the set runs empty); elected nodes leave the set for the rest of their
    epoch. An empty CH set is a legal outcome handled by the engine.
    """
    ids = network.alive.nonzero()[0]
    eligible = network.eligible
    cfg = network.config
    if protocol.name == "deec":
        # p, and with it the epoch, differs from node to node
        avg_energy = network_average_energy(network.residual.tolist())
        p = deec_probability(network.residual[ids], network.advanced[ids], cfg.p_opt,
                             cfg.adv_fraction, cfg.adv_energy_factor, avg_energy)
        r_mod = round_index % epoch_length(p)
        eligible[ids[r_mod == 0]] = True
        threshold = _ramp(p, r_mod)
    else:
        # p depends only on a node's class: each class's epoch wrap and
        # threshold are worked out once and broadcast to its nodes
        (p_nrm, epoch_nrm), (p_adv, epoch_adv) = _classes(
            protocol.name, cfg.p_opt, cfg.adv_fraction, cfg.adv_energy_factor)
        wrap_nrm, t_nrm = _class_round(p_nrm, round_index % epoch_nrm)
        wrap_adv, t_adv = _class_round(p_adv, round_index % epoch_adv)
        advanced = network.advanced[ids]
        if wrap_nrm or wrap_adv:
            eligible[ids[np.where(advanced, wrap_adv, wrap_nrm)]] = True
        threshold = np.where(advanced, t_adv, t_nrm)
    is_candidate = eligible[ids]
    candidates = ids[is_candidate]
    if not len(candidates):
        # the set ran empty: every alive node is eligible again
        eligible[ids] = True
        candidates, is_candidate = ids, slice(None)
    thresholds = threshold[is_candidate]
    draws = np.array([rng.random() for _ in range(len(candidates))])
    ch_ids = candidates[draws < thresholds]
    eligible[ch_ids] = False
    return ElectionOutcome(ch_ids=ch_ids, candidates=candidates,
                           thresholds=thresholds, draws=draws)


@dataclass
class Clusters:
    """Alive non-CH nodes in id order, each with its nearest CH and distance to it."""

    members: np.ndarray
    heads: np.ndarray
    distances: np.ndarray


def form_clusters(network: Network, ch_ids) -> Clusters:
    """Assign every alive non-CH node to its nearest CH (ties: lowest CH id).

    The members x CHs distances are computed for this round only.
    """
    if len(ch_ids) == 0:
        raise ValueError("no cluster heads to form clusters around")
    chs = np.sort(np.asarray(ch_ids))
    is_member = network.alive.copy()
    is_member[chs] = False
    members = is_member.nonzero()[0]
    block = network.distances(members, chs)
    # argmin returns the first minimum, so sorted CH columns break ties
    # toward the lowest CH id
    nearest = block.argmin(axis=1)
    return Clusters(members=members, heads=chs[nearest],
                    distances=block[np.arange(len(members)), nearest])


def teen_should_transmit(network: Network, ids: np.ndarray, rng: random.Random) -> np.ndarray:
    """TEEN's gate: the mask over all nodes of those that report; records what they send.

    Each node in `ids` senses once, in id order, lo + (hi - lo) * rng.random()
    over the config's [teen_sense_min, teen_sense_max), as `Random.uniform`
    draws it. A node reports only when its reading crosses the hard
    threshold, and then only if it moved by at least the soft threshold
    since its last report (first crossings, where the last value is NaN,
    always go out).
    """
    cfg = network.config
    draws = np.array([rng.random() for _ in range(len(ids))])
    sensed = cfg.teen_sense_min + (cfg.teen_sense_max - cfg.teen_sense_min) * draws
    last = network.teen_last_sent[ids]
    send = (sensed >= cfg.teen_hard_threshold) & ~(np.abs(sensed - last) < cfg.teen_soft_threshold)
    network.teen_last_sent[ids[send]] = sensed[send]
    reporting = np.zeros(len(network.alive), dtype=bool)
    reporting[ids] = send
    return reporting


def teen_next_hop(network: Network, ch_ids: np.ndarray,
                  sending: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Next hop of each CH packet: the nearest CH strictly closer to the BS, else the BS.

    `ch_ids` must be in ascending order; `sending` marks the CHs with data
    of their own. Returns, per CH, the relay CH's id (-1 when this CH tops
    its hierarchy and sends straight to the base station) and the distance
    to that hop, then `sending` plus every CH that relays a packet. Ties go
    to the lowest id. Hop-by-hop distance to the BS strictly decreases, so
    forwarding can never cycle.
    """
    ch_ids = np.asarray(ch_ids)
    block = network.distances(ch_ids, ch_ids)
    to_bs = network.dist_to_bs[ch_ids]
    block[~(to_bs[None, :] < to_bs[:, None])] = np.inf
    nearest = block.argmin(axis=1)
    hop_dist = block[np.arange(len(ch_ids)), nearest]
    relays = np.isfinite(hop_dist)
    if not sending.all():
        # farthest from the BS first, so a relay is marked before its turn
        marked = sending.tolist()
        relay_slot = np.where(relays, nearest, -1).tolist()
        for k in np.argsort(-to_bs, kind="stable").tolist():
            if marked[k] and relay_slot[k] >= 0:
                marked[relay_slot[k]] = True
        sending = np.array(marked, dtype=bool)
    return (np.where(relays, ch_ids[nearest], -1),
            np.where(relays, hop_dist, to_bs), sending)
