"""Cluster-head election, cluster formation and TEEN-specific mechanics.

All four protocols elect CHs the same way: an eligible node draws a uniform
number and becomes CH when the draw falls below its threshold. They differ
in how they turn the network config's p_opt and energy factor alpha into
the threshold probability:

- SEP splits p_opt into class-weighted probabilities for normal and
  advanced nodes so advanced nodes take CH duty more often. It weights by
  the deployed class split, so the nodes elect p_opt of themselves on
  average even where deploy's floor(m*N) advanced nodes are not m*N.
- LEACH / TEEN are SEP at alpha = 0: p_opt for every node.
- DEEC scales each node's SEP class probability by its residual energy
  relative to the current network average, so depleted nodes skip CH duty.

Every threshold is LEACH's T(n) at the node's p (`election_threshold`). A
node that becomes CH leaves the eligibility set until its epoch (round(1/p)
rounds) wraps around; the set also refills whenever it runs empty. TEEN
also gates member transmissions behind hard/soft sensing thresholds and
forwards CH packets hop by hop toward the base station, not directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import Network, euclidean, uniform_draws


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
    """Rounds until a former CH becomes eligible again: round(1/p), >= 1 as p <= 1.

    Rounds half to even, as Python's round does; array-capable, as a float.
    """
    _check_probability(p)
    return np.rint(1.0 / np.asarray(p, dtype=float))


def election_threshold(p, r_mod):
    """LEACH's T(n) = p / (1 - p * r_mod), `r_mod` rounds into an epoch, clamped to 1.

    It reaches 1 in an epoch's last round only if round(1/p) >= 1/p, less a
    rounding error (p = 0.3 ends at 0.75); nodes left over wait for the wrap.
    """
    return np.minimum(1.0, p / (1.0 - p * r_mod))


@lru_cache(maxsize=4096)
def _class_round(p: float, r_mod: int) -> tuple[bool, float]:
    """Whether a class electing with probability p refills its eligibility
    `r_mod` rounds into its epoch, and its threshold there."""
    return r_mod == 0, float(election_threshold(p, r_mod))


# cached: DEEC asks for its class p every round, and the check is numpy work
@lru_cache(maxsize=256)
def sep_probabilities(p_opt: float, m: float, alpha: float) -> tuple[float, float]:
    """Class-weighted CH probabilities (p_nrm, p_adv) for an advanced share m.

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
    them DEEC's thresholds and which draws elect. The mean must be positive,
    as DEEC divides by it.
    """
    if not residuals:
        raise ValueError("no nodes")
    average = sum(residuals) / len(residuals)
    if average <= 0:
        raise ValueError("network average energy must be positive")
    return average


@lru_cache(maxsize=256)
def _classes(p_nrm: float, p_adv: float) -> tuple[tuple[float, int], ...]:
    """(p, epoch in rounds) for normal, then advanced nodes; a p above 1 means
    a one-round epoch and a threshold of 1, as p = 1 does."""
    return tuple((q, int(epoch_length(q))) for q in (min(1.0, p_nrm), min(1.0, p_adv)))


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
    # classes weigh by the deployed advanced share; LEACH and TEEN are SEP at alpha = 0
    share = np.count_nonzero(network.advanced) / len(network.advanced)
    alpha = cfg.adv_energy_factor if protocol.name in ("sep", "deec") else 0.0
    p_nrm, p_adv = sep_probabilities(cfg.p_opt, share, alpha)
    if protocol.name == "deec":
        # p = min(1, p_class * E_i / E_avg), and with it the epoch, differs
        # from node to node; a p above 1 late in life clamps to 1
        avg_energy = network_average_energy(network.residual.tolist())
        p = np.minimum(1.0, np.where(network.advanced[ids], p_adv, p_nrm)
                       * network.residual[ids] / avg_energy)
        r_mod = round_index % epoch_length(p)
        eligible[ids[r_mod == 0]] = True
        threshold = election_threshold(p, r_mod)
    else:
        # p depends only on a node's class: each class's epoch wrap and
        # threshold are worked out once and broadcast to its nodes
        (p_nrm, epoch_nrm), (p_adv, epoch_adv) = _classes(p_nrm, p_adv)
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
    draws = uniform_draws(rng, len(candidates))
    ch_ids = candidates[draws < thresholds]
    eligible[ch_ids] = False
    return ElectionOutcome(ch_ids=ch_ids, candidates=candidates,
                           thresholds=thresholds, draws=draws)


@dataclass
class Clusters:
    """The round's non-CH nodes with data, in id order, each with its nearest CH and distance to it."""

    members: np.ndarray
    heads: np.ndarray
    distances: np.ndarray


def form_clusters(network: Network, ch_ids, reporting: np.ndarray) -> Clusters:
    """Assign every non-CH node in `reporting`, the mask over all nodes of those
    with data this round, to its nearest CH (ties: lowest CH id); a row's answer
    does not depend on the other rows. The distances are computed for this round only.
    """
    if len(ch_ids) == 0:
        raise ValueError("no cluster heads to form clusters around")
    chs = np.sort(np.asarray(ch_ids))
    is_member = reporting.copy()
    is_member[chs] = False
    members = is_member.nonzero()[0]
    nearest, distances = _nearest_ch(network, members, chs)
    return Clusters(members=members, heads=chs[nearest], distances=distances)


# Searches over fewer rows x CHs than this take one dense block: below it,
# bucketing the CHs costs more than the block saves. Measured inside whole
# runs on a 2-vCPU host, they break even at about 100 CHs for cluster formation (about
# 9 members per CH in LEACH, SEP and DEEC, 4 to 5 in TEEN) and 250 CHs for TEEN's next hops.
_GRID_MIN_BLOCK = 1 << 16
_GRID_BLOCK_ENTRIES = 8192


def _nearest_ch(network: Network, rows: np.ndarray, chs: np.ndarray,
                closer_to_bs: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """For each node in `rows`, the index into `chs` (ascending ids) of its
    nearest CH and the distance to it, each block searched by `_block_nearest`.

    With `closer_to_bs`, only CHs strictly closer to the BS than the row's
    node count (none: index 0 at distance inf). From `_GRID_MIN_BLOCK` rows x
    CHs on, a row searches the CHs in its 3x3 neighbourhood of grid cells, and
    every CH when its best is not nearer than the neighbourhood's edge (less a
    relative 1e-9), so the grid never changes an answer's bits.
    """
    cx, cy = network.x[chs], network.y[chs]
    cbs = network.dist_to_bs[chs] if closer_to_bs else None
    if len(rows) * len(chs) < _GRID_MIN_BLOCK:
        return _block_nearest(network, rows, cx, cy, cbs)
    table, qcell, margin = _grid_candidates(np.stack((cx, cy)),
                                            np.stack((network.x[rows], network.y[rows])))
    # padding (index len(chs)) sits at infinity, so it is never nearest
    padded = [v if v is None else np.append(v, np.inf) for v in (cx, cy, cbs)]
    nearest, distances = np.empty(len(rows), dtype=np.intp), np.empty(len(rows))
    for block in _row_blocks(len(rows), table.shape[1]):
        cand = table[qcell[block]]
        column, distances[block] = _block_nearest(
            network, rows[block], *(v if v is None else v[cand] for v in padded))
        nearest[block] = cand[np.arange(len(cand)), column]
    unsure = (~(distances < margin * (1.0 - 1e-9))).nonzero()[0]
    for block in _row_blocks(len(unsure), len(chs)):
        part = unsure[block]
        nearest[part], distances[part] = _block_nearest(network, rows[part], cx, cy, cbs)
    return nearest, distances


def _row_blocks(count: int, width: int):
    """Slices of `count` rows of `width` entries each, `_GRID_BLOCK_ENTRIES` entries to a block:
    larger temporaries were page-faulted in afresh on every call, which cost more than the search."""
    step = max(1, _GRID_BLOCK_ENTRIES // width)
    return (slice(start, start + step) for start in range(0, count, step))


def _block_nearest(network: Network, rows: np.ndarray, cx, cy, cbs) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest candidate, as its column and distance; ties go to
    the first column (argmin's), the lowest id as columns ascend. `cx`, `cy`
    and `cbs` (distances to the BS, or None) are 1-D, shared by every row, or
    2-D, one row per row; with `cbs`, only candidates strictly closer to the
    BS than the row's node count (none: column 0 at distance inf)."""
    block = euclidean(network.x[rows][:, None] - cx, network.y[rows][:, None] - cy)
    if cbs is not None:
        block[~(cbs < network.dist_to_bs[rows][:, None])] = np.inf
    column = block.argmin(axis=1)
    return column, block[np.arange(len(rows)), column]


def _grid_candidates(points: np.ndarray,
                     queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket `points` (2 x k: x, then y) into a uniform grid and give each
    query (2 x q) its candidate points.

    The grid covers the points' bounding box in square cells, about one
    point to a cell when they spread over a square. The side comes from the
    box's larger extent, so there are at most (ceil(sqrt(k)))^2 cells even
    when the points are collinear or coincide. Returns a table with one row
    per cell, holding in ascending order the indexes of the points in that
    cell's 3x3 neighbourhood, padded with k; each query's row in it (its
    cell, clamped into the grid); and each query's margin, its distance to
    that neighbourhood's outer edge (inf on a side at the grid's border)
    less a rounding slack. No point outside a query's row lies nearer than
    its margin. When one cell holds a ninth of the points or more, the table
    is a single row of every point and every margin is inf, so the table
    never holds more than cells x k entries.
    """
    k = points.shape[1]
    origin = points.min(axis=1, keepdims=True)
    box = points.max(axis=1, keepdims=True) - origin
    per_side = math.ceil(math.sqrt(k))
    extent = box.max()
    side = extent / per_side if extent > 0 else 1.0
    # cells per axis, x then y; in cell units every cell edge is an integer
    shape = np.minimum(per_side, (box / side).astype(np.intp) + 1)
    nx, ny = shape[:, 0].tolist()

    def cell_of(u):
        return np.minimum(np.maximum(np.floor(u), 0), shape - 1).astype(np.intp)

    ix, iy = cell_of((points - origin) / side)
    cell = iy * nx + ix
    counts = np.bincount(cell, minlength=nx * ny)
    if 9 * counts.max() >= k:
        # a clump: some neighbourhood holds about every point, so each
        # query takes every point and the table stays one row
        q = queries.shape[1]
        return np.arange(k)[None, :], np.zeros(q, dtype=np.intp), np.full(q, np.inf)
    order = np.argsort(cell, kind="stable")
    rank = np.arange(k) - (np.cumsum(counts) - counts)[cell[order]]
    # each cell's points, padded with k, on the grid plus a ring of empty cells
    grid = np.full((ny + 2, nx + 2, counts.max()), k)
    grid[iy[order] + 1, ix[order] + 1, rank] = order
    table = np.concatenate([grid[dy:dy + ny, dx:dx + nx] for dy in range(3) for dx in range(3)],
                           axis=2).reshape(nx * ny, -1)
    table.sort(axis=1)
    table = table[:, :(table < k).sum(axis=1).max()]

    u = (queries - origin) / side
    qcell = cell_of(u)
    # distances in cell units to the neighbourhood's low and high edges
    low = np.where(qcell > 1, u - (qcell - 1), np.inf)
    high = np.where(qcell < shape - 2, (qcell + 2) - u, np.inf)
    # cell edges are exact integers in cell units, while u and the points'
    # cells carry rounding errors of a few ulps of the largest coordinate
    slack = 1e-12 * (np.abs(u).max() + per_side)
    margin = (np.minimum(low, high).min(axis=0) - slack) * side
    return table, qcell[1] * nx + qcell[0], margin


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
    draws = uniform_draws(rng, len(ids))
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
    to_bs = network.dist_to_bs[ch_ids]
    nearest, hop_dist = _nearest_ch(network, ch_ids, ch_ids, closer_to_bs=True)
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
