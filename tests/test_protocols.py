import math
import random
import sys
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsnsim import protocols
from wsnsim.network import ADVANCED, NORMAL, NetworkConfig, deploy
from wsnsim.protocols import (
    Protocol,
    elect_cluster_heads,
    election_threshold,
    epoch_length,
    form_clusters,
    make_protocol,
    network_average_energy,
    sep_probabilities,
    teen_next_hop,
    teen_should_transmit,
)

from helpers import ScriptedRng, make_network


def assignment(clusters):
    return dict(zip(clusters.members.tolist(), clusters.heads.tolist()))


def distance(net, a, b):
    """From node a to node b, with `network.euclidean`'s float operations."""
    dx, dy = net.x[a] - net.x[b], net.y[a] - net.y[b]
    return np.sqrt(dx * dx + dy * dy)


# --- thresholds -----------------------------------------------------------

def test_election_threshold_epoch_start():
    assert election_threshold(0.1, 0) == pytest.approx(0.1, rel=1e-12)


def test_election_threshold_epoch_end_is_one():
    assert epoch_length(0.1) == 10
    assert election_threshold(0.1, 9) == 1.0


def test_election_threshold_need_not_reach_one():
    # round(1/0.3) = 3 rounds, and the last one's T(n) is 0.3 / (1 - 0.6)
    assert epoch_length(0.3) == 3
    assert election_threshold(0.3, 2) == pytest.approx(0.75, rel=1e-12)


def test_epoch_length_rejects_bad_probability():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            epoch_length(p)


# the least p_opt a config accepts (at alpha = 0): the least p whose 1/p is finite
P_LEAST = math.nextafter(1.0 / sys.float_info.max, 1.0)


def test_p_least_is_the_configs_floor():
    assert NetworkConfig(p_opt=P_LEAST, adv_energy_factor=0.0).p_opt == P_LEAST
    with pytest.raises(ValueError, match="p_opt"):
        NetworkConfig(p_opt=math.nextafter(P_LEAST, 0.0), adv_energy_factor=0.0)


@given(st.floats(min_value=P_LEAST, max_value=1.0))
def test_epoch_length_is_pythons_round(p):
    assert float(epoch_length(p)) == round(1 / p)
    assert epoch_length(p) >= 1


def test_sep_probabilities_hand_values():
    p_nrm, p_adv = sep_probabilities(0.1, 0.1, 1.0)
    assert p_nrm == pytest.approx(0.1 / 1.1, rel=1e-12)
    assert p_adv == pytest.approx(0.2 / 1.1, rel=1e-12)


def test_sep_probabilities_collapse_cases():
    assert sep_probabilities(0.1, 0.3, 0.0) == (pytest.approx(0.1), pytest.approx(0.1))
    p_nrm, p_adv = sep_probabilities(0.1, 0.0, 2.0)
    assert p_nrm == pytest.approx(0.1, rel=1e-12)
    assert p_adv == pytest.approx(0.3, rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_sep_weighted_mean_identity(p_opt, m, alpha):
    p_nrm, p_adv = sep_probabilities(p_opt, m, alpha)
    assert (1 - m) * p_nrm + m * p_adv == pytest.approx(p_opt, rel=1e-12)


def sep_network():
    """Nodes 0, 1 normal and 2, 3 advanced, an advanced share of 0.5; at
    p_opt = 0.15 and alpha = 1, SEP gives p_nrm = 0.1 and p_adv = 0.2."""
    return make_network([(float(i), 0.0) for i in range(4)],
                        classes=[NORMAL, NORMAL, ADVANCED, ADVANCED],
                        p_opt=0.15, adv_fraction=0.5)


def test_sep_threshold_normal_epoch_start():
    net = sep_network()
    outcome = elect_cluster_heads(net, Protocol("sep"), 0, random.Random(0))
    normal = outcome.candidates < 2
    assert outcome.candidates[normal].tolist() == [0, 1]
    assert outcome.thresholds[normal] == pytest.approx([0.1] * 2, rel=1e-12)


def test_sep_threshold_advanced_mid_epoch():
    net = sep_network()
    outcome = elect_cluster_heads(net, Protocol("sep"), 3, random.Random(0))
    advanced = outcome.candidates >= 2
    assert outcome.candidates[advanced].tolist() == [2, 3]
    # r mod 5 == 3: p_adv / (1 - 3*p_adv) == 0.5
    assert outcome.thresholds[advanced] == pytest.approx([0.5] * 2, rel=1e-12)


def test_sep_threshold_ineligible():
    net = sep_network()
    net.eligible[[1, 3]] = False
    # round 3 refills neither class's eligibility (epochs of 10 and 5 rounds)
    outcome = elect_cluster_heads(net, Protocol("sep"), 3, random.Random(0))
    assert outcome.candidates.tolist() == [0, 2]
    assert not np.isin([1, 3], outcome.ch_ids).any()


# --- DEEC -----------------------------------------------------------------

def test_network_average_energy_two_point():
    assert network_average_energy([0.5, 1.0]) == pytest.approx(0.75, rel=1e-12)


def test_network_average_energy_all_dead():
    # DEEC divides by the average, and a directly built network may hold no energy
    with pytest.raises(ValueError, match="must be positive"):
        network_average_energy([0.0, 0.0])


def test_network_average_energy_rejects_no_nodes():
    with pytest.raises(ValueError, match="no nodes"):
        network_average_energy([])


def test_network_average_energy_weighted():
    residuals = [0.5] * 90 + [1.0] * 10
    assert network_average_energy(residuals) == pytest.approx(0.55, rel=1e-12)


def deec_round_zero(residuals, advanced=(), **cfg_kwargs):
    """DEEC's p for each of len(residuals) nodes, ids in `advanced` advanced:
    at round 0 every node is a candidate and its threshold is its p."""
    n = len(residuals)
    classes = [ADVANCED if i in advanced else NORMAL for i in range(n)]
    net = make_network([(float(i), 0.0) for i in range(n)], classes=classes, **cfg_kwargs)
    net.residual[:] = residuals
    outcome = elect_cluster_heads(net, Protocol("deec"), 0, random.Random(0))
    assert outcome.candidates.tolist() == list(range(n))
    return outcome.thresholds


# node 0 (normal) and node 9 (the one advanced node) hold the average, 0.55
AT_AVERAGE = [0.55] + [0.5, 0.6] * 4 + [0.55]


def test_deec_probability_normal_at_average():
    assert deec_round_zero(AT_AVERAGE, advanced={9})[0] == pytest.approx(0.1 / 1.1, rel=1e-12)


def test_deec_probability_advanced_at_average():
    assert deec_round_zero(AT_AVERAGE, advanced={9})[9] == pytest.approx(0.2 / 1.1, rel=1e-12)


def test_deec_probability_vanishes_with_energy():
    p = deec_round_zero([1e-12] + [0.5] * 9)[0]
    assert 0 < p < 1e-10


def test_deec_probability_clamps_to_one():
    assert deec_round_zero([10.0] + [0.01] * 9, p_opt=0.5)[0] == 1.0


def test_deec_probability_rejects_degenerate_network():
    with pytest.raises(ValueError, match="must be positive"):
        deec_round_zero([0.0] * 4)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=1e-3, max_value=2.0),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6))
def test_deec_reduces_to_sep_at_equal_residuals(p_opt, m, alpha, energy, n, seed):
    # with every residual equal, E_i / E_avg is 1 and DEEC's p is its class's
    # SEP probability at the deployed share
    cfg = NetworkConfig(node_count=n, p_opt=p_opt, adv_fraction=m, adv_energy_factor=alpha)
    net = deploy(cfg, seed)
    net.residual[:] = energy
    p_nrm, p_adv = sep_probabilities(p_opt, np.count_nonzero(net.advanced) / n, alpha)
    outcome = elect_cluster_heads(net, Protocol("deec"), 0, random.Random(0))
    want = np.minimum(1.0, np.where(net.advanced, p_adv, p_nrm))
    assert outcome.thresholds == pytest.approx(want, rel=1e-12)


def reference_weights(alphas, p_opt):
    """DEEC's multi-level weights (Qing et al. 2006), an oracle independent of
    `sep_probabilities`: node i gets p_opt * N * (1 + alpha_i) / (N + sum(alpha))."""
    n = len(alphas)
    return [p_opt * n * (1.0 + a) / (n + sum(alphas)) for a in alphas]


def test_deec_reference_weight_homogeneous():
    # at alpha = 0 the classes weigh the same, so equal residuals give p_opt
    assert deec_round_zero([0.5] * 3, advanced={1}, adv_energy_factor=0.0) == \
        pytest.approx([0.1] * 3, rel=1e-12)


def test_deec_reference_weight_two_level_hand_values():
    # two nodes at equal residuals, one advanced with alpha = 1
    assert deec_round_zero([0.5, 0.5], advanced={1}) == \
        pytest.approx([0.1 * 2 * 1 / 3, 0.1 * 2 * 2 / 3], rel=1e-12)


def test_deec_reference_weight_single_node():
    # a lone node is all of the network: its weight is p_opt whatever its alpha
    assert deec_round_zero([0.5], advanced={0}, adv_energy_factor=3.0) == \
        pytest.approx([0.1], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=0, max_value=10**6))
def test_deec_at_average_energy_is_the_reference_weight(n, m, p_opt, alpha, seed):
    # at equal residuals every node holds the average, and DEEC's p is the
    # multi-level weight of the deployed alphas, whatever m * N is
    cfg = NetworkConfig(node_count=n, p_opt=p_opt, adv_fraction=m, adv_energy_factor=alpha)
    net = deploy(cfg, seed)
    net.residual[:] = cfg.initial_energy
    outcome = elect_cluster_heads(net, Protocol("deec"), 0, random.Random(0))
    want = reference_weights((alpha * net.advanced).tolist(), p_opt)
    assert outcome.thresholds == pytest.approx(np.minimum(1.0, want), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=30),
       st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_deec_reference_weight_preserves_mean(is_advanced, p_opt, alpha):
    # at equal residuals the unclamped weights average to p_opt, for any class split
    n = len(is_advanced)
    assume(max(reference_weights([alpha * a for a in is_advanced], p_opt)) <= 1.0)
    advanced = {i for i, a in enumerate(is_advanced) if a}
    got = deec_round_zero([0.5] * n, advanced=advanced, p_opt=p_opt, adv_energy_factor=alpha)
    assert math.fsum(got.tolist()) / n == pytest.approx(p_opt, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6))
def test_sep_round_zero_thresholds_use_the_deployed_split(p_opt, m, alpha, n, seed):
    # deploy makes floor(m*N) nodes advanced; SEP weights by that count, so
    # its nodes elect p_opt of themselves on average whatever m*N is
    net = deploy(NetworkConfig(node_count=n, p_opt=p_opt, adv_fraction=m,
                               adv_energy_factor=alpha), seed)
    p_nrm, p_adv = sep_probabilities(p_opt, np.count_nonzero(net.advanced) / n, alpha)
    outcome = elect_cluster_heads(net, Protocol("sep"), 0, random.Random(0))
    assert outcome.candidates.tolist() == list(range(n))
    assert outcome.thresholds.tolist() == np.where(net.advanced, min(1.0, p_adv),
                                                   min(1.0, p_nrm)).tolist()
    if p_adv <= 1.0:
        assert math.fsum(outcome.thresholds.tolist()) / n == pytest.approx(p_opt, rel=1e-12)


@pytest.mark.parametrize("name", ["sep", "deec"])
def test_elections_weight_by_the_deployed_split_not_the_configured_one(name):
    # the config says half the nodes are advanced; the network holds 1 in 10
    net = make_network([(float(i), 0.0) for i in range(10)], classes=[ADVANCED] + [NORMAL] * 9,
                       adv_fraction=0.5)
    outcome = elect_cluster_heads(net, Protocol(name), 0, random.Random(0))
    assert outcome.thresholds == pytest.approx([2 / 11] + [1 / 11] * 9, rel=1e-12)
    assert math.fsum(outcome.thresholds.tolist()) / 10 == pytest.approx(0.1, rel=1e-12)


# --- election -------------------------------------------------------------

def test_elect_all_when_p_is_one():
    net = deploy(NetworkConfig(node_count=10, p_opt=1.0), seed=1)
    outcome = elect_cluster_heads(net, Protocol("leach"), 0, random.Random(0))
    assert sorted(outcome.ch_ids) == list(range(10))


def test_elect_all_at_epoch_end():
    net = deploy(NetworkConfig(node_count=10), seed=1)
    outcome = elect_cluster_heads(net, Protocol("leach"), 9, random.Random(0))
    assert sorted(outcome.ch_ids) == list(range(10))
    assert outcome.candidates.tolist() == list(range(10))
    assert all(outcome.thresholds == 1.0)


def test_dead_nodes_never_elected():
    net = deploy(NetworkConfig(node_count=5, p_opt=1.0), seed=1)
    net.alive[2] = False
    net.residual[2] = 0.0
    outcome = elect_cluster_heads(net, Protocol("leach"), 0, random.Random(0))
    assert 2 not in outcome.ch_ids
    assert 2 not in outcome.candidates


def test_elected_draw_below_threshold():
    net = deploy(NetworkConfig(node_count=30, p_opt=0.3), seed=4)
    outcome = elect_cluster_heads(net, Protocol("leach"), 2, random.Random(7))
    elected = np.isin(outcome.candidates, outcome.ch_ids)
    assert all(outcome.draws[elected] < outcome.thresholds[elected])


def test_each_node_elected_exactly_once_per_epoch():
    net = deploy(NetworkConfig(node_count=20), seed=11)
    rng = random.Random(5)
    elected = dict.fromkeys(range(20), 0)
    for r in range(10):
        outcome = elect_cluster_heads(net, Protocol("leach"), r, rng)
        for ch in outcome.ch_ids:
            elected[ch] += 1
    # epoch of 10 rounds at p=0.1: the ramp guarantees one term each
    assert all(count == 1 for count in elected.values())


def test_sep_election_uses_class_epochs():
    positions = [(float(i), 0.0) for i in range(4)]
    net = make_network(positions, classes=[NORMAL, NORMAL, ADVANCED, ADVANCED],
                       adv_fraction=0.5)
    rng = random.Random(3)
    seen = set()
    for r in range(12):
        seen.update(elect_cluster_heads(net, Protocol("sep"), r, rng).ch_ids)
    assert seen == {0, 1, 2, 3}


def test_deec_election_prefers_energetic_nodes():
    positions = [(float(i), 0.0) for i in range(10)]
    net = make_network(positions, adv_fraction=0.0, adv_energy_factor=0.0)
    net.residual[:5] = 0.05   # nearly drained
    rng = random.Random(1)
    counts = [0] * 10
    for r in range(200):
        for ch in elect_cluster_heads(net, Protocol("deec"), r, rng).ch_ids:
            counts[ch] += 1
    assert sum(counts[5:]) > sum(counts[:5])



def reference_election(network, protocol, r, rng):
    """Node by node: each alive node's p refills its own eligibility at its
    epoch wrap, and its threshold is election_threshold(p_i, r mod epoch)."""
    cfg = network.config
    share = np.count_nonzero(network.advanced) / len(network.advanced)
    p_nrm, p_adv = sep_probabilities(cfg.p_opt, share, cfg.adv_energy_factor)
    eligible = network.eligible.copy()
    alive = network.alive.nonzero()[0].tolist()
    p = {}
    for i in alive:
        p[i] = cfg.p_opt
        if protocol.name == "sep":
            p[i] = min(1.0, p_adv if network.advanced[i] else p_nrm)
        if r % epoch_length(p[i]) == 0:
            eligible[i] = True
    if not any(eligible[i] for i in alive):
        eligible[alive] = True
    candidates = [i for i in alive if eligible[i]]
    thresholds = [float(election_threshold(p[i], r % epoch_length(p[i]))) for i in candidates]
    for i, threshold in zip(candidates, thresholds):
        if rng.random() < threshold:
            eligible[i] = False
    return candidates, thresholds, eligible


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("leach", "teen", "sep")),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=200),
       st.data())
def test_class_election_matches_a_per_node_reference(name, p_opt, m, alpha, n, start, data):
    # 25 rounds cross at least one epoch wrap of every class (epochs <= 20
    # rounds); alpha up to 10 gives SEP a p_adv above 1
    cfg = NetworkConfig(node_count=n, p_opt=p_opt, adv_fraction=m, adv_energy_factor=alpha)
    net = deploy(cfg, data.draw(st.integers(min_value=0, max_value=10**6)))
    net.alive[:] = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    net.eligible[:] = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assume(net.alive.any())
    rng, ref_rng = random.Random(start), random.Random(start)
    for r in range(start, start + 25):
        candidates, thresholds, eligible = reference_election(net, Protocol(name), r, ref_rng)
        outcome = elect_cluster_heads(net, Protocol(name), r, rng)
        assert outcome.candidates.tolist() == candidates
        assert outcome.thresholds.tolist() == thresholds
        assert net.eligible.tolist() == eligible.tolist()

# --- cluster formation ----------------------------------------------------

def test_form_clusters_single_ch():
    net = make_network([(0, 0), (10, 10), (20, 20)])
    assert assignment(form_clusters(net, [1], net.alive)) == {0: 1, 2: 1}


def test_form_clusters_tie_breaks_to_lowest_id():
    # node 0 equidistant from CHs 3 and 7
    positions = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (10.0, 0.0),
                 (3.0, 3.0), (4.0, 4.0), (5.0, 5.0), (-10.0, 0.0)]
    net = make_network(positions)
    assert assignment(form_clusters(net, [7, 3], net.alive))[0] == 3


def test_form_clusters_nearest_wins():
    net = make_network([(0.0, 0.0), (10.0, 0.0), (0.0, 5.0)])
    assert assignment(form_clusters(net, [1, 2], net.alive))[0] == 2


def test_form_clusters_requires_chs():
    net = make_network([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        form_clusters(net, [], net.alive)


@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
def test_form_clusters_total_on_alive_non_chs(n, seed):
    net = deploy(NetworkConfig(node_count=n), seed=seed)
    rng = random.Random(seed)
    dead = [i for i in range(n) if rng.random() < 0.2]
    net.alive[dead[: n - 1]] = False
    alive_ids = np.flatnonzero(net.alive).tolist()
    ch_ids = alive_ids[: max(1, len(alive_ids) // 3)]
    clusters = form_clusters(net, ch_ids, net.alive)
    assert set(clusters.members.tolist()) == set(alive_ids) - set(ch_ids)
    for member, ch, d in zip(clusters.members, clusters.heads, clusters.distances):
        assert d == distance(net, member, ch)
        assert all(d <= distance(net, member, other) + 1e-12 for other in ch_ids)


# --- TEEN mechanics -------------------------------------------------------

def gate(net, sensed):
    """Node 0's TEEN gate on one sensed value, at the default hard 100 / soft 2.

    The default sensing range [0, 200) turns a draw u into the reading 200 * u.
    """
    return teen_should_transmit(net, np.array([0]), ScriptedRng(sensed / 200.0))[0]


def test_teen_gate_first_crossing_transmits():
    net = make_network([(0.0, 0.0)])
    assert gate(net, 150.0)
    assert net.teen_last_sent[0] == 150.0


def test_teen_gate_blocks_small_change():
    net = make_network([(0.0, 0.0)])
    net.teen_last_sent[0] = 149.5
    assert not gate(net, 150.0)
    assert net.teen_last_sent[0] == 149.5


def test_teen_gate_blocks_below_hard_threshold():
    net = make_network([(0.0, 0.0)])
    net.teen_last_sent[0] = 10.0
    assert not gate(net, 90.0)


def test_teen_gate_reads_the_config_in_id_order():
    # readings 20 + 160 * u over ids 1 and 3 only; node 3's 80 misses the
    # hard threshold of 90, node 1's 100 reports
    net = make_network([(float(i), 0.0) for i in range(4)], teen_sense_min=20.0,
                       teen_sense_max=180.0, teen_hard_threshold=90.0)
    reporting = teen_should_transmit(net, np.array([1, 3]), ScriptedRng(0.5, 0.375))
    assert reporting.tolist() == [False, True, False, False]
    assert net.teen_last_sent[1] == 100.0
    assert np.isnan(net.teen_last_sent[[0, 2, 3]]).all()


def test_teen_next_hop_single_ch_goes_to_bs():
    net = make_network([(10.0, 10.0), (20.0, 20.0)])
    next_hop, hop_dist, sending = teen_next_hop(net, np.array([0]), np.array([False]))
    assert next_hop.tolist() == [-1]
    assert hop_dist[0] == net.dist_to_bs[0]
    assert sending.tolist() == [False]


def test_teen_next_hop_prefers_near_ch_closer_to_bs():
    # BS at (50,50); ch0 is 40 from BS, ch1 is 10 from BS and 30 from ch0
    net = make_network([(10.0, 50.0), (40.0, 50.0), (90.0, 50.0)])
    next_hop, hop_dist, sending = teen_next_hop(net, np.array([0, 1]), np.array([True, False]))
    assert next_hop.tolist() == [1, -1]
    assert hop_dist.tolist() == [30.0, 10.0]
    assert sending.tolist() == [True, True]   # ch1 relays ch0's packet


def test_teen_next_hop_forwarding_is_acyclic():
    net = deploy(NetworkConfig(node_count=40), seed=8)
    ch_ids = np.arange(0, 40, 4)
    next_hop = teen_next_hop(net, ch_ids, np.ones(len(ch_ids), dtype=bool))[0]
    hop_of = dict(zip(ch_ids.tolist(), next_hop.tolist()))
    for ch in ch_ids.tolist():
        hops = 0
        current = ch
        while hop_of[current] >= 0:
            nxt = hop_of[current]
            assert net.dist_to_bs[nxt] < net.dist_to_bs[current]
            current = nxt
            hops += 1
            assert hops <= len(ch_ids)


@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10), st.booleans()),
                min_size=1, max_size=15))
def test_teen_next_hop_matches_pairwise_search(cells):
    # every node a CH, on a 10 m grid so that distance ties are exact; a CH
    # sends when it has data or lies on the hop chain of one that has
    net = make_network([(10.0 * i, 10.0 * j) for i, j, _ in cells])
    ch_ids = np.arange(len(cells))
    has_data = np.array([data for _, _, data in cells])
    next_hop, hop_dist, sending = teen_next_hop(net, ch_ids, has_data)
    on_chain = has_data.copy()
    for ch in has_data.nonzero()[0].tolist():
        while next_hop[ch] >= 0:
            ch = next_hop[ch]
            on_chain[ch] = True
    assert sending.tolist() == on_chain.tolist()
    for ch in ch_ids.tolist():
        best, best_d = -1, float("inf")
        for other in ch_ids.tolist():
            if net.dist_to_bs[other] < net.dist_to_bs[ch] and distance(net, ch, other) < best_d:
                best, best_d = other, distance(net, ch, other)
        assert next_hop[ch] == best
        assert hop_dist[ch] == (best_d if best >= 0 else net.dist_to_bs[ch])


# --- grid search for the nearest CH ----------------------------------------

SPACINGS = (0.1, 1.0, 10.0)


def scan_nearest(net, rows, chs, closer_to_bs=False):
    """Each row's nearest CH and distance by a scan over every CH in id order.

    Distances use `network.euclidean`'s float operations, one row at a time;
    a later CH replaces the best only when strictly nearer, so ties go to the
    lowest id. With `closer_to_bs`, only CHs strictly closer to the BS count,
    and a row with none gets -1 at distance inf.
    """
    heads, dists = [], []
    for r in np.asarray(rows).tolist():
        dx = net.x[r] - net.x[chs]
        dy = net.y[r] - net.y[chs]
        d = np.sqrt(dx * dx + dy * dy)
        best, best_d = -1, np.inf
        for c, dc, bs in zip(np.asarray(chs).tolist(), d, net.dist_to_bs[chs]):
            if dc < best_d and (not closer_to_bs or bs < net.dist_to_bs[r]):
                best, best_d = c, dc
        heads.append(best)
        dists.append(best_d)
    return np.array(heads, dtype=int), np.array(dists, dtype=float)


def assert_same_search(net, chs):
    """form_clusters and teen_next_hop agree with `scan_nearest`, to the bit."""
    clusters = form_clusters(net, chs, net.alive)
    alive_non_chs = np.setdiff1d(np.flatnonzero(net.alive), chs)
    assert clusters.members.tolist() == alive_non_chs.tolist()
    heads, dists = scan_nearest(net, clusters.members, chs)
    assert clusters.heads.tolist() == heads.tolist()
    assert clusters.distances.view(np.int64).tolist() == dists.view(np.int64).tolist()

    next_hop, hop_dist, _ = teen_next_hop(net, chs, np.ones(len(chs), dtype=bool))
    hops, hop_dists = scan_nearest(net, chs, chs, closer_to_bs=True)
    hop_dists[hops < 0] = net.dist_to_bs[chs][hops < 0]
    assert next_hop.tolist() == hops.tolist()
    assert hop_dist.view(np.int64).tolist() == hop_dists.view(np.int64).tolist()


@contextmanager
def grid_from_any_size():
    """Search on the grid whenever there is a row to search, not only past
    the size where it pays off, so that small layouts reach it."""
    cutoff = protocols._GRID_MIN_BLOCK
    protocols._GRID_MIN_BLOCK = 1
    try:
        yield
    finally:
        protocols._GRID_MIN_BLOCK = cutoff


@st.composite
def search_layouts(draw):
    """A network and its CHs: random or lattice positions (lattices give
    exact distance ties), CHs from anywhere or only from the middle of the
    field (so members lie outside the CHs' bounding box), and a BS on the
    field, on a node, or off the field."""
    if draw(st.booleans()):
        spacing = draw(st.sampled_from(SPACINGS))
        side = draw(st.integers(min_value=2, max_value=14))
        cells = draw(st.lists(st.integers(min_value=0, max_value=side * side - 1),
                              min_size=2, max_size=side * side, unique=True))
        positions = [(spacing * (c % side), spacing * (c // side)) for c in cells]
        extent = spacing * (side - 1)
    else:
        rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
        positions = [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
                     for _ in range(draw(st.integers(min_value=2, max_value=200)))]
        extent = 100.0
    n = len(positions)
    bs = draw(st.sampled_from([(0.5 * extent, 0.5 * extent), positions[0],
                               (0.5 * extent, 3.0 * extent + 1.0), (-2.0 * extent - 1.0, 0.0)]))
    net = make_network(positions, bs=bs)
    pool = list(range(n))
    if draw(st.booleans()):
        inner = [i for i, (x, y) in enumerate(positions)
                 if 0.25 * extent <= x <= 0.75 * extent and 0.25 * extent <= y <= 0.75 * extent]
        pool = inner or pool
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    chs = np.array(sorted(rng.sample(pool, draw(st.integers(min_value=1, max_value=len(pool))))))
    net.alive[[i for i in range(n) if i not in set(chs.tolist()) and rng.random() < 0.1]] = False
    return net, chs


@settings(max_examples=150, deadline=None)
@given(search_layouts())
def test_grid_search_matches_a_pairwise_scan(layout):
    net, chs = layout
    with grid_from_any_size():
        assert_same_search(net, chs)


@settings(max_examples=100, deadline=None)
@given(search_layouts(), st.data())
def test_form_clusters_gives_the_rows_of_its_mask(layout, data):
    # a row's nearest CH does not depend on the other rows, so clustering
    # only the nodes with data gives exactly their rows of the full search
    net, chs = layout
    picked = data.draw(st.lists(st.booleans(), min_size=len(net.alive), max_size=len(net.alive)))
    masks = [np.zeros_like(net.alive), net.alive.copy(), net.alive & np.array(picked)]
    for search in (nullcontext, grid_from_any_size):
        with search():
            full = form_clusters(net, chs, net.alive)
            for mask in masks:
                part = form_clusters(net, chs, mask)
                rows = mask[full.members]
                assert part.members.tolist() == full.members[rows].tolist()
                assert part.heads.tolist() == full.heads[rows].tolist()
                assert (part.distances.view(np.int64).tolist()
                        == full.distances[rows].view(np.int64).tolist())


@pytest.mark.parametrize("spacing", (None,) + SPACINGS)
def test_grid_search_past_the_cutoff_matches_a_pairwise_scan(spacing):
    # 1600 nodes, deployed or on a 40 x 40 lattice, with the BS off the
    # field; 320 CHs put both searches past the dense cutoff
    if spacing is None:
        net = deploy(NetworkConfig(node_count=1600, bs_position=(50.0, 175.0)), seed=5)
    else:
        net = make_network([(spacing * (i % 40), spacing * (i // 40)) for i in range(1600)],
                           bs=(20.0 * spacing, 90.0 * spacing))
    chs = np.arange(0, 1600, 5)
    assert len(chs) ** 2 >= protocols._GRID_MIN_BLOCK
    assert_same_search(net, chs)


def test_grid_stays_small_on_degenerate_layouts():
    queries = np.stack((np.linspace(-10.0, 110.0, 50), np.linspace(0.0, 40.0, 50)))
    # 1000 collinear points: one row of ceil(sqrt(1000)) = 32 cells
    line = np.stack((np.linspace(0.0, 100.0, 1000), np.full(1000, 20.0)))
    table, rows, margin = protocols._grid_candidates(line, queries)
    assert table.shape[0] == 32
    assert table.shape[1] <= 3 * math.ceil(1000 / 32)
    assert rows.max() < 32
    # 50 coincident points, then 299 at one point and one far off: every
    # point a candidate of every query, with no edge
    point = np.full((2, 50), 7.5)
    clump = np.full((2, 300), 5.0)
    clump[:, -1] = 95.0
    for points in (point, clump):
        table, rows, margin = protocols._grid_candidates(points, queries)
        assert table.tolist() == [list(range(points.shape[1]))]
        assert rows.tolist() == [0] * 50
        assert np.isinf(margin).all()


def test_grid_search_matches_a_pairwise_scan_on_degenerate_layouts():
    # 1000 collinear CHs among 200 members, then 299 CHs at one point and
    # one far off among 300 members, both past the cutoff; then 50
    # coincident CHs
    positions = [(0.1 * i, 20.0) for i in range(1000)]
    positions += [(0.5 * i, 10.0 + i % 20) for i in range(200)]
    net = make_network(positions, bs=(30.0, 60.0))
    assert_same_search(net, np.arange(1000))
    positions = [(5.0, 5.0)] * 299 + [(95.0, 95.0)] + [(i / 3.0, 50.0) for i in range(300)]
    net = make_network(positions, bs=(50.0, 0.0))
    assert_same_search(net, np.arange(300))
    net = make_network([(7.5, 7.5)] * 50 + [(float(i), 3.0) for i in range(30)])
    with grid_from_any_size():
        assert_same_search(net, np.arange(50))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6))
def test_round_zero_thresholds_follow_the_config(p_opt, m, alpha, n, seed):
    # every node is a candidate at round 0, where the threshold is p itself
    cfg = NetworkConfig(node_count=n, p_opt=p_opt, adv_fraction=m, adv_energy_factor=alpha)
    net = deploy(cfg, seed)
    adv = net.advanced
    share = adv.sum() / n
    energy = np.where(adv, cfg.initial_energy * (1.0 + alpha), cfg.initial_energy)
    avg = cfg.initial_energy * (1.0 + alpha * share)
    deec = p_opt * energy / ((1.0 + alpha * share) * avg) * np.where(adv, 1.0 + alpha, 1.0)
    p_nrm = p_opt / (1.0 + alpha * share)
    expected = {
        "leach": np.full(n, p_opt),
        "teen": np.full(n, p_opt),
        "sep": np.where(adv, p_nrm * (1.0 + alpha), p_nrm),
        "deec": deec,
    }
    for name, p in expected.items():
        outcome = elect_cluster_heads(deploy(cfg, seed), make_protocol(name, cfg), 0,
                                      random.Random(seed))
        assert outcome.candidates.tolist() == list(range(n))
        assert outcome.thresholds == pytest.approx(np.minimum(1.0, p), rel=1e-9)


def test_make_protocol_rejects_unknown_names():
    cfg = NetworkConfig()
    assert make_protocol(" TEEN ", cfg) == Protocol("teen")
    with pytest.raises(ValueError, match="unknown protocol 'pegasis'"):
        make_protocol("pegasis", cfg)
    with pytest.raises(ValueError, match="unknown protocol"):
        Protocol("LEACH")
