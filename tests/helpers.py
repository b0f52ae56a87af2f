"""Test helpers shared by more than one test module."""

from dataclasses import asdict, astuple

import numpy as np
from hypothesis import strategies as st

from wsnsim import protocols
from wsnsim.energy_model import RadioParams, crossover_distance, tx_energy
from wsnsim.engine import SimulationState
from wsnsim.lifetime_bound import BoundInstance
from wsnsim.network import _BULK_DRAWS, ADVANCED, NORMAL, Network, NetworkConfig, deploy

# one default packet sent at d0: the least battery for which the network
# bound's K* >= min(LEACH lifetime, K) holds
D0_PACKET = tx_energy(RadioParams(), 4000, crossover_distance(RadioParams()))


def make_network(positions, classes=None, bs=(50.0, 50.0), **cfg_kwargs):
    """A network at the given positions, every node NORMAL unless `classes`
    says otherwise, each starting at the config's `initial_energy`."""
    cfg = NetworkConfig(node_count=len(positions), bs_position=bs, **cfg_kwargs)
    classes = classes or [NORMAL] * len(positions)
    x, y = np.array(positions, dtype=float).T
    return Network(cfg, x, y, [c == ADVANCED for c in classes],
                   np.full(len(positions), cfg.initial_energy))


class ScriptedRng:
    """Stand-in PRNG whose random() returns `draws` in order, then raises.

    A round draws once per election candidate, in id order, and then, for
    TEEN, once per alive node, in id order; a TEEN reading is
    sense_min + (sense_max - sense_min) * draw, 200 * draw by default.

    It has no getrandbits, so it stands in only where `uniform_draws` takes
    its values from random(), below `_BULK_DRAWS` draws a call: a script of
    that many values is refused. A draw past the script's end ends in
    np.fromiter's ValueError ("iterator too short"), not StopIteration.
    """

    def __init__(self, *draws):
        if len(draws) >= _BULK_DRAWS:
            raise ValueError(f"ScriptedRng has no getrandbits, so it scripts fewer than "
                             f"{_BULK_DRAWS} draws; got {len(draws)}")
        self.random = iter(draws).__next__


def random_instance(rng, n_max=4, m_max=2, z_max=2, k_max=10, n_min=1, m_min=1, z_min=1):
    """A random bound instance; its draws from `rng` depend only on the bounds given."""
    n = rng.randint(n_min, n_max)
    m = rng.randint(m_min, m_max)
    z = rng.randint(z_min, z_max)
    k = rng.randint(1, k_max)
    energies = tuple(round(rng.uniform(0.2, 1.5), 3) for _ in range(z))
    budget = round(rng.uniform(0.5, 3.0), 3)
    coverage = tuple(
        tuple(tuple(rng.random() < 0.7 for _ in range(m)) for _ in range(z))
        for _ in range(n))
    return BoundInstance(n_sensors=n, n_chs=m, n_ranges=z, k_max=k,
                         range_energies=energies, budget=budget,
                         coverage=coverage)


# each radio constant at 0.1-10x its default, so d0 = sqrt(e_fs / e_mp) moves too
radios = st.builds(RadioParams, **{name: st.floats(min_value=0.1 * value, max_value=10.0 * value)
                                   for name, value in asdict(RadioParams()).items()})


@st.composite
def configs(draw):
    """Small networks (N <= 40) with every protocol parameter drawn: fields
    from 5 to 400 m a side, the BS on or off the field, small batteries."""
    sense_min = draw(st.floats(min_value=-100.0, max_value=100.0))
    hard = sense_min + draw(st.floats(min_value=1e-3, max_value=200.0))
    return NetworkConfig(
        field_width=draw(st.floats(min_value=5.0, max_value=400.0)),
        field_height=draw(st.floats(min_value=5.0, max_value=400.0)),
        node_count=draw(st.integers(min_value=1, max_value=40)),
        bs_position=draw(st.tuples(st.floats(min_value=-200.0, max_value=600.0),
                                   st.floats(min_value=-200.0, max_value=600.0))),
        initial_energy=draw(st.floats(min_value=0.002, max_value=0.05)),
        p_opt=draw(st.sampled_from([0.05, 0.1, 0.3, 1.0])),
        adv_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        adv_energy_factor=draw(st.floats(min_value=0.0, max_value=3.0)),
        packet_bits=draw(st.integers(min_value=1, max_value=8000)),
        radio=draw(radios),
        teen_sense_min=sense_min,
        teen_hard_threshold=hard,
        teen_sense_max=hard + draw(st.floats(min_value=1e-3, max_value=200.0)),
        teen_soft_threshold=draw(st.floats(min_value=0.0, max_value=20.0)),
    )


def run_rounds(cfg, protocol, seed):
    """Each round of a run, up to `cfg.max_rounds`, as its trace row, debit and
    residuals; whether the network priced from link tables; and how many grid
    searches the run made."""
    net = deploy(cfg, seed)
    state = SimulationState(net, protocol, seed)
    grid_searches = []
    grid_candidates = protocols._grid_candidates

    def counted(*args):
        grid_searches.append(1)
        return grid_candidates(*args)

    protocols._grid_candidates = counted
    try:
        rounds = []
        while len(rounds) < cfg.max_rounds and net.alive.any():
            m = state.run_round()
            rounds.append((astuple(m), state.round_debits[-1], net.residual.copy()))
    finally:
        protocols._grid_candidates = grid_candidates
    return rounds, net.pair_cost is not None, len(grid_searches)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_same_rounds(base, other, scale=1.0):
    """`other` is `base` (both from `run_rounds`) round for round, to the bit,
    with every energy times `scale`."""
    assert len(base) == len(other)
    for (row, debit, residual), (row_o, debit_o, residual_o) in zip(base, other):
        assert row[:-1] == row_o[:-1]
        assert bits([row[-1] * scale, debit * scale]) == bits([row_o[-1], debit_o])
        assert bits(residual * scale) == bits(residual_o)
