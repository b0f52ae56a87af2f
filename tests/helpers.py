"""Test helpers shared by more than one test module."""

import numpy as np

from wsnsim.energy_model import RadioParams, crossover_distance, tx_energy
from wsnsim.lifetime_bound import BoundInstance
from wsnsim.network import _BULK_DRAWS, ADVANCED, NORMAL, Network, NetworkConfig

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
