"""Exact metamorphic relations of whole runs: inputs transformed so that the
outputs are known to the bit, whatever they are.

- R1: every energy (the battery and all four radio constants) times 2^k
  scales every debit and residual by 2^k exactly and changes nothing else.
- R2: the field and the BS position doubled, with e_fs / 4 and e_mp / 16,
  doubles every distance and crossover distance d0 and leaves every cost,
  and so the whole run, unchanged.
- R3: SEP at alpha = 0 is LEACH.

Each runs on both sides of the link-table cutoff: at N = 100 rounds are
priced from the network's tables, at N = 400 from a dense block of
distances computed per round, and at N = 1600 cluster formation searches a
grid; and over `helpers.configs`' small networks. R1 and R2 change every
table entry, so they also check the tables against the runs that price
from them.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim.energy_model import RadioParams
from wsnsim.network import NetworkConfig
from wsnsim.protocols import PROTOCOL_NAMES, Protocol

from helpers import assert_same_rounds, configs, run_rounds

# batteries small enough that nodes die inside each size's round cap; at p_opt
# = 0.2, TEEN's next hops at N = 1600 search the grid too
SIZES = {
    "tables": NetworkConfig(initial_energy=0.03, max_rounds=300),
    "dense": NetworkConfig(node_count=400, field_width=200.0, field_height=200.0,
                           bs_position=(100.0, 100.0), initial_energy=0.006, max_rounds=25),
    "grid": NetworkConfig(node_count=1600, field_width=400.0, field_height=400.0, p_opt=0.2,
                          bs_position=(200.0, 450.0), initial_energy=0.05, max_rounds=4),
}
SEED = 3
DRAWN_ROUNDS = 150


def run(cfg, name, seed=SEED):
    return run_rounds(cfg, Protocol(name), seed)


# the untransformed runs, which several relations compare against
base_run = lru_cache(maxsize=None)(run)


@pytest.mark.parametrize("size", SIZES)
def test_each_size_takes_its_search(size):
    rounds, tabled, grid_searches = base_run(SIZES[size], "leach")
    assert tabled == (size == "tables")
    assert (grid_searches > 0) == (size == "grid")
    assert any(row[2] for row, _, _ in rounds), "no node died inside the round cap"


def energies_scaled(cfg, k):
    r, scale = cfg.radio, 2.0 ** k
    return replace(cfg, initial_energy=cfg.initial_energy * scale,
                   radio=RadioParams(r.e_elec * scale, r.e_fs * scale, r.e_mp * scale, r.e_da * scale))


def field_doubled(cfg):
    (bs_x, bs_y), r = cfg.bs_position, cfg.radio
    return replace(cfg, field_width=2.0 * cfg.field_width, field_height=2.0 * cfg.field_height,
                   bs_position=(2.0 * bs_x, 2.0 * bs_y),
                   radio=replace(r, e_fs=r.e_fs / 4.0, e_mp=r.e_mp / 16.0))


@pytest.mark.parametrize("k", [-8, 3, 8])
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("size", SIZES)
def test_r1_energies_times_a_power_of_two(size, name, k):
    cfg = SIZES[size]
    assert_same_rounds(base_run(cfg, name)[0], run(energies_scaled(cfg, k), name)[0], 2.0 ** k)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("size", SIZES)
def test_r2_field_doubled_with_amplifiers_quartered_and_sixteenthed(size, name):
    cfg = SIZES[size]
    assert_same_rounds(base_run(cfg, name)[0], run(field_doubled(cfg), name)[0])


@pytest.mark.parametrize("size", SIZES)
def test_r3_sep_without_extra_energy_is_leach(size):
    cfg = replace(SIZES[size], adv_fraction=0.2, adv_energy_factor=0.0)
    assert_same_rounds(run(cfg, "leach")[0], run(cfg, "sep")[0])


# the same relations over drawn small networks, radios and BS positions
@settings(max_examples=30, deadline=None)
@given(configs(), st.sampled_from(PROTOCOL_NAMES), st.integers(min_value=-8, max_value=8),
       st.integers(min_value=0, max_value=10**6))
def test_r1_over_drawn_configs(cfg, name, k, seed):
    cfg = replace(cfg, max_rounds=DRAWN_ROUNDS)
    assert_same_rounds(run(cfg, name, seed)[0], run(energies_scaled(cfg, k), name, seed)[0], 2.0 ** k)


@settings(max_examples=30, deadline=None)
@given(configs(), st.sampled_from(PROTOCOL_NAMES), st.integers(min_value=0, max_value=10**6))
def test_r2_over_drawn_configs(cfg, name, seed):
    cfg = replace(cfg, max_rounds=DRAWN_ROUNDS)
    assert_same_rounds(run(cfg, name, seed)[0], run(field_doubled(cfg), name, seed)[0])


@settings(max_examples=20, deadline=None)
@given(configs(), st.integers(min_value=0, max_value=10**6))
def test_r3_over_drawn_configs(cfg, seed):
    cfg = replace(cfg, adv_energy_factor=0.0, max_rounds=DRAWN_ROUNDS)
    assert_same_rounds(run(cfg, "leach", seed)[0], run(cfg, "sep", seed)[0])
