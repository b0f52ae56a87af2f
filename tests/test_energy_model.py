import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsnsim.energy_model import (
    RadioParams,
    aggregation_energy,
    crossover_distance,
    rx_energy,
    tx_energy,
)

TABLE = RadioParams()  # e_elec=50nJ, e_fs=10pJ, e_mp=0.0013pJ, e_da=5nJ


def test_crossover_distance_default_params():
    # sqrt(10e-12 / 0.0013e-12), checked by hand
    assert crossover_distance(TABLE) == pytest.approx(87.70580193070292, rel=1e-12)


def test_crossover_distance_identity_ratio():
    assert crossover_distance(RadioParams(e_fs=1.0, e_mp=1.0)) == 1.0


def test_crossover_distance_perfect_square():
    assert crossover_distance(RadioParams(e_fs=4.0, e_mp=1.0)) == 2.0


def test_params_reject_nonpositive_coefficients():
    for kwargs in ({"e_elec": 0.0}, {"e_fs": -1.0}, {"e_mp": 0.0}, {"e_da": -2e-9}):
        with pytest.raises(ValueError):
            RadioParams(**kwargs)


def test_tx_energy_free_space_hand_value():
    # 4000*50e-9 + 4000*10e-12*2500
    assert tx_energy(TABLE, 4000, 50.0) == pytest.approx(3.0e-4, rel=1e-12)


def test_tx_energy_zero_bits():
    assert tx_energy(TABLE, 0, 31.0) == 0.0


def tx_energy_reference(params, bits, distance):
    """The scalar first-order radio formula, one branch per regime."""
    d_sq = distance * distance
    if distance < crossover_distance(params):
        amp = params.e_fs * d_sq
    else:
        amp = params.e_mp * d_sq * d_sq
    return bits * params.e_elec + bits * amp


@given(st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20))
def test_tx_energy_arrays_match_the_scalar_formula(distances):
    # a mixed batch, and batches wholly on one side of the crossover
    d0 = crossover_distance(TABLE)
    below = [d for d in distances if d < d0] + [math.nextafter(d0, 0.0)]
    above = [d for d in distances if d >= d0] + [d0]
    for distances in (below + above, below, above):
        batch = tx_energy(TABLE, 4000, np.array(distances))
        for d, got in zip(distances, batch.tolist()):
            scalar = tx_energy(TABLE, 4000, d)
            assert type(scalar) is float
            assert got == scalar == tx_energy_reference(TABLE, 4000, d)


def test_tx_energy_branches_agree_at_crossover():
    d0 = crossover_distance(TABLE)
    d_sq = d0 * d0
    bits = 4000
    fs = bits * TABLE.e_elec + bits * (TABLE.e_fs * d_sq)
    mp = bits * TABLE.e_elec + bits * (TABLE.e_mp * d_sq * d_sq)
    assert fs == mp  # exactly, for these constants
    # frozen from an independent evaluation of either branch at d0
    assert tx_energy(TABLE, bits, d0) == pytest.approx(5.076923076923076e-4, rel=1e-12)


def test_rx_energy_hand_value():
    assert rx_energy(TABLE, 4000) == pytest.approx(2.0e-4, rel=1e-12)


def test_rx_energy_zero_bits():
    assert rx_energy(TABLE, 0) == 0.0


def test_rx_energy_unit_coefficient():
    params = RadioParams(e_elec=1.0)
    assert rx_energy(params, 7) == 7.0


def test_aggregation_energy_hand_value():
    assert aggregation_energy(TABLE, 4000, 10) == pytest.approx(2.0e-4, rel=1e-12)


def test_aggregation_energy_zero_reports():
    assert aggregation_energy(TABLE, 4000, 0) == 0.0


def test_aggregation_energy_unit_reading():
    assert aggregation_energy(RadioParams(e_da=5e-9), 1, 1) == pytest.approx(5e-9, rel=1e-12)


positive = st.floats(min_value=1e-15, max_value=1e3, allow_nan=False, allow_infinity=False)
params_st = st.builds(RadioParams, e_elec=positive, e_fs=positive, e_mp=positive,
                      e_da=positive)
bits_st = st.integers(min_value=0, max_value=10**6)
dist_st = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@given(params_st, bits_st, dist_st)
def test_tx_at_least_rx(params, bits, d):
    assert tx_energy(params, bits, d) >= rx_energy(params, bits)


@given(params_st, bits_st, bits_st, dist_st)
def test_tx_monotone_in_bits(params, b1, b2, d):
    lo, hi = sorted((b1, b2))
    assert tx_energy(params, lo, d) <= tx_energy(params, hi, d)


@given(params_st, bits_st, dist_st, dist_st)
def test_tx_monotone_in_distance(params, bits, d1, d2):
    lo, hi = sorted((d1, d2))
    assert tx_energy(params, bits, lo) <= tx_energy(params, bits, hi)


@given(params_st, bits_st, st.integers(min_value=1, max_value=100))
def test_costs_linear_in_bits(params, bits, k):
    assert rx_energy(params, bits) * k == pytest.approx(rx_energy(params, bits * k), rel=1e-9)
    assert aggregation_energy(params, bits, 3) * k == pytest.approx(
        aggregation_energy(params, bits * k, 3), rel=1e-9)
    d = 10.0
    assert tx_energy(params, bits, d) * k == pytest.approx(
        tx_energy(params, bits * k, d), rel=1e-9)


@given(params_st, st.integers(min_value=1, max_value=10**6))
def test_continuity_at_crossover(params, bits):
    d0 = crossover_distance(params)
    d_sq = d0 * d0
    fs = bits * params.e_elec + bits * (params.e_fs * d_sq)
    mp = bits * params.e_elec + bits * (params.e_mp * d_sq * d_sq)
    assert fs == pytest.approx(mp, rel=1e-12)
