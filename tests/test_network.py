import io
import math
import random
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import numpy as np

import wsnsim
from wsnsim.energy_model import RadioParams
from wsnsim.network import (
    _BULK_DRAWS,
    Network,
    NetworkConfig,
    config_as_items,
    config_from_items,
    deploy,
    euclidean,
    load_config,
    uniform_draws,
)

from helpers import ScriptedRng


def test_deploy_population_split():
    net = deploy(NetworkConfig(), seed=1)
    assert net.advanced.sum() == 10
    assert ((0.0 <= net.x) & (net.x <= 100.0)).all()
    assert ((0.0 <= net.y) & (net.y <= 100.0)).all()


def test_deploy_single_normal_node():
    cfg = NetworkConfig(node_count=1, adv_fraction=0.0)
    net = deploy(cfg, seed=9)
    assert net.advanced.tolist() == [False]
    assert net.residual[0] == cfg.initial_energy


def test_deploy_is_deterministic():
    cfg = NetworkConfig()
    a = deploy(cfg, seed=42)
    b = deploy(cfg, seed=42)
    for name in ("x", "y", "advanced", "initial_energy"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist()


def test_deploy_fixes_the_deployment():
    net = deploy(NetworkConfig(node_count=5), seed=2)
    for name in ("x", "y", "advanced", "initial_energy", "dist_to_bs"):
        with pytest.raises(ValueError):
            getattr(net, name)[0] = 1
    net.residual[0] = 0.0
    assert net.initial_energy[0] > 0.0


def test_nodes_view_matches_the_arrays():
    net = deploy(NetworkConfig(node_count=20, adv_fraction=0.3), seed=4)
    assert [(n.id, n.position, n.node_class == "advanced", n.initial_energy)
            for n in net.nodes] == \
        list(zip(range(20), zip(net.x.tolist(), net.y.tolist()), net.advanced.tolist(),
                 net.initial_energy.tolist()))


@pytest.mark.parametrize("name", ["x", "y", "advanced", "initial_energy"])
@pytest.mark.parametrize("length", [2, 4])
def test_network_rejects_arrays_of_the_wrong_length(name, length):
    columns = {"x": [1.0, 2.0, 3.0], "y": [4.0, 5.0, 6.0], "advanced": [False] * 3,
               "initial_energy": [0.5] * 3}
    columns[name] = columns[name][:1] * length
    with pytest.raises(ValueError, match=f"{name} has shape"):
        Network(NetworkConfig(node_count=3), **columns)


def test_network_rejects_arrays_longer_than_node_count():
    with pytest.raises(ValueError, match="x has shape"):
        Network(NetworkConfig(node_count=2), [1.0] * 3, [1.0] * 3, [False] * 3, [0.5] * 3)


def test_every_exported_name_resolves():
    for name in wsnsim.__all__:
        assert hasattr(wsnsim, name), name


def test_deploy_rejects_bad_config():
    with pytest.raises(ValueError):
        deploy(NetworkConfig(node_count=0), seed=1)
    with pytest.raises(ValueError):
        deploy(NetworkConfig(field_width=0.0), seed=1)


def test_advanced_energy_scaling():
    cfg = NetworkConfig(adv_fraction=0.2, adv_energy_factor=2.0)
    net = deploy(cfg, seed=3)
    expected = cfg.initial_energy * np.where(net.advanced, 3.0, 1.0)
    assert net.initial_energy.tolist() == expected.tolist()
    assert net.residual.tolist() == expected.tolist()


@given(st.integers(min_value=1, max_value=60),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.integers(min_value=0, max_value=2**31))
def test_advanced_count_is_floor(n, m, seed):
    cfg = NetworkConfig(node_count=n, adv_fraction=m)
    net = deploy(cfg, seed=seed)
    assert net.advanced.sum() == math.floor(m * n)


_KEYS = st.integers(min_value=-2**70, max_value=2**70)


# the getrandbits route rebuilds random()'s values from CPython's internals
# (word order and res53); this is the guard on them
@given(n=st.one_of(st.sampled_from([0, _BULK_DRAWS - 1, _BULK_DRAWS, _BULK_DRAWS + 1]),
                   st.integers(min_value=0, max_value=3 * _BULK_DRAWS)),
       seed=st.one_of(_KEYS, _KEYS.map("protocol:{}".format), _KEYS.map("deploy:{}".format)),
       skip=st.integers(min_value=0, max_value=700))
@example(n=0, seed=1, skip=0)
@example(n=_BULK_DRAWS - 1, seed="protocol:1", skip=0)
@example(n=_BULK_DRAWS, seed="deploy:1", skip=0)
@example(n=_BULK_DRAWS + 1, seed=7, skip=623)
def test_uniform_draws_are_random_calls_bit_for_bit(n, seed, skip):
    rng, twin = random.Random(seed), random.Random(seed)
    for generator in (rng, twin):
        for _ in range(skip):
            generator.getrandbits(32)
    drawn = uniform_draws(rng, n)
    expected = np.array([twin.random() for _ in range(n)], dtype=np.float64)
    assert drawn.dtype == np.float64 and drawn.shape == (n,)
    assert drawn.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert rng.getstate() == twin.getstate()
    assert rng.random() == twin.random()
    assert rng.uniform(-3.0, 5.0) == twin.uniform(-3.0, 5.0)
    order, twin_order = list(range(20)), list(range(20))
    rng.shuffle(order)
    twin.shuffle(twin_order)
    assert order == twin_order
    assert rng.getrandbits(37) == twin.getrandbits(37)


def test_scripted_rng_stands_in_below_the_bulk_route_only():
    with pytest.raises(ValueError, match="fewer than"):
        ScriptedRng(*[0.5] * _BULK_DRAWS)
    rng = ScriptedRng(*[0.5] * (_BULK_DRAWS - 1))
    assert uniform_draws(rng, _BULK_DRAWS - 1).tolist() == [0.5] * (_BULK_DRAWS - 1)
    with pytest.raises(ValueError, match="iterator too short"):
        uniform_draws(ScriptedRng(0.25), 2)


def test_total_initial_energy_heterogeneous():
    cfg = NetworkConfig()  # m*N = 10, integral
    net = deploy(cfg, seed=5)
    total = sum(net.initial_energy.tolist())
    expected = cfg.node_count * cfg.initial_energy * (1 + cfg.adv_fraction * cfg.adv_energy_factor)
    assert total == pytest.approx(expected, rel=1e-12)


def test_precomputed_geometry_matches_distance():
    net = deploy(NetworkConfig(node_count=12), seed=7)
    x, y = net.x.tolist(), net.y.tolist()
    bs_x, bs_y = net.config.bs_position
    for a in range(12):
        row = euclidean(net.x[a] - net.x, net.y[a] - net.y)
        for b in range(12):
            assert row[b] == pytest.approx(math.hypot(x[a] - x[b], y[a] - y[b]), abs=1e-12)
        assert net.dist_to_bs[a] == pytest.approx(math.hypot(x[a] - bs_x, y[a] - bs_y), abs=1e-12)


def test_topology_csv_shape():
    net = deploy(NetworkConfig(node_count=5), seed=2)
    buf = io.StringIO()
    net.write_topology_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "id,x,y,class,initial_energy"
    assert len(lines) == 6


def test_config_file_round_trip(tmp_path):
    cfg = NetworkConfig(node_count=17, p_opt=0.25, bs_position=(10.0, 20.0))
    path = tmp_path / "net.cfg"
    text = "\n".join(f"{k} = {v}" for k, v in config_as_items(cfg).items())
    path.write_text(text + "\n# trailing comment\n", encoding="utf-8")
    assert load_config(str(path)) == cfg


def _floats(lo, hi, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, **kw)


valid_configs = st.builds(
    NetworkConfig,
    field_width=_floats(1e-3, 1e4),
    field_height=_floats(1e-3, 1e4),
    node_count=st.integers(min_value=1, max_value=10**6),
    bs_position=st.tuples(_floats(-1e4, 1e4), _floats(-1e4, 1e4)),
    initial_energy=_floats(1e-12, 1e3),
    # from 1e-300, as a p_opt whose class epochs 1/p overflow is rejected
    p_opt=_floats(1e-300, 1.0),
    adv_fraction=_floats(0.0, 1.0),
    adv_energy_factor=_floats(0.0, 10.0),
    packet_bits=st.integers(min_value=0, max_value=10**6),
    radio=st.builds(RadioParams, e_elec=_floats(1e-15, 1.0), e_fs=_floats(1e-15, 1.0),
                    e_mp=_floats(1e-18, 1.0), e_da=_floats(1e-15, 1.0)),
    teen_hard_threshold=_floats(0.0, 100.0, exclude_max=True),
    teen_soft_threshold=_floats(0.0, 50.0),
    teen_sense_min=_floats(-100.0, 0.0),
    teen_sense_max=_floats(100.0, 1e3),
    max_rounds=st.integers(min_value=0, max_value=10**6),
)


@given(valid_configs)
def test_config_items_round_trip(cfg):
    assert config_from_items(config_as_items(cfg)) == cfg


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("node_count = 10\nwarp_speed = 9\n", encoding="utf-8")
    with pytest.raises(ValueError, match="warp_speed"):
        load_config(str(path))


def test_config_energy_unit_suffixes():
    cfg = config_from_items({
        "e_elec": "50 nJ",
        "e_fs": "10pJ",
        "e_mp": "0.0013 pJ",
        "e_da": "5nJ",
        "initial_energy": "0.5 J",
    })
    assert cfg.radio.e_elec == pytest.approx(50e-9, rel=1e-12)
    assert cfg.radio.e_fs == pytest.approx(10e-12, rel=1e-12)
    assert cfg.radio.e_mp == pytest.approx(0.0013e-12, rel=1e-12)
    assert cfg.radio.e_da == pytest.approx(5e-9, rel=1e-12)
    assert cfg.initial_energy == 0.5


def test_config_validation_errors():
    with pytest.raises(ValueError):
        NetworkConfig(p_opt=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(teen_hard_threshold=300.0)
    with pytest.raises(ValueError):
        NetworkConfig(initial_energy=-1.0)


@pytest.mark.parametrize("name,value", [
    ("adv_fraction", -0.1), ("adv_fraction", 1.5), ("adv_energy_factor", -1.0),
    ("packet_bits", -1), ("teen_soft_threshold", -0.5), ("max_rounds", -1),
])
def test_config_rejects_out_of_range_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} must"):
        NetworkConfig(**{name: value})


@pytest.mark.parametrize("raw", ["5e1nJ", "50nJ", "0.05uJ", "0.00005 mJ", "5e-8", "5e-8 J",
                                 "5e4 pJ"])
def test_every_energy_spelling_parses_to_one_float(raw):
    assert config_from_items({"e_elec": raw}).radio.e_elec == 5e-8


@given(st.integers(min_value=1, max_value=10**17), st.integers(0, 17),
       st.integers(-30, 30), st.sampled_from([("mJ", -3), ("uJ", -6), ("nJ", -9),
                                               ("pJ", -12), ("J", 0)]))
def test_energy_spelling_rounds_once(digits, point, exponent, unit):
    # the value's own exponent and the unit's power add up before the one rounding
    mantissa = format(Decimal(digits).scaleb(-point), "f")
    suffix, power = unit
    parsed = config_from_items({"initial_energy": f"{mantissa}e{exponent}{suffix}"})
    assert parsed.initial_energy == float(Decimal(mantissa).scaleb(exponent + power))


@pytest.mark.parametrize("raw", ["infJ", "nanJ", "5enJ", "e5nJ", "5e1.5nJ", "J"])
def test_malformed_energy_spellings_name_their_key(raw):
    with pytest.raises(ValueError, match=f"^e_elec needs a number.*got {raw!r}"):
        config_from_items({"e_elec": raw})


def test_config_line_without_equals_names_file_and_line(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("node_count = 10\n  foo  # no value\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{path}:2: expected key = value, "
                                         rf"got '  foo  # no value'$"):
        load_config(str(path))


FLOAT_FIELDS = ("field_width", "field_height", "initial_energy", "p_opt", "adv_fraction",
                "adv_energy_factor", "teen_hard_threshold", "teen_soft_threshold",
                "teen_sense_min", "teen_sense_max")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS + ("bs_position",))
def test_config_rejects_non_finite_values(name, value):
    bad = (value, 50.0) if name == "bs_position" else value
    with pytest.raises(ValueError, match=name):
        replace(NetworkConfig(), **{name: bad})


@pytest.mark.parametrize("items,key", [
    ({"p_opt": 5e-324}, "p_opt"),
    # SEP's p_nrm is 5e-309 here, and 1/p_nrm overflows though 1/p_opt does not
    ({"p_opt": 1e-308, "adv_energy_factor": 10.0}, "p_opt"),
    # a directly built Network may hold any class split, so adv_fraction cannot help
    ({"p_opt": 1e-308, "adv_energy_factor": 10.0, "adv_fraction": 0.0}, "adv_energy_factor"),
    ({"initial_energy": 1e307}, "initial_energy"),
    ({"initial_energy": 1e306, "adv_energy_factor": 1e3, "node_count": 1}, "initial_energy"),
    # a packet sent across the field, or to a far BS, costs more than a float holds
    ({"field_width": 1e80, "field_height": 1e80}, "field_width"),
    ({"bs_position": (1e90, 0.0)}, "bs_position"),
    ({"radio": RadioParams(e_mp=1e300)}, "e_mp"),
    # fusing 100 reports: 4000 bits * 1e303 J/bit each, summed over the nodes
    ({"radio": RadioParams(e_da=1e303)}, "e_da"),
    ({"packet_bits": 0, "field_width": 1e100}, "packet_bits"),
])
def test_config_rejects_values_that_overflow(items, key):
    with pytest.raises(ValueError, match=key):
        NetworkConfig(**items)


def test_config_accepts_values_just_inside_overflow():
    # the least class p is 1e-307 / 11, whose epoch 1/p is finite; 100 nodes
    # hold at most 100 * 5e305 * 2 J
    assert NetworkConfig(p_opt=1e-307, adv_energy_factor=10.0).p_opt == 1e-307
    assert NetworkConfig(initial_energy=5e305).initial_energy == 5e305
    # one packet across a 5e79 m square field costs about 1.3e308 J
    assert NetworkConfig(node_count=1, field_width=5e79, field_height=5e79).node_count == 1
    with pytest.raises(ValueError, match="node_count"):
        NetworkConfig(node_count=2, field_width=5e79, field_height=5e79)


def test_nan_energy_is_rejected_before_a_run():
    with pytest.raises(ValueError, match="initial_energy"):
        config_from_items({"initial_energy": "nan"})


@pytest.mark.parametrize("key,raw", [("field_width", "100pJ"), ("p_opt", "0.1J"),
                                     ("teen_soft_threshold", "2 nJ"),
                                     ("bs_position", "50J, 50")])
def test_unit_suffix_only_on_energy_keys(key, raw):
    with pytest.raises(ValueError, match=key):
        config_from_items({key: raw})


@pytest.mark.parametrize("key,raw,expected", [
    ("e_elec", "abc", "a number optionally with a unit"),
    ("initial_energy", "", "a number optionally with a unit"),
    ("initial_energy", "0.5 kJ", "a number optionally with a unit"),
    ("packet_bits", "4000.5", "an integer"),
    ("node_count", "ten", "an integer"),
    ("bs_position", "50", "two numbers"),
])
def test_bad_values_name_their_key(key, raw, expected):
    with pytest.raises(ValueError, match=f"^{key} needs {expected}.*got {raw!r}"):
        config_from_items({key: raw})
