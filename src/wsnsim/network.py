"""Node population, field deployment and geometry.

The deployment (positions, class, initial energy) and each run's node
state (residual energy, liveness, CH eligibility, TEEN's last reported
value) live in numpy arrays on the `Network`, indexed by node id. Node
positions never change, so each node's distance to the base station is
computed once at deployment. Node-to-node distances are computed on
demand by the nearest-CH search, in blocks, so memory stays O(N) plus a
block. Every distance goes through `euclidean`, and every uniform draw,
here and in the protocols, through `uniform_draws`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields, replace
from typing import Optional, TextIO

import numpy as np

from .energy_model import RadioParams, aggregation_energy, rx_energy, tx_energy

NORMAL = "normal"
ADVANCED = "advanced"

# accepted unit suffixes for energy values in config files / overrides
# (longest first so "nj" wins over "j"), as powers of ten that `_parse_energy`
# adds to the value's own exponent: `5e1nJ`, `50nJ` and `0.05uJ` round once
_ENERGY_UNITS = (
    ("mj", -3),
    ("uj", -6),
    ("nj", -9),
    ("pj", -12),
    ("j", 0),
)


@dataclass(frozen=True)
class NetworkConfig:
    """Field geometry, population and protocol parameters.

    Defaults reproduce the standard 100-node / 100x100 m / 0.5 J setup with
    the base station at the field center. Energies are joules internally;
    `load_config` accepts nJ/pJ-suffixed values and normalizes on parse.
    """

    field_width: float = 100.0
    field_height: float = 100.0
    node_count: int = 100
    bs_position: tuple[float, float] = (50.0, 50.0)
    initial_energy: float = 0.5          # J, normal nodes
    p_opt: float = 0.1                   # desired CH fraction
    adv_fraction: float = 0.1            # fraction m of advanced nodes
    adv_energy_factor: float = 1.0       # alpha: advanced extra energy factor
    packet_bits: int = 4000
    radio: RadioParams = field(default_factory=RadioParams)
    teen_hard_threshold: float = 100.0
    teen_soft_threshold: float = 2.0
    teen_sense_min: float = 0.0
    teen_sense_max: float = 200.0
    max_rounds: int = 10000

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not all(math.isfinite(c) for c in self.bs_position):
            raise ValueError(f"bs_position must be finite, got {self.bs_position!r}")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.field_width <= 0 or self.field_height <= 0:
            raise ValueError("field dimensions must be positive")
        if not (0 < self.p_opt <= 1):
            raise ValueError("p_opt must lie in (0, 1]")
        if not (0 <= self.adv_fraction <= 1):
            raise ValueError("adv_fraction must lie in [0, 1]")
        if self.adv_energy_factor < 0:
            raise ValueError("adv_energy_factor must be >= 0")
        if self.initial_energy <= 0:
            raise ValueError("initial_energy must be positive")
        # the least class p, as sep_probabilities computes it at an advanced share
        # of 1, needs a finite epoch 1/p; N*E*(1 + alpha) bounds the total energy
        weight = 1.0 + self.adv_energy_factor
        p_least = self.p_opt / weight
        if not (p_least > 0 and math.isfinite(1.0 / p_least)):
            raise ValueError(f"p_opt / (1 + adv_energy_factor) = {p_least!r} has no finite epoch 1/p")
        if not math.isfinite(self.node_count * (self.initial_energy * weight)):
            raise ValueError("node_count * initial_energy * (1 + adv_energy_factor) overflows")
        if self.packet_bits < 0:
            raise ValueError("packet_bits must be >= 0")
        # a round sends, hears and fuses each packet at most once, no farther than the
        # field's diagonal or the BS's distance to a corner; N such packets must stay finite
        (bx, by), w, h, bits = self.bs_position, self.field_width, self.field_height, self.packet_bits
        with np.errstate(over="ignore", invalid="ignore"):
            reach = euclidean(np.array([w, bx, bx, bx - w, bx - w]), np.array([h, by, by - h, by, by - h]))
            packet = (tx_energy(self.radio, bits, reach.max()) + rx_energy(self.radio, bits)
                      + aggregation_energy(self.radio, bits, 1))
        if not math.isfinite(self.node_count * packet):
            raise ValueError("node_count * one packet's cost over field_width x field_height or to "
                             "bs_position overflows (packet_bits, e_elec, e_fs, e_mp, e_da)")
        # equality on the low side keeps the always-transmit degenerate case
        # (hard threshold at the sensing floor) expressible
        if not (self.teen_sense_min <= self.teen_hard_threshold < self.teen_sense_max):
            raise ValueError("require teen_sense_min <= teen_hard_threshold < teen_sense_max")
        if self.teen_soft_threshold < 0:
            raise ValueError("teen_soft_threshold must be >= 0")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")


@dataclass(frozen=True)
class Node:
    """One deployed node as a record; `Network.nodes` builds these from its arrays."""

    id: int
    position: tuple[float, float]
    node_class: str                      # NORMAL or ADVANCED
    initial_energy: float


def euclidean(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx^2 + dy^2) elementwise, in place (into `dx`; `dy` is clobbered).
    wsnsim's one distance formula, so each pair of points has one set of bits."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


# draw counts from which one getrandbits call beats n random() calls; the two
# routes cost the same at about 208 draws (timeit, CPython 3.11, 2-vCPU host)
_BULK_DRAWS = 208


def uniform_draws(rng: random.Random, n: int) -> np.ndarray:
    """The n values that n `rng.random()` calls give, in order, as float64,
    leaving `rng` in the state those calls would.

    Below `_BULK_DRAWS` the same C calls fill the array (random() lies in
    [0, 1), so it never returns the 2.0 sentinel). From it, one
    getrandbits(64n) call supplies the 32-bit words a, b, a, b, ... that
    those calls would consume, and each value is CPython's res53,
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, every step of it exact.
    """
    if n < _BULK_DRAWS:
        return np.fromiter(iter(rng.random, 2.0), float, n)
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


class Network:
    """Deployed node population plus one run's node state, as arrays by id.

    `x`, `y`, `advanced`, `initial_energy` and `dist_to_bs` are fixed and
    read-only; `residual`, `alive`, `eligible` (for CH duty) and
    `teen_last_sent` (NaN until a node's first TEEN report) change as a run
    proceeds.
    """

    def __init__(self, config: NetworkConfig, x, y, advanced, initial_energy):
        self.config = config
        n = config.node_count
        for name, values in (("x", x), ("y", y), ("advanced", advanced),
                             ("initial_energy", initial_energy)):
            values = np.array(values, dtype=bool if name == "advanced" else float)
            if values.shape != (n,):
                raise ValueError(f"{name} has shape {values.shape}, but node_count is {n}")
            values.flags.writeable = False
            setattr(self, name, values)
        bs_x, bs_y = config.bs_position
        self.dist_to_bs = euclidean(self.x - bs_x, self.y - bs_y)
        self.dist_to_bs.flags.writeable = False
        self.residual = self.initial_energy.copy()
        self.alive = np.ones(n, dtype=bool)
        self.eligible = np.ones(n, dtype=bool)
        self.teen_last_sent = np.full(n, np.nan)

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The deployment as `Node` records, built from the arrays on each call,
        for callers outside wsnsim that read records; wsnsim reads the arrays."""
        return tuple(Node(i, (x, y), cls, energy) for i, x, y, cls, energy in self._rows())

    def _rows(self):
        """(id, x, y, class, initial energy) per node, as Python values."""
        return zip(range(len(self.x)), self.x.tolist(), self.y.tolist(),
                   np.where(self.advanced, ADVANCED, NORMAL).tolist(), self.initial_energy.tolist())

    def total_residual_energy(self) -> float:
        return math.fsum(self.residual.tolist())

    def write_topology_csv(self, stream: TextIO) -> None:
        """Export the deployment as CSV: id, x, y, class, initial_energy."""
        stream.write("id,x,y,class,initial_energy\n")
        stream.writelines("%d,%r,%r,%s,%r\n" % row for row in self._rows())


def deploy(config: NetworkConfig, seed: int) -> Network:
    """Scatter nodes uniformly over the field, deterministically per seed.

    The first floor(m*N) slots of a seeded shuffle become advanced nodes, so
    the advanced count is exact for every seed. Nothing else reads m: SEP
    and DEEC weight their classes by this deployed split. The deployment
    PRNG stream is independent of the per-run protocol stream: identical
    seeds give identical topologies no matter which protocol later runs on
    them.
    """
    rng = random.Random(f"deploy:{seed}")
    n = config.node_count
    # x then y per node, as Random.uniform(0.0, side) computes them
    draws = uniform_draws(rng, 2 * n).reshape(n, 2)
    x = 0.0 + (config.field_width - 0.0) * draws[:, 0]
    y = 0.0 + (config.field_height - 0.0) * draws[:, 1]
    order = list(range(n))
    rng.shuffle(order)
    advanced = np.zeros(n, dtype=bool)
    advanced[order[:math.floor(config.adv_fraction * n)]] = True
    energy = np.where(advanced, config.initial_energy * (1.0 + config.adv_energy_factor),
                      config.initial_energy)
    return Network(config, x, y, advanced, energy)


def _parse_scalar(key: str, raw: str):
    """Parse one config value; only energy keys accept a unit suffix (nJ, pJ...)."""
    text = raw.strip()
    try:
        if key in _ENERGY_KEYS:
            return _parse_energy(text)
        if key == "bs_position":
            x, y = text.replace(",", " ").split()
            return (float(x), float(y))
        if key in _INT_KEYS:
            return int(text)
        return float(text)
    except ValueError:
        kind = "two numbers" if key == "bs_position" else "an integer" if key in _INT_KEYS else "a number"
        unit = ("optionally with a unit suffix (J, mJ, uJ, nJ or pJ)" if key in _ENERGY_KEYS
                else "without a unit (unit suffixes are for energy keys only)")
        raise ValueError(f"{key} needs {kind} {unit}, got {raw!r}") from None


def _parse_energy(text: str) -> float:
    lowered = text.lower().replace(" ", "")
    for suffix, power in _ENERGY_UNITS:
        head = lowered[: -len(suffix)]
        if lowered.endswith(suffix) and head:
            mantissa, e, exponent = head.partition("e")
            return float(f"{mantissa}e{(int(exponent) if e else 0) + power}")
    return float(text)


_CONFIG_KEYS = {f.name for f in fields(NetworkConfig) if f.name != "radio"}
_RADIO_KEYS = {f.name for f in fields(RadioParams)}
_INT_KEYS = {f.name for f in fields(NetworkConfig) if f.type == "int"}
_ENERGY_KEYS = _RADIO_KEYS | {"initial_energy"}


def config_from_items(items: dict[str, str],
                      base: Optional[NetworkConfig] = None) -> NetworkConfig:
    """Build a NetworkConfig from flat key=value strings; unknown keys are errors."""
    cfg_kwargs = {}
    radio_kwargs = {}
    for key, raw in items.items():
        if key in _CONFIG_KEYS:
            cfg_kwargs[key] = _parse_scalar(key, raw)
        elif key in _RADIO_KEYS:
            radio_kwargs[key] = _parse_scalar(key, raw)
        else:
            raise ValueError(f"unknown config key: {key!r}")
    base = base if base is not None else NetworkConfig()
    if radio_kwargs:
        cfg_kwargs["radio"] = replace(base.radio, **radio_kwargs)
    return replace(base, **cfg_kwargs)


def split_entry(entry: str, where: str, shown: Optional[str] = None) -> tuple[str, str]:
    """Key (stripped) and raw value of `key = value`; without `=`, an error naming `where`."""
    key, eq, raw = entry.partition("=")
    if not eq:
        raise ValueError(f"{where}: expected key = value, got {shown or entry!r}")
    return key.strip(), raw


def load_config(path: str, base: Optional[NetworkConfig] = None) -> NetworkConfig:
    """Read a flat `key = value` config file (# starts a comment)."""
    items: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            entry = line.split("#", 1)[0].strip()
            if entry:
                key, raw = split_entry(entry, f"{path}:{line_no}", line.rstrip())
                items[key] = raw
    return config_from_items(items, base=base)


def config_as_items(config: NetworkConfig) -> dict[str, str]:
    """Flatten a config back to the key=value form accepted by load_config."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "radio":
            out.update((r.name, repr(getattr(value, r.name))) for r in fields(value))
        elif f.name == "bs_position":
            out[f.name] = f"{value[0]!r},{value[1]!r}"
        else:
            out[f.name] = repr(value)
    return out
