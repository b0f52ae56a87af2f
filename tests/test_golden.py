"""Byte-identity guard: SHA-256 of the trace CSV and summary of pinned runs.

Any change to what a run computes (the protocol RNG stream and its draw
order, the order of a node's float operations, a numpy scalar leaking into
a formatted field) changes one of these digests. The small config runs to
network death through no-CH fallback rounds and TEEN forwarding; the
N = 400 cases exercise many CHs per round. The SEP case has p_adv > 1,
where advanced nodes are elected with certainty every round. The
teen-floor case senses over [20, 180) rather than from 0, so TEEN's
readings depend on the floor as well as the span. The bs-off-field case
puts the base station 75 m above the field's top edge, so all but one
node of seed 1 lie beyond the crossover distance: nearly every CH uplink
and no-CH report takes the multipath branch, and SEP's two class epochs wrap
under that load. The grid cases run N = 1600 for 10 rounds: about 160 CHs
a round, so cluster formation buckets the CHs into grid cells. The
grid-bs-off-field case elects about 320 CHs a round, so TEEN's next-hop
search buckets them too; with the base station off the field, many CHs
find no closer-to-BS CH in their 3x3 cells and search every CH. The
frac-share case deploys floor(0.1 * 25) = 2 advanced nodes, a share of
0.08 rather than the configured 0.1, so SEP and DEEC weight their classes
by a split that differs from the config's. The teen-sparse case raises
TEEN's hard threshold to 196 of a [0, 200) reading, so a round elects about
40 CHs while only a few of its members, often none, report.

The topology digests pin `write_topology_csv`'s bytes, so they pin
`deploy`'s positions, class split and energies: one node on a non-square
field, no advanced nodes, only advanced nodes, and a non-square field with
a fractional advanced share and an energy factor whose product rounds.

Below `network._BULK_DRAWS` draws a call `uniform_draws` makes random()
calls, and from it one getrandbits call; the default config and the
compare digest stay on the first route, while the N = 400 and N = 1600
cases draw their elections, TEEN's gate and `deploy` on the second, so
both are pinned (`test_goldens_reach_both_draw_routes`).

The compare digest pins every file `wsnsim compare` writes for two seeds
(each run's trace and summary, each seed's one topology and the stats),
hashed as the benchmark's sweep digest is: the sorted file names, each
followed by a NUL byte and the file's bytes.
"""

import hashlib
import io
import json
import random
from types import SimpleNamespace

import pytest

from wsnsim import network
from wsnsim.cli import main
from wsnsim.engine import SimulationState, run_simulation, summary_dict, write_trace_csv
from wsnsim.network import NetworkConfig, deploy
from wsnsim.protocols import Protocol, make_protocol

CONFIGS = {
    "small": NetworkConfig(node_count=30, initial_energy=0.02),
    "large": NetworkConfig(node_count=400, max_rounds=20),
    "sep-certain": NetworkConfig(node_count=30, initial_energy=0.02, p_opt=0.5,
                                 adv_fraction=0.2, adv_energy_factor=5.0),
    "teen-floor": NetworkConfig(node_count=30, initial_energy=0.02, teen_sense_min=20.0,
                                teen_sense_max=180.0, teen_hard_threshold=90.0),
    "bs-off-field": NetworkConfig(node_count=30, initial_energy=0.02, bs_position=(50.0, 175.0)),
    "grid": NetworkConfig(node_count=1600, max_rounds=10),
    "grid-bs-off-field": NetworkConfig(node_count=1600, max_rounds=10, p_opt=0.2,
                                       bs_position=(50.0, 175.0)),
    "frac-share": NetworkConfig(node_count=25, adv_fraction=0.1, initial_energy=0.02),
    "teen-sparse": NetworkConfig(node_count=400, max_rounds=30, teen_hard_threshold=196.0),
}

GOLDEN = {
    ("small", "leach", 1): "60e9919b1f62c21179ac8b0c3c43bb4050ad7400a850255254228c29b51efcaa",
    ("small", "leach", 2): "bc3df653a995f0a3704c38f1f8e1e703f3438fa59e98f9b759aea769f7dbe70a",
    ("small", "teen", 1): "336ceeb8b2a065742da0aadaec43a8e2c0cdae6d4035f42e5e5370cc79ea9801",
    ("small", "teen", 2): "b02f3c3f0f98f11b9d00839ab88360443fc3c0e26feb4e4c4eae779fc23748b3",
    ("small", "sep", 1): "38dfcd6ff7fcab293a8ee8adbd482d533e475877a2ce82d411c3b0347ef2d585",
    ("small", "sep", 2): "7582508213e443e1a2df07b3f3319974f444ab51424b13d9b1135fbcf9a29a97",
    ("small", "deec", 1): "2a4f06d4a58f7debe2a1552aef14f5fe3fa620200e78aea8eb40120b4ca1c5cf",
    ("small", "deec", 2): "9bb92e858a8e7a79c5d7e626916042339093b500acdc736f04127f69dd99a86c",
    ("large", "leach", 1): "4fc84238fe4492f8aec4f6d9d0c18f8af4e5c6b0bf0722833404015ab9e4a325",
    ("large", "teen", 1): "1ea44ab7c153689edf58214e4629eefbe194a3489e4befbd6fea750ab354d18c",
    ("large", "deec", 1): "c8347630e613708dc6491c7a3779f04d1db2a185f09d29bd2328a668d3351609",
    ("sep-certain", "sep", 1): "f0826c436f1fa11c2c373386903e4813d48f667e2917fd4d38a6f0fda22b093e",
    ("teen-floor", "teen", 1): "9ca57f77b138d1e2ecaf8c4832f3abb670fb56255b1b2bf8a7850e704692a7f9",
    ("bs-off-field", "leach", 1): "691c3ed548162fb6012352ad3cae8ee1cce3ed49c1ac8760fbd8cdf46c3cf366",
    ("bs-off-field", "sep", 1): "eba262af817c45d4d4ef06ae4eb622646e45dd66fa2dcdb8ea4bf4cfa79885e7",
    ("grid", "leach", 1): "064374ef0b1e8073bb79d2da664e4818df81ae6fd7eb9ca86ee8e990ef177009",
    ("grid", "teen", 1): "e06c89cb952eda16b4265a5884f83c7b0075313d7eea02e6f1c2141739e33821",
    ("grid", "deec", 1): "9b88f5744e32f5636b33112b66a5dfee9b932f6658c0facc3f23d2c03dbf9ed3",
    ("frac-share", "sep", 1): "0b10a98dca93e2300ff33e1bc33e3b54e295fb5ebd143504c4f072fa712aa371",
    ("frac-share", "sep", 2): "1895c2413d189534e09f58c9f0c286c145241c1a41d72130e3c25df35a320da2",
    ("frac-share", "deec", 1): "b28b449dd7c7b2fe913a728b4ca3f405f1232a5690fc8f7bd6758b7ac6bf75d2",
    ("frac-share", "deec", 2): "7187afe7c95c1603d7829b7f698956a6d5e0679ca2c46e9ff5d1d759fb6e0109",
    ("grid-bs-off-field", "teen", 1): "17e4bc5647a60f9edd5752cd3d4dd9cda60e421065e84446e71199094c4f5023",
    ("teen-sparse", "teen", 1): "905b18612019b0922a089886600f8840269d5604b1cef11778c068393c5089e1",
}

TOPOLOGY_CONFIGS = {
    "one-node": NetworkConfig(node_count=1, field_width=7.5, field_height=3.25),
    "all-normal": NetworkConfig(node_count=30, adv_fraction=0.0),
    "all-advanced": NetworkConfig(node_count=30, initial_energy=0.3, adv_fraction=1.0,
                                  adv_energy_factor=0.7),
    "non-square": NetworkConfig(node_count=500, field_width=333.3, field_height=47.5,
                                initial_energy=0.3, adv_fraction=0.37, adv_energy_factor=0.7),
}

TOPOLOGY_GOLDEN = {
    ("small", 1): "b1a32b6dafb02699e40f1ce71ae56ddce0cf8ac2163b192f4df1490ba251dfea",
    ("small", 2): "04a95faf65b15b5cb4e38e373df948486041ee82c541e8eb3c455633e776747f",
    ("sep-certain", 1): "9f82b19edbc1b7b860548ed3762887b436aae18dbe27f26e76a9c6004f7c0bc0",
    ("grid", 1): "4b7cfa7cb33d0c891ff626610c1cd3519ea6f1c80c47b78b23440a6c760c391d",
    ("one-node", 1): "d64b4aa203b70f92357df3a51d3885c55e6503a1552a5855c76aaefd8f41d1fa",
    ("all-normal", 1): "49e3ef5855c3d33acd9d39a249933f189d73c1cea0a7d30568b218163d213b9f",
    ("all-advanced", 1): "81d9c9dec4e1fa91170a1092e6eb83b50e2ee07f150fb357d9e82aa1e35f8046",
    ("non-square", 1): "96923af3c6deb0e25ae93765bfd0e39dec9cce8ca97d448af3fb2c3cd0bdc55a",
}

COMPARE_ARGV = ["compare", "--seeds", "1..2", "--max-rounds", "40"]
COMPARE_GOLDEN = "b33e4e7e9a24b7b7fb4b37e4477e5644e05c0da64165469bd01ce9cf6ff15beb"


def output_digest(result) -> str:
    buf = io.StringIO()
    write_trace_csv(result, buf)
    json.dump(summary_dict(result), buf, sort_keys=True)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("config_name,protocol,seed", sorted(GOLDEN))
def test_output_digest_is_pinned(config_name, protocol, seed):
    cfg = CONFIGS[config_name]
    result = run_simulation(cfg, make_protocol(protocol, cfg), seed)
    assert output_digest(result) == GOLDEN[config_name, protocol, seed]


@pytest.mark.parametrize("config_name,seed", sorted(TOPOLOGY_GOLDEN))
def test_topology_digest_is_pinned(config_name, seed):
    cfg = {**CONFIGS, **TOPOLOGY_CONFIGS}[config_name]
    buf = io.StringIO()
    deploy(cfg, seed).write_topology_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == TOPOLOGY_GOLDEN[config_name, seed]


def test_small_config_reaches_the_rare_paths():
    cfg = CONFIGS["small"]
    for name in ("leach", "teen", "sep", "deec"):
        result = run_simulation(cfg, make_protocol(name, cfg), 1)
        assert result.last_death_round is not None
        assert any(m.ch_count == 0 for m in result.trace)
    forwarded = run_simulation(cfg, Protocol("teen"), 1)
    direct = run_simulation(cfg, Protocol("teen", forwarding=False), 1)
    assert output_digest(forwarded) != output_digest(direct)


def test_compare_artifacts_digest_is_pinned(tmp_path):
    out = tmp_path / "cmp"
    assert main(COMPARE_ARGV + ["--out", str(out)]) == 0
    paths = sorted(out.iterdir())
    assert len(paths) == 19  # 4 protocols x 2 seeds x 2 files, 2 topologies and the stats
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == COMPARE_GOLDEN


class RecordingRandom(random.Random):
    """A `random.Random` that records the width of every getrandbits call."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def _first_round(config, name, seed, rng=None):
    state = SimulationState(deploy(config, seed), Protocol(name), seed)
    if rng is not None:
        state.rng = rng
    return state.run_round(), state.network.residual.tolist()


def _recorded_deploy(monkeypatch, config, seed):
    """`deploy(config, seed)`, and the getrandbits widths of its PRNG."""
    made = []

    def recording(key):
        made.append(RecordingRandom(key))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(network, "random", SimpleNamespace(Random=recording))
        net = deploy(config, seed)
    return net, made[0].widths


def _deployment(net):
    return [getattr(net, name).tolist() for name in ("x", "y", "advanced")]


def test_goldens_reach_both_draw_routes(monkeypatch):
    # an N = 1600 TEEN round draws its election and its gate in one call each
    cfg = CONFIGS["grid"]
    rng = RecordingRandom("protocol:1")
    assert _first_round(cfg, "teen", 1, rng) == _first_round(cfg, "teen", 1)
    assert rng.widths == [64 * 1600, 64 * 1600]
    # N = 400's 2N = 800 deploy draws come in one call, then the shuffle's small ones
    net, widths = _recorded_deploy(monkeypatch, CONFIGS["large"], 1)
    assert _deployment(net) == _deployment(deploy(CONFIGS["large"], 1))
    assert widths[0] == 64 * 800 and max(widths[1:]) < 64
    # at the default N = 100 a round, and deploy's 200 draws, make random() calls alone
    cfg = NetworkConfig()
    for name in ("leach", "teen", "sep", "deec"):
        rng = RecordingRandom("protocol:1")
        assert _first_round(cfg, name, 1, rng) == _first_round(cfg, name, 1)
        assert rng.widths == []
    net, widths = _recorded_deploy(monkeypatch, cfg, 1)
    assert _deployment(net) == _deployment(deploy(cfg, 1))
    assert max(widths) < 64
