import argparse
import csv
import hashlib
import json
import re
import shlex
import weakref
from pathlib import Path

import pytest

from wsnsim import cli
from wsnsim.cli import build_parser, main, parse_protocols, parse_seeds
from wsnsim.protocols import Protocol
from wsnsim.lifetime_bound import BoundInstance, instance_to_text

from helpers import D0_PACKET


def run_cli(*argv):
    return main(list(argv))


def test_parse_seeds_forms():
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,2,5") == [1, 2, 5]
    assert parse_seeds("1..4") == [1, 2, 3, 4]
    assert parse_seeds("1..2,9") == [1, 2, 9]
    with pytest.raises(ValueError):
        parse_seeds(" ")


def test_parse_protocols_rejects_unknown():
    assert parse_protocols("leach,TEEN") == [Protocol("leach"), Protocol("teen")]
    with pytest.raises(ValueError):
        parse_protocols("leach,xyz")


def test_run_naming_contract(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--protocol", "leach", "--seeds", "1",
                   "--max-rounds", "5", "--out", str(out))
    assert code == 0
    assert (out / "leach_seed1_trace.csv").exists()
    assert (out / "leach_seed1_summary.json").exists()
    assert (out / "seed1_topology.csv").exists()
    summary = json.loads((out / "leach_seed1_summary.json").read_text())
    assert summary["protocol"] == "leach"
    assert summary["seed"] == 1
    assert summary["rounds"] == 5
    # one run still writes the stats: its mean is the value, its std 0.0
    (row,) = csv.DictReader((out / "summary_stats.csv").open(encoding="utf-8"))
    assert row["n_runs"] == "1"
    stds = [value for name, value in row.items() if name.endswith("_std")]
    assert stds and all(float(value) == 0.0 for value in stds)


def test_run_missing_config_fails(tmp_path, capsys):
    code = run_cli("run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o"))
    assert code != 0
    assert "nope.cfg" in capsys.readouterr().err


def test_run_fan_out_writes_aggregate(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--protocol", "leach,sep", "--seeds", "1..2",
                   "--max-rounds", "4", "--out", str(out))
    assert code == 0
    traces = sorted(p.name for p in out.glob("*_trace.csv"))
    assert traces == ["leach_seed1_trace.csv", "leach_seed2_trace.csv",
                      "sep_seed1_trace.csv", "sep_seed2_trace.csv"]
    assert (out / "summary_stats.csv").exists()


def test_run_require_termination_fails_when_censored(tmp_path, capsys):
    code = run_cli("run", "--protocol", "leach", "--seeds", "1",
                   "--max-rounds", "3", "--require-termination",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "censored" in capsys.readouterr().err


def test_run_seed_flag_abbreviation(tmp_path):
    # argparse prefix matching keeps the documented `--seed 1` form working
    out = tmp_path / "out"
    assert run_cli("run", "--protocol", "leach", "--seed", "1",
                   "--max-rounds", "2", "--out", str(out)) == 0
    assert (out / "leach_seed1_trace.csv").exists()


def test_show_config_prints_defaults(tmp_path, capsys):
    assert run_cli("run", "--show-config", "--out", str(tmp_path)) == 0
    text = capsys.readouterr().out
    assert "field_width = 100.0" in text
    assert "node_count = 100" in text
    assert "initial_energy = 0.5" in text
    assert "p_opt = 0.1" in text
    assert "packet_bits = 4000" in text
    assert "e_elec = 5e-08" in text
    assert "e_da = 5e-09" in text
    assert "e_fs = 1e-11" in text
    assert "e_mp = 1.3e-15" in text


def test_override_with_unit_suffix(tmp_path, capsys):
    assert run_cli("run", "--show-config", "--override", "e_elec=60nJ",
                   "--override", "node_count=10", "--out", str(tmp_path)) == 0
    text = capsys.readouterr().out
    assert "e_elec = 6e-08" in text
    assert "node_count = 10" in text


@pytest.mark.parametrize("flags,shown", [
    (["--max-rounds", "5"], 5),
    (["--max-rounds", "5", "--override", "max_rounds=7"], 7),
    (["--override", "max_rounds=7", "--max-rounds", "5"], 5),
])
def test_max_rounds_flag_is_an_override(tmp_path, capsys, flags, shown):
    # --max-rounds N is --override max_rounds=N: the later of the two wins
    assert run_cli("run", *flags, "--show-config", "--out", str(tmp_path / "o")) == 0
    assert f"max_rounds = {shown}\n" in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


def test_unknown_override_key_fails(tmp_path, capsys):
    code = run_cli("run", "--override", "bogus=1", "--out", str(tmp_path))
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_compare_requires_two_protocols(tmp_path, capsys):
    code = run_cli("compare", "--protocol", "leach", "--seeds", "1",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == "error: compare needs at least two protocols\n"
    assert not (tmp_path / "o").exists()


def test_sweep_commands_share_their_flag_help(capsys):
    helps = []
    for command in ("run", "compare"):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        helps.append(text[text.index("options:"):])
    assert "comma-separated protocol list" in helps[0]
    assert "fail if every run hits max_rounds with survivors" in helps[0]
    assert helps[0] == helps[1]


def test_config_line_without_equals_rejected_before_any_file(tmp_path, capsys):
    path = tmp_path / "net.cfg"
    path.write_text("node_count = 10\nfoo\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}:2: expected key = value, got 'foo'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare", "bound"])
def test_config_key_given_twice_rejected_before_any_file(tmp_path, capsys, command):
    path = tmp_path / "net.cfg"
    path.write_text("p_opt = 0.1\nnode_count = 4\n\n  p_opt = 0.3  # again\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}:4: p_opt given more than once (first on line 1)\n"
    assert not out.exists()


def test_override_given_twice_keeps_the_last(tmp_path, capsys):
    assert run_cli("run", "--override", "p_opt=0.1", "--override", "p_opt=0.3",
                   "--show-config", "--out", str(tmp_path / "o")) == 0
    assert "p_opt = 0.3\n" in capsys.readouterr().out


def test_compare_outputs_and_shared_topology(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--protocol", "leach,teen,sep,deec",
                   "--seeds", "3", "--max-rounds", "6", "--out", str(out))
    assert code == 0
    # fairness: every protocol runs on the seed's one topology file
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{p}_seed3_{kind}" for p in ("leach", "teen", "sep", "deec")
         for kind in ("trace.csv", "summary.json")]
        + ["seed3_topology.csv", "summary_stats.csv"])


@pytest.mark.parametrize("seeds", ["1", "1..2"])
def test_run_and_compare_write_the_same_files(tmp_path, seeds):
    written = []
    for command in ("run", "compare"):
        out = tmp_path / command
        assert run_cli(command, "--protocol", "leach,sep", "--seeds", seeds,
                       "--max-rounds", "30", "--out", str(out)) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]


@pytest.mark.parametrize("argv,runs", [
    (["compare", "--seeds", "1..3"], 12),
    (["run", "--protocol", "leach,sep", "--seeds", "1..3"], 6),
])
def test_sweep_keeps_no_result_past_its_run(tmp_path, monkeypatch, argv, runs):
    # each run's files are written as it returns, so no earlier result is
    # still referenced when the next run starts, but for the loop variable
    refs, alive_at_start = [], []
    inner = cli.run_simulation

    def tracked(config, protocol, seed):
        alive_at_start.append(sum(ref() is not None for ref in refs))
        result = inner(config, protocol, seed)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run_simulation", tracked)
    assert run_cli(*argv, "--max-rounds", "30", "--out", str(tmp_path / "out")) == 0
    assert len(alive_at_start) == runs
    assert max(alive_at_start) <= 1


def test_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("run", "--protocol", "deec", "--seeds", "2",
                       "--max-rounds", "8", "--out", str(out)) == 0
    for name in ("deec_seed2_trace.csv", "deec_seed2_summary.json",
                 "seed2_topology.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def full_coverage_instance():
    return BoundInstance(
        n_sensors=1, n_chs=1, n_ranges=1, k_max=16,
        range_energies=(0.5,), budget=2.0,
        coverage=(((True,),),))


def test_bound_from_fixture_file(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(instance_to_text(full_coverage_instance()), encoding="utf-8")
    code = run_cli("bound", str(path), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "K* = 4" in capsys.readouterr().out
    assert (tmp_path / "o" / "bound_schedule.txt").exists()


def test_bound_infeasible_coverage(tmp_path, capsys):
    instance = BoundInstance(
        n_sensors=1, n_chs=1, n_ranges=1, k_max=8,
        range_energies=(0.5,), budget=2.0,
        coverage=(((False,),),))
    path = tmp_path / "inst.txt"
    path.write_text(instance_to_text(instance), encoding="utf-8")
    code = run_cli("bound", str(path), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "K* = 0" in capsys.readouterr().out


# 3 sensors, 2 CHs, 2 ranges, K = 8; its K* is 4, so the schedule file holds
# four idle rounds, and its witness uses both ranges
IDLE_ROUNDS_INSTANCE = ("3 2 2 8\n0.4 0.9\n1.3\n"
                        "1 0\n1 1\n0 1\n1 1\n1 0\n0 1\n")

# SHA-256 of bound_schedule.txt and bound_instance.txt for each bound input
BOUND_GOLDEN = [
    (None, ["--seed", "3"], "K* = 16\n",
     "1904dc2c6a0dd85cc57f7058a0d6581ca5acfb975ad85d5cbb3be3b734dce631",
     "83e477839993f808397868c07e4cfa6f67b2845805cdb89d7edbacbda9630037"),
    (IDLE_ROUNDS_INSTANCE, [], "K* = 4\n",
     "d045812799e021dad6bcc95c6c12d942bcea20bca9e6a6b4b064b41f099007be",
     "de5758fa4897ab14ce076c866c1b9925b5b00e67683d2f3f3e51f5bbf6cb4dfa"),
]


@pytest.mark.parametrize("instance_text,args,printed,schedule_sha,instance_sha", BOUND_GOLDEN,
                         ids=["network-seed-3", "idle-rounds-file"])
def test_bound_artifacts_are_pinned(tmp_path, capsys, instance_text, args, printed,
                                    schedule_sha, instance_sha):
    if instance_text is not None:
        path = tmp_path / "inst.txt"
        path.write_text(instance_text, encoding="utf-8")
        args = [str(path)]
    out = tmp_path / "o"
    assert run_cli("bound", *args, "--out", str(out)) == 0
    assert capsys.readouterr().out == printed
    assert hashlib.sha256((out / "bound_schedule.txt").read_bytes()).hexdigest() == schedule_sha
    assert hashlib.sha256((out / "bound_instance.txt").read_bytes()).hexdigest() == instance_sha


@pytest.mark.parametrize("text", ["1 1 1 4\n0.5\n2.0\n2\n", "1 1 1 4\n0.5\nnan\n1\n",
                                  "1 1 1 4\ninf\n2.0\n1\n", "0 0 1 4\n0.5\n2.0\n",
                                  "1 0 1 4\n0.5\n2.0\n", "1 1 0 4\n0.5\n2.0\n1\n"])
def test_bound_rejects_bad_instance_before_any_file(tmp_path, capsys, text):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("bound", str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "K* =" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("1 1 1 4\nabc\n2.0\n1\n", "line 2 must hold Z = 1 range energies, got 'abc'"),
    ("1 1 2 4\n0.5\n2.0\n1\n1\n", "line 2 must hold Z = 2 range energies, got '0.5'"),
    ("1 1 1 4\n0.5\n0.5 0.6\n1\n", "line 3 must hold one number, the budget E, got '0.5 0.6'"),
])
def test_bound_instance_header_errors_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("bound", str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_bound_from_too_large_network_refused_by_the_solver(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("bound", "--override", "node_count=9", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: instance exceeds exact-solver guards (N <= 8,")
    assert captured.err.endswith("got N=9, M=1, Z=2, K=16\n")
    assert "K* =" not in captured.out
    assert not out.exists()


def test_bound_check_sim_run_outliving_k_holds_the_bound(tmp_path, capsys):
    # at the default 0.5 J battery the LEACH run outlives K = 16 rounds, and
    # K* = 16 says only "16 rounds or more"
    code = run_cli("bound", "--override", "node_count=4", "--seed", "3", "--check-sim",
                   "--out", str(tmp_path / "o"))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "K* = 16\nsimulated lifetime >= 16\nbound dominance holds\n"
    assert captured.err == ""


def test_bound_check_sim_runs_k_max_rounds(tmp_path, capsys):
    # a 1 mJ battery lives past round 2, so K = max_rounds = 2 censors the run
    code = run_cli("bound", "--override", "max_rounds=2", "--check-sim",
                   "--override", "initial_energy=1mJ", "--out", str(tmp_path / "o"))
    assert code == 0
    assert capsys.readouterr().out == "K* = 2\nsimulated lifetime >= 2\nbound dominance holds\n"


@pytest.mark.parametrize("battery", [D0_PACKET, 1.04e-3, 0.01, 0.5])
def test_bound_check_sim_holds_from_a_d0_packet_up(tmp_path, capsys, battery):
    # the network bound's one condition: the richest battery pays for one
    # packet sent at d0 (0.508 mJ at the defaults)
    for seed in range(1, 5):
        code = run_cli("bound", "--seed", str(seed), "--check-sim",
                       f"--override=initial_energy={battery!r}", "--out", str(tmp_path / "o"))
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.endswith("bound dominance holds\n")


def test_bound_check_sim_below_a_d0_packet_can_fail(tmp_path, capsys):
    # 0.4 mJ is under one packet sent at d0: the engine's last-round overdraw
    # gives LEACH a round the strict budget cannot count
    code = run_cli("bound", "--seed", "6", "--check-sim", "--override", "initial_energy=0.4mJ",
                   "--override", "bs_position=50,175", "--out", str(tmp_path / "o"))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "K* = 0\nsimulated lifetime = 1\n"
    assert captured.err == "error: simulated lifetime 1 exceeds bound 0\n"


def test_bound_too_large_instance_reports_limits(tmp_path, capsys):
    instance = BoundInstance(
        n_sensors=1, n_chs=1, n_ranges=1, k_max=32,
        range_energies=(0.5,), budget=2.0,
        coverage=(((True,),),))
    path = tmp_path / "inst.txt"
    path.write_text(instance_to_text(instance), encoding="utf-8")
    code = run_cli("bound", str(path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "K <= 16" in capsys.readouterr().err


def test_bound_check_sim_dominance(tmp_path, capsys):
    code = run_cli("bound", "--override", "node_count=3", "--seed", "2",
                   "--override", "initial_energy=0.00082",
                   "--override", "adv_fraction=0",
                   "--out", str(tmp_path / "o"), "--check-sim")
    out = capsys.readouterr().out
    assert code == 0
    assert "bound dominance holds" in out


def test_bound_readme_check_sim_example(tmp_path, capsys):
    # a battery of 5.2 packets' electronics cost: the run dies well inside K*
    code = run_cli("bound", "--override", "node_count=4", "--seed", "3",
                   "--check-sim", "--override", "initial_energy=1.04mJ",
                   "--out", str(tmp_path / "o"))
    out = capsys.readouterr().out
    assert code == 0
    assert "K* = 16" in out
    assert "simulated lifetime = 4" in out


def test_bound_check_sim_with_the_bs_beyond_the_field_diagonal(tmp_path, capsys):
    # every node lies farther than the field diagonal from the BS, and still reaches it
    code = run_cli("bound", "--check-sim", "--override", "bs_position=300,50",
                   "--override", "initial_energy=0.1", "--out", str(tmp_path / "o"))
    out = capsys.readouterr().out
    assert code == 0
    assert out == "K* = 16\nsimulated lifetime = 10\nbound dominance holds\n"


@pytest.mark.parametrize("from_network", [False, True])
def test_bound_unusable_out_rejected_before_the_solve(tmp_path, capsys, from_network):
    path = tmp_path / "inst.txt"
    path.write_text(instance_to_text(full_coverage_instance()), encoding="utf-8")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    source = [] if from_network else [str(path)]
    assert run_cli("bound", *source, "--out", str(taken)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bound_show_config_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("bound", "--override", "node_count=3", "--show-config",
                   "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "node_count = 3" in text
    assert "K* =" not in text
    assert not out.exists()


def test_bound_file_with_check_sim_rejected_before_any_file(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(instance_to_text(full_coverage_instance()), encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("bound", str(path), "--check-sim", "--out", str(out))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --check-sim does not apply to an instance file\n"
    assert "K* =" not in captured.out
    assert not out.exists()


def bound_instance_header(out):
    return (out / "bound_instance.txt").read_text(encoding="utf-8").splitlines()[0]


def test_bound_node_count_is_set_like_every_other_key(tmp_path):
    # bound's own default network has 4 nodes; node_count from --override or
    # a config file replaces it, and there is no second spelling
    assert run_cli("bound", "--out", str(tmp_path / "a")) == 0
    assert bound_instance_header(tmp_path / "a") == "4 1 2 16"
    assert run_cli("bound", "--override", "node_count=6",
                   "--out", str(tmp_path / "b")) == 0
    assert bound_instance_header(tmp_path / "b") == "6 1 2 16"
    cfg = tmp_path / "five.cfg"
    cfg.write_text("node_count = 5\n", encoding="utf-8")
    assert run_cli("bound", "--config", str(cfg),
                   "--out", str(tmp_path / "c")) == 0
    assert bound_instance_header(tmp_path / "c") == "5 1 2 16"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bound", "--nodes", "4"])


def test_bound_k_is_max_rounds_set_like_every_other_key(tmp_path):
    # K is the config's max_rounds, 16 in bound's own default network
    assert run_cli("bound", "--override", "max_rounds=8",
                   "--out", str(tmp_path / "a")) == 0
    assert bound_instance_header(tmp_path / "a") == "4 1 2 8"
    cfg = tmp_path / "eight.cfg"
    cfg.write_text("max_rounds = 8\n", encoding="utf-8")
    assert run_cli("bound", "--config", str(cfg), "--out", str(tmp_path / "b")) == 0
    assert bound_instance_header(tmp_path / "b") == "4 1 2 8"


def test_bound_show_config_prints_the_k_in_use(tmp_path, capsys):
    assert run_cli("bound", "--show-config", "--out", str(tmp_path / "o")) == 0
    assert "max_rounds = 16\n" in capsys.readouterr().out


@pytest.mark.parametrize("flags,err_end", [
    (["--override", "max_rounds=0", "--check-sim"], "error: k_max must be >= 1, got 0\n"),
    (["--override", "max_rounds=17"], "K=17\n"),  # the solver guard's K <= 16
])
def test_bound_k_outside_the_solver_rejected_before_any_file(tmp_path, capsys, flags, err_end):
    out = tmp_path / "o"
    assert run_cli("bound", *flags, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(err_end)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--max-rounds", "5"], ["--from-network"], ["--k-max", "2"]])
def test_bound_refuses_the_flags_it_does_not_read(capsys, flag):
    # K is max_rounds, and the instance file's absence means a network
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bound", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [
    (["--config", "/nonexistent.cfg"], "--config"),
    (["--override", "bogus=1"], "--override"),
    (["--override", "node_count=3"], "--override"),
    (["--override", "max_rounds=16"], "--override"),
    (["--seed", "9"], "--seed"),
    (["--seed", "1"], "--seed"),
    (["--override", "max_rounds=2"], "--override"),
    (["--check-sim"], "--check-sim"),
    (["--override", "bogus=1", "--config", "/nonexistent.cfg", "--seed", "9"], "--config"),
    (["--show-config"], "--show-config"),
])
def test_bound_instance_file_rejects_network_flags_before_any_file(tmp_path, capsys, flags,
                                                                   named):
    # an instance file fixes the instance, so a flag that would only shape a
    # deployed network is refused rather than ignored
    path = tmp_path / "inst.txt"
    path.write_text(instance_to_text(full_coverage_instance()), encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("bound", str(path), *flags, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {named} does not apply to an instance file\n"
    assert captured.out == ""
    assert not out.exists()


def readme_commands():
    """Every `wsnsim ...` line in the README's fenced blocks, split as a shell would."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    return [shlex.split(line, comments=True) for block in blocks
            for line in block.splitlines() if line.startswith("wsnsim ")]


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")


# flags the README names that no subcommand takes, each with its reason
README_ONLY_FLAGS = {"--no-build-isolation": "pip's, in the install line"}
# options every subcommand takes that the README leaves unnamed, each with its reason
PARSER_ONLY_FLAGS = {"--help": "argparse adds it to every parser"}


def test_readme_names_exactly_the_parsers_flags():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme.read_text(encoding="utf-8")))
    (subcommands,) = [action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    options = {option for sub in subcommands.choices.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--")}
    assert named - set(README_ONLY_FLAGS) == options - set(PARSER_ONLY_FLAGS)


def test_parse_seeds_rejects_reversed_range():
    for spec in ("5..1", "1..3,5..1"):
        with pytest.raises(ValueError, match="reversed"):
            parse_seeds(spec)


@pytest.mark.parametrize("flags,named", [
    (["--override", "e_elec=abc"], "e_elec"),
    (["--override", "initial_energy="], "initial_energy"),
    (["--override", "packet_bits=4000.5"], "packet_bits"),
    (["--seeds", "a"], "--seeds"),
    (["--seeds", "1..b"], "--seeds"),
    (["--seeds", "3..1"], "--seeds"),
    (["--seeds", ","], "--seeds"),
    (["--override", "foo"], "--override:"),
    (["--protocol", ","], "no protocols"),
    (["--max-rounds", "x"], "max_rounds"),
])
def test_bad_value_names_its_key_before_any_file(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    code = run_cli("run", *flags, "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_zero_max_rounds_rejected_before_any_file(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run_cli(command, "--protocol", "leach,teen", "--seeds", "1",
                   "--max-rounds", "0", "--out", str(out))
    assert code == 2
    assert "max_rounds" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_override_rejected_before_any_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--override", "initial_energy=nan", "--out", str(out))
    assert code == 2
    assert "initial_energy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides,key", [
    (["p_opt=5e-324"], "p_opt"),
    (["p_opt=1e-308", "adv_energy_factor=10"], "p_opt"),
    (["initial_energy=1e307"], "initial_energy"),
    # a packet's cost overflows: these used to fail mid-run, after the
    # output directory was made
    (["field_width=1e80", "field_height=1e80"], "field_width"),
    (["e_mp=1e300"], "e_mp"),
    (["bs_position=1e90,0"], "bs_position"),
    (["field_width=1e200", "field_height=1e200"], "field_width"),
    (["e_da=1e303"], "e_da"),
])
def test_overflowing_config_rejected_before_any_file(tmp_path, capsys, overrides, key):
    out = tmp_path / "out"
    code = run_cli("run", "--protocol", "sep", *[f"--override={o}" for o in overrides],
                   "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_check_sim_with_overflowing_transmissions_rejected_before_any_file(tmp_path, capsys):
    # bound used to write both of its files before the LEACH run failed
    out = tmp_path / "out"
    code = run_cli("bound", "--check-sim", "--override=field_width=1e80",
                   "--override=field_height=1e80", "--out", str(out))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: node_count * one packet's cost")
    assert "K* =" not in captured.out
    assert not out.exists()


def test_transmissions_just_inside_overflow_complete_a_round(tmp_path):
    # one packet across a 5e79 m square field costs about 1.3e308 J: one node
    # may send it, while two are refused
    field = ["--override=field_width=5e79", "--override=field_height=5e79"]
    assert run_cli("run", "--max-rounds", "1", "--override=node_count=2", *field,
                   "--out", str(tmp_path / "two")) == 2
    out = tmp_path / "one"
    assert run_cli("run", "--max-rounds", "1", "--override=node_count=1", *field,
                   "--out", str(out)) == 0
    assert len((out / "leach_seed1_trace.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unknown_protocol_rejected_before_any_file(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run_cli(command, "--protocol", "leach,Pegasis", "--seeds", "1", "--out", str(out))
    assert code == 2
    assert "unknown protocol 'pegasis'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("protocols,seeds,repeat", [
    ("leach,teen,LEACH", "1..2", "protocol leach"),
    ("leach,teen", "1,1", "seed 1"),
    ("leach,teen", "1..3,2", "seed 2"),
])
def test_repeats_rejected_before_any_file(tmp_path, capsys, command, protocols, seeds, repeat):
    out = tmp_path / "out"
    code = run_cli(command, "--protocol", protocols, "--seeds", seeds, "--out", str(out))
    assert code == 2
    assert f"{repeat} given more than once" in capsys.readouterr().err
    assert not out.exists()
