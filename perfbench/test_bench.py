"""Smoke tests for the benchmark itself: python -m pytest perfbench

Each workload runs at minimal size (--smoke) in both modes and must print
every metric BENCHMARK.json names, with its unit. The output checks must
count deliberately broken results as failures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import workloads  # noqa: E402

# rate metrics that the table prints only where they apply
SIMULATION_ROWS = ("rounds_per_s", "leach.us_per_round", "teen.us_per_round",
                   "deec.us_per_round")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "large-n", "bound"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    table = "\n".join(lines[:-1])
    assert "digest " in table and "fail_frac" in table
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "wall_s" in table and "ref_ms" in table
        for name in SIMULATION_ROWS:
            assert (name in table) == (workload != "bound")
        assert ("sep.us_per_round" in table) == (workload == "sweep")


def test_gauge_clock_leaves_out_the_reference_loop():
    gauge = calibration.Gauge()
    start = gauge.clock()
    gauge.sample()
    assert gauge.clock() - start < gauge.slices[0]
    assert gauge.near(start, 0.0) == gauge.slices[0]


def test_ledger_check_counts_a_broken_run(monkeypatch, tmp_path):
    workload = workloads.LargeN(0, True, tmp_path)
    assert workload.rep().failed == 0
    real = workloads.engine.run_simulation

    def broken(config, protocol, seed):
        result = real(config, protocol, seed)
        if protocol.name == "teen":
            result.round_debits[-1] += 1e-6
        return result

    monkeypatch.setattr(workloads.engine, "run_simulation", broken)
    rep = workload.rep()
    assert (rep.attempted, rep.failed) == (3, 1)


def test_oracle_mismatch_counts_as_failure(monkeypatch, tmp_path):
    workload = workloads.Bound(0, True, tmp_path)
    real = workloads.lifetime_bound.solve_exhaustive
    monkeypatch.setattr(workloads.lifetime_bound, "solve_exhaustive",
                        lambda instance: real(instance) + 1)
    rep = workload.rep()
    assert rep.failed == rep.oracle_checked > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
