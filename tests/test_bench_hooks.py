"""Every wsnsim function the benchmark's tracer wraps still exists and is called there.

`perfbench/tracing.py` skips a target it cannot find and reads its
metrics as 0, so a renamed or moved function would otherwise only show as
a silent zero in `perfbench/run.py --trace 1`. The same zero shows when the
engine calls a function by another name than the one wrapped, such as
`protocols.teen_should_transmit` instead of its own module's, or when
work moves out of a wrapped function into a helper the engine calls
directly. perfbench/ is read, not edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from wsnsim import engine, protocols  # noqa: E402
from wsnsim.network import NetworkConfig  # noqa: E402
from wsnsim.protocols import PROTOCOL_NAMES, Protocol  # noqa: E402

TEEN_ONLY = {"teen_should_transmit", "teen_next_hop"}


@pytest.mark.parametrize("module_name,path,span", tracing.SPAN_TARGETS)
def test_span_target_resolves(module_name, path, span):
    owner, attr = tracing._resolve(module_name, path)
    assert callable(getattr(owner, attr, None)), f"{module_name}.{path} ({span}) not found"


@pytest.mark.parametrize("name", tracing.COUNTED)
def test_counted_function_resolves(name):
    assert callable(getattr(importlib.import_module("wsnsim.energy_model"), name, None))


# The grid config elects about 320 CHs a round, past the size where
# cluster formation and TEEN's next hops search a grid of CHs.
CONFIGS = {
    "small": NetworkConfig(node_count=30, max_rounds=20),
    "grid": NetworkConfig(node_count=1600, p_opt=0.2, max_rounds=3),
}


def run_counted(config, name):
    """Run one simulation with every engine span target counted; also note
    the innermost target running at each grid search."""
    calls = {}
    inside = []          # wrapped targets running now, outermost first
    grid_calls = []

    def counting(path, fn):
        def counted(*args, **kwargs):
            calls[path] += 1
            inside.append(path)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return counted

    def grid_search(*args):
        grid_calls.append(inside[-1] if inside else None)
        return grid_candidates(*args)

    patched = []
    grid_candidates = protocols._grid_candidates
    try:
        for module_name, path, _ in tracing.SPAN_TARGETS:
            if module_name == "wsnsim.engine":
                owner, attr = tracing._resolve(module_name, path)
                patched.append((owner, attr, getattr(owner, attr)))
                calls[path] = 0
                setattr(owner, attr, counting(path, getattr(owner, attr)))
        protocols._grid_candidates = grid_search
        result = engine.run_simulation(config, Protocol(name), 1)
    finally:
        protocols._grid_candidates = grid_candidates
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
    return result, calls, grid_calls


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_engine_calls_every_target_where_it_is_wrapped(name):
    for config_name, config in CONFIGS.items():
        result, calls, grid_calls = run_counted(config, name)
        expected = {path: name == "teen" or path not in TEEN_ONLY for path in calls}
        assert {path: count > 0 for path, count in calls.items()} == expected
        # a cached or fused election or formation would skip its span and
        # skew the per-round figures perfbench divides by the round count
        rounds_with_chs = sum(m.ch_count > 0 for m in result.trace)
        assert calls["elect_cluster_heads"] == len(result.trace)
        assert calls["form_clusters"] == rounds_with_chs
        if name == "teen":
            assert calls["teen_next_hop"] == rounds_with_chs
        # every grid search runs inside the span of the function it serves,
        # so its time is counted there
        per_round = ["form_clusters"] + (["teen_next_hop"] if name == "teen" else [])
        grid_rounds = rounds_with_chs if config_name == "grid" else 0
        assert grid_calls == per_round * grid_rounds, config_name
