"""Every wsnsim function the benchmark's tracer wraps still exists and is called there.

`perfbench/tracing.py` skips a target it cannot find and reads its
metrics as 0, so a renamed or moved function would otherwise only show as
a silent zero in `perfbench/run.py --trace 1`. The same zero shows when the
engine calls a function by another name than the one wrapped, such as
`protocols.teen_should_transmit` instead of its own module's. perfbench/ is
read, not edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from wsnsim import engine  # noqa: E402
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


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_engine_calls_every_target_where_it_is_wrapped(name):
    calls = {}

    def counting(path, fn):
        def counted(*args, **kwargs):
            calls[path] += 1
            return fn(*args, **kwargs)
        return counted

    patched = []
    try:
        for module_name, path, _ in tracing.SPAN_TARGETS:
            if module_name == "wsnsim.engine":
                owner, attr = tracing._resolve(module_name, path)
                patched.append((owner, attr, getattr(owner, attr)))
                calls[path] = 0
                setattr(owner, attr, counting(path, getattr(owner, attr)))
        result = engine.run_simulation(NetworkConfig(node_count=30, max_rounds=20),
                                       Protocol(name), 1)
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    expected = {path: name == "teen" or path not in TEEN_ONLY for path in calls}
    assert {path: count > 0 for path, count in calls.items()} == expected
    # a cached or fused election or formation would skip its span and skew
    # the per-round figures perfbench divides by the round count
    assert calls["elect_cluster_heads"] == len(result.trace)
    assert calls["form_clusters"] == sum(m.ch_count > 0 for m in result.trace)
