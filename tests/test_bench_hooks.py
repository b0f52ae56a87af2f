"""Every wsnsim function the benchmark's tracer wraps still exists.

`perfbench/tracing.py` skips a target it cannot find and reads its
metrics as 0, so a renamed or moved function would otherwise only show as
a silent zero in `perfbench/run.py --trace 1`. perfbench/ is read, not
edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


@pytest.mark.parametrize("module_name,path,span", tracing.SPAN_TARGETS)
def test_span_target_resolves(module_name, path, span):
    owner, attr = tracing._resolve(module_name, path)
    assert callable(getattr(owner, attr, None)), f"{module_name}.{path} ({span}) not found"


@pytest.mark.parametrize("name", tracing.COUNTED)
def test_counted_function_resolves(name):
    assert callable(getattr(importlib.import_module("wsnsim.energy_model"), name, None))

