"""In-memory span tracing around wsnsim's public functions.

Each wrapped call records one span: name, start, end and parent (the index
of the span that was open when it started, -1 at top level). Spans are kept
in flat arrays so a traced sweep (close to a million spans) stays small,
and are written out once, when the run ends. Self time of a span is its
duration minus the durations of its direct children.

Functions are wrapped where their callers look them up (a module
attribute, or a method on a class), so wsnsim itself is never edited. A
target that a later version of wsnsim no longer has is skipped and its
metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name). Two call sites of one function share
# a span name: cli and the large-n loop both call run_simulation, and both
# cli and run_simulation call deploy.
SPAN_TARGETS = (
    ("wsnsim.cli", "main", "cli.main"),
    ("wsnsim.cli", "run_simulation", "engine.run_simulation"),
    ("wsnsim.cli", "deploy", "network.deploy"),
    ("wsnsim.cli", "write_trace_csv", "cli.write_trace_csv"),
    ("wsnsim.cli", "aggregate", "metrics.aggregate"),
    ("wsnsim.engine", "run_simulation", "engine.run_simulation"),
    ("wsnsim.engine", "deploy", "network.deploy"),
    ("wsnsim.engine", "SimulationState.run_round", "engine.run_round"),
    ("wsnsim.engine", "elect_cluster_heads", "protocols.elect"),
    ("wsnsim.engine", "form_clusters", "protocols.form_clusters"),
    ("wsnsim.engine", "teen_should_transmit", "protocols.teen_gate"),
    ("wsnsim.engine", "teen_next_hop", "protocols.teen_next_hop"),
    ("wsnsim.lifetime_bound", "solve_exact", "lifetime_bound.solve_exact"),
    ("wsnsim.lifetime_bound", "solve_exhaustive", "lifetime_bound.solve_exhaustive"),
    ("wsnsim.lifetime_bound", "verify_schedule", "lifetime_bound.verify_schedule"),
)

# Energy-model functions are only counted: a span per call would cost more
# than the call. Every reference to them in a loaded wsnsim module is wrapped.
COUNTED = ("tx_energy", "rx_energy", "aggregation_energy")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder; `installed()` wraps the targets for the length of a block."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.energy_calls = [0]
        self.skipped: set[str] = set()

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, starts, ends, parents, stack = (self.name, self.start, self.end,
                                               self.parent, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _counted(self, fn):
        cell = self.energy_calls

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        patched = []
        try:
            for module_name, path, span_name in SPAN_TARGETS:
                try:
                    owner, attr = _resolve(module_name, path)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.skipped.add(f"{module_name}.{path}")
                    continue
                patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original))
            energy_model = importlib.import_module("wsnsim.energy_model")
            originals = {id(getattr(energy_model, n)): self._counted(getattr(energy_model, n))
                         for n in COUNTED if hasattr(energy_model, n)}
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("wsnsim"):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) in originals:
                        patched.append((module, attr, value))
                        setattr(module, attr, originals[id(value)])
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def summary(self, lo: int, hi: int) -> dict[str, tuple[int, int, int]]:
        """Per span name over spans [lo, hi): (calls, total ns, self ns)."""
        if hi <= lo:
            return {}
        # slicing an array.array copies it, so no view pins the live buffers
        name = np.frombuffer(self.name[lo:hi], dtype=np.uint16)
        start = np.frombuffer(self.start[lo:hi], dtype=np.int64)
        end = np.frombuffer(self.end[lo:hi], dtype=np.int64)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        dur = end - start
        inside = parent >= 0
        child_ns = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        self_ns = dur - child_ns
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_ns, minlength=n_names)
        return {self.names[i]: (int(calls[i]), int(total[i]), int(own[i]))
                for i in range(n_names) if calls[i]}

    def dump(self, path) -> None:
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))
