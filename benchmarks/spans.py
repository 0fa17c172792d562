"""In-memory span recorder and the wrappers that put spans around calls into
each rwasim module's public functions.

A span is a dict with `name`, `start`, `end` (seconds since the traced
process started), `parent` (index of the enclosing span in the command's
span list, or None) and `command` (the command id), plus counts taken at
that boundary: `h_evals` on integrator.solve, `bytes` on runner.write.
Spans stay in memory until `Recorder.dump` writes them once the command has
ended.

Only the standard library is imported here, so loading this module before
`import rwasim.cli` adds no import cost to the traced command.
"""

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (span name, defining module, function). Every reference to the function in
# any rwasim module namespace is wrapped, wherever it was imported to.
TARGETS = (
    ("runner.parse", "rwasim.runner", "load_scenario_file"),
    ("runner.run", "rwasim.runner", "run_scenario"),
    ("runner.sweep", "rwasim.runner", "sweep_scenario"),
    ("runner.compare", "rwasim.runner", "compare_results"),
    ("runner.observables", "rwasim.runner", "attach_observables"),
    ("runner.write", "rwasim.runner", "write_timeseries"),
    ("runner.write", "rwasim.runner", "write_comparison"),
    ("runner.write", "rwasim.runner", "write_sweep"),
    ("quantum.build_h", "rwasim.quantum", "hamiltonian_quantum_rabi"),
    ("quantum.build_h", "rwasim.quantum", "hamiltonian_jc"),
    ("quantum.jc_analytic", "rwasim.quantum", "propagator_jc_lab"),
    ("integrator.solve", "rwasim.integrator", "integrate"),
    ("semiclassical.rwa_exact", "rwasim.semiclassical", "propagate_rwa_exact"),
    ("semiclassical.riccati", "rwasim.semiclassical", "solve_beyond_rwa"),
    ("fock.leakage", "rwasim.fock", "top_level_population"),
)

_clock = time.perf_counter


class Recorder:
    def __init__(self, command_id, t0):
        self.command_id = command_id
        self.t0 = t0
        self.spans = []
        self._open = []

    def begin(self, name):
        span = {
            "name": name,
            "start": _clock() - self.t0,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "command": self.command_id,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        span["end"] = _clock() - self.t0
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def dump(self, path, missing=()):
        Path(path).write_text(json.dumps({"spans": self.spans, "missing_targets": list(missing)}))


def _wrap(rec, name, fn):
    if name == "integrator.solve":

        @functools.wraps(fn)
        def solve(h_of_t, *args, **kwargs):
            span = rec.begin(name)
            span["h_evals"] = 0

            def counted(t):
                span["h_evals"] += 1
                return h_of_t(t)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                rec.end(span)

        return solve

    if name == "runner.write":

        @functools.wraps(fn)
        def write(obj, path, *args, **kwargs):
            span = rec.begin(name)
            try:
                return fn(obj, path, *args, **kwargs)
            finally:
                rec.end(span)
                span["bytes"] = Path(path).stat().st_size if Path(path).exists() else 0

        return write

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, fn, *args, **kwargs)

    return traced


def install(rec):
    """Wrap every TARGETS function; returns the targets that no longer exist."""
    missing = []
    package = [m for n, m in list(sys.modules.items()) if n == "rwasim" or n.startswith("rwasim.")]
    for name, module, attr in TARGETS:
        try:
            original = getattr(importlib.import_module(module), attr, None)
        except ImportError:
            original = None
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapper = _wrap(rec, name, original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return missing


def self_times(spans):
    """Per span: duration minus the part of it that its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c]["start"]):
            lo, hi = max(spans[c]["start"], cursor), min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out
