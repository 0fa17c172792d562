"""Workloads: the rwasim CLI commands each one runs and the seeded scenario
files those commands read.

Seed 0 reproduces the shipped scenarios. Any other seed changes only the
drive phase `phi` and the initial state, written as a normalized amplitude
list:

* semiclassical models: a random two-level state and a random `phi`;
* quantum models (which have no `phi`): the shipped state |slot 0, Fock 0>
  times a random phase.

Every model, grid, coupling and truncation is kept, so a seed changes every
amplitude a run writes but not the amount of work it does. The quantum
models keep the shipped populations because their RK45 work depends on
them: superpositions of |slot 0, Fock 0> and |slot 1, Fock 1> took 1.45 to
1.65 times the shipped state's H evaluations, varying by 7% between seeds.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

SEMICLASSICAL = ("semiclassical-full", "semiclassical-rwa", "semiclassical-riccati")

# Comparison partner `rwasim sweep` uses for the swept models, as documented
# in the README.
PARTNER = {"semiclassical-full": "semiclassical-rwa", "quantum-rabi": "jaynes-cummings"}

CLI_RUNS = ("rabi_resonant", "rabi_full", "rabi_riccati", "quantum_rabi", "jc_vacuum", "jc_detuned")
CLI_COMPARES = (("quantum_rabi", "jc_vacuum"), ("rabi_full", "rabi_resonant"))
# The couplings of acceptance criterion 08 (RWA error scaling).
SWEEPS = (("rabi_full", "g", (0.2, 0.1, 0.05, 0.025)), ("quantum_rabi", "g", (0.1, 0.05, 0.02)))
FOCK_RUNS = ("quantum_rabi", "jc_vacuum", "jc_detuned")
FOCK_DIM = 128
FOCK_T_FINAL = 10.0

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("cli-scenarios", "rwa-sweep", "fock-scaling")

# Scenario whose first `integrate` call the traced run times cold and warm.
SOLVE_PROBE = {"cli-scenarios": "quantum_rabi", "rwa-sweep": "rabi_full", "fock-scaling": "quantum_rabi"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `rwasim <argv...> --out <dir>`."""

    kind: str  # "run", "compare" or "sweep"
    stems: tuple  # scenario files read, by stem
    output: str  # file name written in the output directory
    solves: int  # model solves: run 1, compare 2, sweep 2 per value
    param: str = ""
    values: tuple = ()

    def argv(self, scenario_dir, out_dir):
        files = [str(Path(scenario_dir) / f"{s}.yaml") for s in self.stems]
        args = [self.kind, *files]
        if self.kind == "sweep":
            args += ["--param", self.param, "--values", ",".join(repr(v) for v in self.values)]
        return args + ["--out", str(out_dir)]

    @property
    def label(self):
        tail = f" {self.param}={','.join(map(str, self.values))}" if self.kind == "sweep" else ""
        return f"{self.kind} {' '.join(self.stems)}{tail}"


def commands(workload):
    if workload == "cli-scenarios":
        return [Command("run", (s,), f"{s}.csv", 1) for s in CLI_RUNS] + [
            Command("compare", (a, b), f"{a}__vs__{b}.csv", 2) for a, b in CLI_COMPARES
        ]
    if workload == "rwa-sweep":
        return [
            Command("sweep", (s,), f"{s}__sweep__{param}.csv", 2 * len(values), param, values)
            for s, param, values in SWEEPS
        ]
    if workload == "fock-scaling":
        return [Command("run", (s,), f"{s}.csv", 1) for s in FOCK_RUNS]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _seeded_state(rng):
    """phi, two-level amplitudes and the quantum phase used by a non-zero seed."""
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    drive = rng.normal(size=2) + 1j * rng.normal(size=2)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return phi, drive / np.linalg.norm(drive), phase


def _amplitude_list(amps):
    return [[float(a.real), float(a.imag)] for a in amps]


def _apply_seed(mappings, seed):
    if not seed:
        return mappings
    phi, drive, phase = _seeded_state(np.random.default_rng(seed))
    for raw in mappings.values():
        if raw["model"] in SEMICLASSICAL:
            raw["params"]["phi"] = phi
            raw["initial_state"] = _amplitude_list(drive)
        else:
            amps = np.zeros(2 * raw["params"]["dim"], dtype=complex)
            amps[0] = phase
            raw["initial_state"] = _amplitude_list(amps)
    return mappings


def _shipped(shipped_dir, stem, **changes):
    raw = yaml.safe_load((Path(shipped_dir) / f"{stem}.yaml").read_text())
    raw["params"].update(changes.pop("params", {}))
    raw.update(changes)
    return raw


def scenarios(workload, seed, shipped_dir):
    """Scenario mappings, by stem, that the workload's commands read."""
    stems = {s for c in commands(workload) for s in c.stems} | {SOLVE_PROBE[workload]}
    changes = {"params": {"dim": FOCK_DIM}, "t_final": FOCK_T_FINAL} if workload == "fock-scaling" else {}
    return _apply_seed({s: _shipped(shipped_dir, s, **changes) for s in sorted(stems)}, seed)


def dim_series(seed, shipped_dir, dims, t_final):
    """quantum_rabi at each Fock dimension, by stem, for the traced dim series."""
    return _apply_seed(
        {
            f"series_dim{d}": _shipped(shipped_dir, "quantum_rabi", params={"dim": d}, t_final=t_final)
            for d in dims
        },
        seed,
    )


def write_scenarios(mappings, directory):
    for stem, raw in mappings.items():
        (Path(directory) / f"{stem}.yaml").write_text(yaml.safe_dump(raw, sort_keys=False))
