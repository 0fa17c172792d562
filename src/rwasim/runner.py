"""Scenario configuration, solver dispatch, and comparison harness.

A scenario is a YAML mapping (JSON works too) selecting one of six solver
pathways plus physical parameters, an initial state, a time grid and output
observables. Runs are written as comma-separated tables with a '#'-prefixed
header block whose `scenario:` line is the canonical JSON echo of the full
configuration; re-parsing that line reproduces the run byte for byte.
"""

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ScenarioError, SimulationError
from .fock import slots, top_level_population
from .integrator import (
    MAX_STATE_ENTRIES,
    IntegratorConfig,
    TimeSeries,
    fidelity,
    finite_rows,
    propagate_periodic,
    sample_grid,
)
from .linalg import normalize
from .quantum import (
    JCParams,
    simulate_jaynes_cummings,
    simulate_jc_analytic,
    simulate_quantum_rabi,
)
from .semiclassical import DriveParams, hamiltonian_full, propagate_rwa_exact, solve_beyond_rwa

__all__ = [
    "MODELS",
    "Scenario",
    "RunResult",
    "ComparisonReport",
    "run_scenario",
    "compare_results",
    "compare_scenarios",
    "sweep_scenario",
    "write_timeseries",
    "write_comparison",
    "write_sweep",
    "load_metadata",
    "load_table",
]


@dataclass(frozen=True)
class ModelSpec:
    """One solver pathway: its params dataclass, its observable columns, the
    model `sweep` compares it against, the `# solver:` header label,
    `solve(scenario, psi0, times)`, which returns the trajectory from psi0
    at t = 0 as a TimeSeries sampled at `times`, and the IntegratorConfig
    fields that solve reads, which are the keys of its `integrator:` block."""

    params: type
    observables: tuple
    partner: str
    solver: str
    solve: Callable
    tolerances: tuple = ()


# Each solve names its solver function in its body, so the name is looked up
# in this module's namespace when the run starts: a wrapper or test double
# bound there after import still sees every call.
_DRIVE = {"params": DriveParams, "observables": ("p0", "p1")}
_CAVITY = {"params": JCParams, "observables": ("p0", "p1", "n_photon", "leakage")}

MODELS = {
    "semiclassical-full": ModelSpec(
        **_DRIVE,
        partner="semiclassical-rwa",
        solver="magnus4-floquet",
        solve=lambda s, psi0, times: propagate_periodic(
            partial(hamiltonian_full, p=s.params),
            2.0 * np.pi / s.params.omega,
            psi0,
            times,
            s.integrator,
        ),
        tolerances=("rel_tol",),
    ),
    "semiclassical-rwa": ModelSpec(
        **_DRIVE,
        partner="semiclassical-full",
        solver="closed-form",
        solve=lambda s, psi0, times: propagate_rwa_exact(s.params, psi0, times),
    ),
    "semiclassical-riccati": ModelSpec(
        **_DRIVE,
        partner="semiclassical-full",
        solver="rk45-adaptive",
        solve=lambda s, psi0, times: solve_beyond_rwa(
            s.params, psi0, times, s.integrator.rel_tol, s.integrator.abs_tol
        ),
        tolerances=("rel_tol", "abs_tol"),
    ),
    "quantum-rabi": ModelSpec(
        **_CAVITY,
        partner="jaynes-cummings",
        solver="spectral",
        solve=lambda s, psi0, times: simulate_quantum_rabi(s.params, psi0, times),
    ),
    "jaynes-cummings": ModelSpec(
        **_CAVITY,
        partner="quantum-rabi",
        solver="spectral",
        solve=lambda s, psi0, times: simulate_jaynes_cummings(s.params, psi0, times),
    ),
    "jc-detuned-analytic": ModelSpec(
        **_CAVITY,
        partner="jaynes-cummings",
        solver="closed-form",
        solve=lambda s, psi0, times: simulate_jc_analytic(s.params, psi0, times),
    ),
}

# Summary statistics of a comparison, in the order the comparison header and
# the sweep columns list them.
SUMMARY = ("max_pop_dev", "mean_pop_dev", "t_of_max_dev", "min_fidelity", "peak_p1_a", "peak_p1_b")

# Size caps checked at parse time, so that no scenario asks for an unbounded
# allocation: the Fock truncation, and MAX_STATE_ENTRIES complex entries of
# one trajectory (samples times the joint state dimension).
MAX_DIM = 2048


def _as_float(value, field_path):
    if isinstance(value, bool) or value is None:
        raise ScenarioError("expected a number", field_path)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"expected a number, got {value!r}", field_path) from None
    if not math.isfinite(number):
        raise ScenarioError(f"expected a finite number, got {value!r}", field_path)
    return number


def _as_int(value, field_path):
    f = _as_float(value, field_path)
    if f != int(f):
        raise ScenarioError(f"expected an integer, got {value!r}", field_path)
    return int(f)


def _build(cls, raw, path, keys, **given):
    """Parse the scenario block at `path` into dataclass `cls`: each field
    named in `keys` is a key taking a finite number (an integer for an int
    field), any other field is `given` or keeps its default, and the
    dataclass validates the values."""
    if not isinstance(raw, dict):
        raise ScenarioError("expected a mapping", path)
    _check_keys(raw, set(keys), path)
    for f in (f for f in fields(cls) if f.name in keys):
        value = raw.get(f.name, None if f.default is MISSING else f.default)
        parse = _as_int if f.type is int else _as_float
        given[f.name] = parse(value, f"{path}.{f.name}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise ScenarioError(str(exc), path) from None


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: model, physical parameters, initial state spec,
    time grid and requested observable columns."""

    model: str
    params: object  # DriveParams or JCParams
    initial_state: object  # spec string or amplitude list, as given
    t_final: object  # number, or "rabi-period" for 2 pi / g
    dt: float
    integrator: IntegratorConfig
    outputs: tuple

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a mapping")
        _check_keys(raw, {f.name for f in fields(cls)}, "")
        model = raw.get("model")
        if not isinstance(model, str) or model not in MODELS:
            raise ScenarioError(f"must be one of {', '.join(MODELS)}; got {model!r}", "model")
        spec = MODELS[model]

        params = _build(
            spec.params, raw.get("params"), "params", [f.name for f in fields(spec.params)]
        )
        if params.dim > MAX_DIM:
            raise ScenarioError(f"at most {MAX_DIM}, got {params.dim}", "params.dim")

        t_final = raw.get("t_final")
        if t_final != "rabi-period":
            t_final = _as_float(t_final, "t_final")
            if not t_final > 0:
                raise ScenarioError("must be positive", "t_final")
        dt = _as_float(raw.get("dt"), "dt")
        if not dt > 0:
            raise ScenarioError("must be positive", "dt")
        # an upper bound on the number of sample times of a run
        samples = _resolve_t_final(t_final, params) / dt + 2
        if samples * 2 * params.dim > MAX_STATE_ENTRIES:
            raise ScenarioError(
                f"{samples:.3g} samples of dimension {2 * params.dim} exceed "
                f"{MAX_STATE_ENTRIES} state entries; raise dt or lower t_final",
                "dt",
            )
        integ = _build(
            IntegratorConfig, raw.get("integrator", {}), "integrator", spec.tolerances, dt=dt
        )

        outputs = raw.get("outputs")
        valid = spec.observables
        if outputs is None:
            outputs = list(valid)
        if not isinstance(outputs, (list, tuple)) or not all(isinstance(o, str) for o in outputs):
            raise ScenarioError("expected a list of observable names", "outputs")
        for k, o in enumerate(outputs):
            if o not in valid:
                raise ScenarioError(
                    f"unknown observable {o!r} for model {model}; valid: {', '.join(valid)}",
                    "outputs",
                )
            if o in outputs[:k]:
                raise ScenarioError(f"{o!r} is listed twice", "outputs")

        if "initial_state" not in raw:
            raise ScenarioError("required", "initial_state")
        initial_state = raw["initial_state"]
        _parse_initial_state(initial_state, params)  # validate eagerly

        return cls(
            model=model,
            params=params,
            initial_state=initial_state,
            t_final=t_final,
            dt=dt,
            integrator=integ,
            outputs=tuple(outputs),
        )

    def to_dict(self):
        """Canonical plain-dict form with all defaults filled in; the JSON
        dump of this is the config echo and the hash input."""
        return {
            "model": self.model,
            "params": asdict(self.params),
            "initial_state": self.initial_state,
            "t_final": self.t_final,
            "dt": self.dt,
            # the tolerances the model reads; dt is echoed once, at the top level
            "integrator": {k: getattr(self.integrator, k) for k in MODELS[self.model].tolerances},
            "outputs": list(self.outputs),
        }

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def resolved_t_final(self):
        return _resolve_t_final(self.t_final, self.params)

    def state_dimension(self):
        return 2 * self.params.dim

    def initial_vector(self):
        return _parse_initial_state(self.initial_state, self.params)


def _check_keys(raw, allowed, field_path):
    unknown = set(raw) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown, key=str)}", field_path)


def _resolve_t_final(t_final, params):
    if t_final == "rabi-period":
        if params.g == 0:
            raise ScenarioError("rabi-period requires g > 0", "t_final")
        return 2.0 * np.pi / params.g
    return float(t_final)


def _parse_initial_state(spec, params):
    # the atom slot and Fock level of fock.slots; the classical drive has a
    # field dimension of 1, so a two-level state is the atom slot alone
    dim = 2 * params.dim
    if isinstance(spec, str):
        given = {}
        for token in spec.split():
            key, _, val = token.partition(":")
            if key not in ("atom", "fock"):
                raise ScenarioError(f"unknown token {token!r}", "initial_state")
            if key in given:
                raise ScenarioError(f"{key!r} is given twice", "initial_state")
            given[key] = _as_int(val, "initial_state")
        atom = given.get("atom")
        fock = given.get("fock", 0)
        if atom not in (0, 1):
            raise ScenarioError("atom slot must be 0 or 1", "initial_state")
        if fock and params.dim == 1:
            raise ScenarioError("fock: is only valid for quantum models", "initial_state")
        if not 0 <= fock < params.dim:
            raise ScenarioError(
                f"fock level {fock} outside truncation {params.dim}", "initial_state"
            )
        vec = np.zeros(dim, dtype=complex)
        slots(vec, params.dim)[atom, fock] = 1.0
        return vec
    if isinstance(spec, (list, tuple)):
        if len(spec) != dim:
            raise ScenarioError(
                f"amplitude list has length {len(spec)}, model dimension is {dim}",
                "initial_state",
            )
        amps = []
        for k, entry in enumerate(spec):
            if isinstance(entry, (list, tuple)):
                if len(entry) != 2:
                    raise ScenarioError(
                        f"entry {k} must be a number or [re, im] pair", "initial_state"
                    )
                amps.append(
                    _as_float(entry[0], "initial_state") + 1j * _as_float(entry[1], "initial_state")
                )
            else:
                amps.append(_as_float(entry, "initial_state"))
        try:
            return normalize(np.array(amps, dtype=complex))
        except ValueError as exc:
            raise ScenarioError(str(exc), "initial_state") from None
    raise ScenarioError("must be a spec string or an amplitude list", "initial_state")


# ---------------------------------------------------------------------------
# running


@dataclass
class RunResult:
    scenario: Scenario
    series: TimeSeries
    observables: dict = field(default_factory=dict)

    @property
    def flags(self):
        return self.series.flags


def run_scenario(scenario):
    """Execute one scenario and attach the requested observable columns.

    A run with a row whose norm is not finite is a SimulationError.
    """
    times = sample_grid(0.0, scenario.resolved_t_final(), scenario.dt)
    # an overflow is reported by the finite-norm check below, not by warnings
    with np.errstate(all="ignore"):
        series = MODELS[scenario.model].solve(scenario, scenario.initial_vector(), times)
    k = finite_rows(series)
    if k < series.times.size:
        t_bad = float(series.times[k])
        raise SimulationError(f"{scenario.model}: the state is not finite from t = {t_bad!r} on")
    return attach_observables(scenario, series)


def attach_observables(scenario, series):
    """Wrap a trajectory in a RunResult with the scenario's observable columns."""
    dim = scenario.params.dim
    slot0, slot1 = slots(np.abs(series.states) ** 2, dim).swapaxes(0, 1)
    n = np.arange(dim)
    columns = {"p0": slot0.sum(axis=1), "p1": slot1.sum(axis=1), "n_photon": slot0 @ n + slot1 @ n}
    if "leakage" in scenario.outputs:
        columns["leakage"] = top_level_population(series.states, dim)
    for name in scenario.outputs:
        if name not in columns:
            raise ScenarioError(f"unknown observable {name!r}", "outputs")
    return RunResult(scenario, series, {name: columns[name] for name in scenario.outputs})


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonReport:
    """Two runs compared: `columns` maps the comparison file's column names
    (t, fidelity, pop_dev, dp0) to per-time arrays, `summary` maps the
    SUMMARY names to floats, and the config hashes and echoes identify both
    runs."""

    scenario_a: dict
    scenario_b: dict
    hash_a: str
    hash_b: str
    columns: dict
    summary: dict
    flags: set


def compare_results(a, b):
    """Build a ComparisonReport from two completed runs.

    The runs must share the state dimension and the sample grid;
    compare_scenarios runs b on a's grid.
    """
    if a.series.states.shape[1] != b.series.states.shape[1]:
        raise ValueError(
            f"incompatible state dimensions: {a.series.states.shape[1]} vs "
            f"{b.series.states.shape[1]}"
        )
    times, tb = a.series.times, b.series.times
    # equal to within a round-off of the spacing; a one-sample grid exactly
    tol = 1e-9 * np.diff(times).min() if times.size > 1 else 0.0
    if times.size != tb.size or np.abs(times - tb).max() > tol:
        raise ValueError(
            f"different time grids: {times.size} samples to t = {float(times[-1])!r} vs "
            f"{tb.size} to t = {float(tb[-1])!r}"
        )
    flags = set(a.flags) | set(b.flags)
    states_a, states_b = a.series.states, b.series.states

    fids = fidelity(states_a / a.series.norms[:, None], states_b / b.series.norms[:, None])
    pops_a = np.abs(states_a) ** 2
    pops_b = np.abs(states_b) ** 2
    pop_devs = np.abs(pops_a - pops_b).max(axis=1)

    p0_a, p1_a = slots(pops_a, a.scenario.params.dim).sum(axis=-1).T
    p0_b, p1_b = slots(pops_b, b.scenario.params.dim).sum(axis=-1).T
    # in the order of SUMMARY
    t_of_max = times[pop_devs.argmax()]
    summary = (pop_devs.max(), pop_devs.mean(), t_of_max, fids.min(), p1_a.max(), p1_b.max())
    return ComparisonReport(
        scenario_a=a.scenario.to_dict(),
        scenario_b=b.scenario.to_dict(),
        hash_a=a.scenario.config_hash(),
        hash_b=b.scenario.config_hash(),
        # dp0 is the signed difference of the first-slot population
        columns={"t": times, "fidelity": fids, "pop_dev": pop_devs, "dp0": p0_a - p0_b},
        summary={name: float(v) for name, v in zip(SUMMARY, summary, strict=True)},
        flags=flags,
    )


def compare_scenarios(scenario_a, scenario_b):
    """Run both scenarios, b on a's time grid, and compare them.

    When b's (t_final, dt) differ from a's, b is re-parsed with a's values,
    so the report's scenario-b echo is the run that was compared.
    """
    dim_a, dim_b = scenario_a.state_dimension(), scenario_b.state_dimension()
    if dim_a != dim_b:
        raise ScenarioError(f"incompatible state dimensions: {dim_a} vs {dim_b}")
    t_final, dt = scenario_a.resolved_t_final(), scenario_a.dt
    if (scenario_b.resolved_t_final(), scenario_b.dt) != (t_final, dt):
        scenario_b = Scenario.from_dict({**scenario_b.to_dict(), "t_final": t_final, "dt": dt})
    return compare_results(run_scenario(scenario_a), run_scenario(scenario_b))


def sweep_scenario(base, param, values):
    """Run the canonical comparison for each value of a numeric parameter.

    `base` is a Scenario; `param` names a field of its params block (or
    't_final'/'dt'). For each value the base model is compared against its
    partner model (`ModelSpec.partner`) with identical settings, of which the
    partner keeps the tolerances its own solve reads; one summary row is
    returned per value. An empty value list is a ScenarioError.
    """
    if len(values) == 0:
        raise ScenarioError("no values to sweep")
    base_dict = base.to_dict()
    if param not in base_dict["params"] and param not in ("t_final", "dt"):
        raise ScenarioError(
            f"{param!r} is not a numeric scenario parameter", f"params.{param}"
        )
    partner = MODELS[base.model].partner
    integ = {k: v for k, v in base_dict["integrator"].items() if k in MODELS[partner].tolerances}
    # every pair is parsed before the first is solved, so a bad value costs no solve
    pairs = []
    for value in values:
        d = json.loads(json.dumps(base_dict))  # deep copy
        (d["params"] if param in d["params"] else d)[param] = value
        d_b = {**d, "model": partner, "integrator": integ}
        pairs.append((Scenario.from_dict(d), Scenario.from_dict(d_b)))
    rows = []
    for value, pair in zip(values, pairs):
        report = compare_scenarios(*pair)
        rows.append(
            {
                "param": param,
                "value": float(value),
                **report.summary,
                "flags": ",".join(sorted(report.flags)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# file I/O


_MERGE_TAG = "tag:yaml.org,2002:merge"


class _ScenarioLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, libyaml's where PyYAML was built with it (same
    mappings, ~5x faster), with a key repeated in one mapping an error; a
    key a merge (`<<`) brings in may still be overridden."""

    def __init__(self, stream):
        super().__init__(stream)
        self._checked = set()

    def flatten_mapping(self, node):
        # a mapping is checked when first flattened: later its merged pairs,
        # which its own keys override, are in node.value too
        if id(node) not in self._checked:
            self._checked.add(id(node))
            seen = set()
            for key_node, _ in node.value:
                # PyYAML itself rejects a collection as a key
                if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == _MERGE_TAG:
                    continue
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
        super().flatten_mapping(node)


def load_scenario_file(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    try:
        raw = yaml.load(text, Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from None
    if raw is None:
        raise ScenarioError(f"{path} is empty")
    return Scenario.from_dict(raw)


def _provenance(flags):
    # the versions and flags header pairs that every kind writes, given the flag text
    return [("versions", f"rwasim={__version__} numpy={np.__version__}"), ("flags", flags)]


# Table entries that _write stacks into float rows at once (8 MiB); a longer
# table is stacked in blocks of rows that hold at most this many entries.
_WRITE_ENTRIES = 2**20


def _write(path, kind, meta, table):
    # one row at a time, so only one row is ever held as Python floats or
    # text; the repr of a Python float is the shortest that reads back to it
    columns = list(table.values())
    step = _WRITE_ENTRIES // len(columns)
    with Path(path).open("w") as out:
        out.write(f"# {kind}\n")
        out.writelines(f"# {k}: {v}\n" for k, v in [*meta, ("columns", ",".join(table))])
        for lo in range(0, len(columns[0]), step):
            for row in np.column_stack([column[lo : lo + step] for column in columns]):
                out.write(",".join(map(repr, row.tolist())) + "\n")


def write_timeseries(result, path, extra_meta=None):
    """Write one run as CSV with a '#' header carrying the full config echo."""
    scenario = result.scenario
    series = result.series
    meta = [
        ("scenario", json.dumps(scenario.to_dict(), sort_keys=True)),
        ("config-hash", scenario.config_hash()),
        ("solver", MODELS[scenario.model].solver),
        *_provenance(",".join(sorted(result.flags)) or "-"),
        *(extra_meta or {}).items(),
    ]
    table = {"t": series.times}
    for k, amplitude in enumerate(series.states.T):
        table |= {f"re_{k}": amplitude.real, f"im_{k}": amplitude.imag}
    table |= {name: result.observables[name] for name in scenario.outputs}
    table["norm"] = series.norms
    _write(path, "rwasim-timeseries v3", meta, table)


def write_comparison(report, path):
    meta = [
        ("scenario-a", json.dumps(report.scenario_a, sort_keys=True)),
        ("scenario-b", json.dumps(report.scenario_b, sort_keys=True)),
        ("config-hash-a", report.hash_a),
        ("config-hash-b", report.hash_b),
        *_provenance(",".join(sorted(report.flags)) or "-"),
        *((name, repr(value)) for name, value in report.summary.items()),
    ]
    _write(path, "rwasim-comparison v3", meta, report.columns)


def write_sweep(rows, path, base):
    """Write one summary row per swept value (at least one); the header
    echoes the base scenario and names the partner model."""
    meta = [
        ("scenario", json.dumps(base.to_dict(), sort_keys=True)),
        ("config-hash", base.config_hash()),
        ("partner", MODELS[base.model].partner),
        ("parameter", rows[0]["param"]),
        *_provenance(";".join(r["flags"] or "-" for r in rows)),
    ]
    _write(path, "rwasim-sweep v2", meta, {c: [r[c] for r in rows] for c in ("value", *SUMMARY)})


def load_metadata(path):
    """Parse the scenario echo out of an emitted time-series or sweep file;
    a sweep's is its base scenario."""
    for line in Path(path).read_text().splitlines():
        if line.startswith("# scenario: "):
            return Scenario.from_dict(json.loads(line[len("# scenario: ") :]))
    raise ValueError(f"{path} carries no scenario metadata line")


def load_table(path):
    """Load the numeric table and column names of an emitted file."""
    columns = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: ") :].split(",")
        elif line and not line.startswith("#"):
            rows.append([float(x) for x in line.split(",")])
    return columns, np.array(rows)
