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
from .errors import RiccatiPoleError, ScenarioError, SimulationError
from .fock import top_level_population
from .integrator import (
    MAX_STATE_ENTRIES,
    IntegratorConfig,
    TimeSeries,
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
    # joint index atom * params.dim + fock; the classical drive has a field
    # dimension of 1, so a two-level state is the atom slot alone
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
        vec[atom * params.dim + fock] = 1.0
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

    RiccatiPoleError raised by the semiclassical-riccati pathway propagates
    to the caller with the partial trajectory attached, cut before its first
    row whose norm is not finite. A full run with such a row is a
    SimulationError.
    """
    times = sample_grid(0.0, scenario.resolved_t_final(), scenario.dt)
    # an overflow is reported by the finite-norm check below, not by warnings
    with np.errstate(all="ignore"):
        try:
            series = MODELS[scenario.model].solve(scenario, scenario.initial_vector(), times)
        except RiccatiPoleError as exc:
            if exc.partial is not None:
                k = _finite_rows(exc.partial)
                exc.partial = TimeSeries(exc.partial.times[:k], exc.partial.states[:k])
            raise
    k = _finite_rows(series)
    if k < series.times.size:
        t_bad = float(series.times[k])
        raise SimulationError(f"{scenario.model}: the state is not finite from t = {t_bad!r} on")
    return attach_observables(scenario, series)


def _finite_rows(series):
    # the number of rows before the first whose norm is not finite: a NaN or
    # infinite amplitude makes the norm non-finite, and so does a finite
    # amplitude whose square overflows, which would put inf in the columns
    finite = np.isfinite(series.norms)
    return finite.size if finite.all() else int(np.argmin(finite))


def attach_observables(scenario, series):
    """Wrap a trajectory in a RunResult with the scenario's observable columns."""
    result = RunResult(scenario=scenario, series=series)
    for name in scenario.outputs:
        result.observables[name] = _observable_column(name, series, scenario)
    return result


def _observable_column(name, series, scenario):
    states = series.states
    dim = scenario.params.dim
    pops = np.abs(states) ** 2
    if name == "p0":
        return pops[:, :dim].sum(axis=1)
    if name == "p1":
        return pops[:, dim:].sum(axis=1)
    if name == "n_photon":
        n = np.arange(dim)
        return pops[:, :dim] @ n + pops[:, dim:] @ n
    if name == "leakage":
        return top_level_population(states, dim)
    raise ScenarioError(f"unknown observable {name!r}", "outputs")


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonReport:
    """Per-time fidelity and population deviation between two runs, plus
    summary statistics and the config hashes identifying both runs."""

    hash_a: str
    hash_b: str
    scenario_a: dict
    scenario_b: dict
    times: np.ndarray
    fidelities: np.ndarray
    pop_devs: np.ndarray
    dp0: np.ndarray  # signed difference of the first-slot population
    max_pop_dev: float
    mean_pop_dev: float
    t_of_max_dev: float
    min_fidelity: float
    peak_p1_a: float
    peak_p1_b: float
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
    if times.size != tb.size or not np.allclose(times, tb, rtol=0, atol=1e-12):
        raise ValueError(
            f"different time grids: {times.size} samples to t = {times[-1]!r} vs "
            f"{tb.size} to t = {tb[-1]!r}"
        )
    flags = set(a.flags) | set(b.flags)
    states_a, states_b = a.series.states, b.series.states

    # integrator.fidelity of each pair of normalized rows, in one pass
    unit_a = states_a / np.linalg.norm(states_a, axis=1, keepdims=True)
    unit_b = states_b / np.linalg.norm(states_b, axis=1, keepdims=True)
    fids = np.minimum(np.abs(np.sum(unit_a.conj() * unit_b, axis=1)) ** 2, 1.0)
    pops_a = np.abs(states_a) ** 2
    pops_b = np.abs(states_b) ** 2
    pop_devs = np.abs(pops_a - pops_b).max(axis=1)

    k_max = int(np.argmax(pop_devs))
    dim_half = states_a.shape[1] // 2
    dp0 = pops_a[:, :dim_half].sum(axis=1) - pops_b[:, :dim_half].sum(axis=1)
    peak_p1_a = float(pops_a[:, dim_half:].sum(axis=1).max())
    peak_p1_b = float(pops_b[:, dim_half:].sum(axis=1).max())
    return ComparisonReport(
        hash_a=a.scenario.config_hash(),
        hash_b=b.scenario.config_hash(),
        scenario_a=a.scenario.to_dict(),
        scenario_b=b.scenario.to_dict(),
        times=times,
        fidelities=fids,
        pop_devs=pop_devs,
        dp0=dp0,
        max_pop_dev=float(pop_devs.max()),
        mean_pop_dev=float(pop_devs.mean()),
        t_of_max_dev=float(times[k_max]),
        min_fidelity=float(fids.min()),
        peak_p1_a=peak_p1_a,
        peak_p1_b=peak_p1_b,
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
    returned per value.
    """
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
                **{name: getattr(report, name) for name in SUMMARY},
                "flags": ",".join(sorted(report.flags)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# file I/O


def load_scenario_file(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    try:
        # libyaml's safe loader where PyYAML was built with it: same mappings, ~5x faster
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from None
    if raw is None:
        raise ScenarioError(f"{path} is empty")
    return Scenario.from_dict(raw)


def _versions_line():
    return f"rwasim={__version__} numpy={np.__version__}"


def _write(path, header, columns):
    # one row at a time, so only one row is ever held as Python floats or
    # text; the repr of a Python float is the shortest that reads back to it
    with Path(path).open("w") as out:
        out.writelines(f"{line}\n" for line in header)
        for row in np.column_stack(columns):
            out.write(",".join(map(repr, row.tolist())) + "\n")


def write_timeseries(result, path, extra_meta=None):
    """Write one run as CSV with a '#' header carrying the full config echo."""
    scenario = result.scenario
    series = result.series
    dim = series.states.shape[1]
    columns = ["t", *(f"{part}_{k}" for k in range(dim) for part in ("re", "im"))]
    columns += list(scenario.outputs) + ["norm"]

    lines = [
        "# rwasim-timeseries v3",
        f"# scenario: {json.dumps(scenario.to_dict(), sort_keys=True)}",
        f"# config-hash: {scenario.config_hash()}",
        f"# solver: {MODELS[scenario.model].solver}",
        f"# versions: {_versions_line()}",
        f"# flags: {','.join(sorted(result.flags)) if result.flags else '-'}",
    ]
    for key, value in (extra_meta or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(f"# columns: {','.join(columns)}")
    # a C-ordered complex row viewed as floats is re_0, im_0, re_1, im_1, ...
    amplitudes = np.ascontiguousarray(series.states, dtype=complex).view(float)
    observables = [result.observables[name] for name in scenario.outputs]
    _write(path, lines, [series.times, amplitudes, *observables, series.norms])


def write_comparison(report, path):
    lines = [
        "# rwasim-comparison v3",
        f"# scenario-a: {json.dumps(report.scenario_a, sort_keys=True)}",
        f"# scenario-b: {json.dumps(report.scenario_b, sort_keys=True)}",
        f"# config-hash-a: {report.hash_a}",
        f"# config-hash-b: {report.hash_b}",
        f"# versions: {_versions_line()}",
        f"# flags: {','.join(sorted(report.flags)) if report.flags else '-'}",
        *(f"# {name}: {float(getattr(report, name))!r}" for name in SUMMARY),
        "# columns: t,fidelity,pop_dev,dp0",
    ]
    _write(path, lines, [report.times, report.fidelities, report.pop_devs, report.dp0])


def write_sweep(rows, path, base):
    """Write one summary row per swept value; the header echoes the base
    scenario and names the partner model."""
    cols = ("value", *SUMMARY)
    lines = [
        "# rwasim-sweep v2",
        f"# scenario: {json.dumps(base.to_dict(), sort_keys=True)}",
        f"# config-hash: {base.config_hash()}",
        f"# partner: {MODELS[base.model].partner}",
        f"# parameter: {rows[0]['param'] if rows else '-'}",
        f"# versions: {_versions_line()}",
        f"# flags: {';'.join(r['flags'] or '-' for r in rows)}",
        f"# columns: {','.join(cols)}",
    ]
    _write(path, lines, [[r[c] for r in rows] for c in cols])


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
