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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .errors import ScenarioError
from .fock import top_level_population
from .integrator import IntegratorConfig, TimeSeries, fidelity, integrate, sample_grid
from .linalg import normalize
from .quantum import (
    JCParams,
    simulate_jaynes_cummings,
    simulate_jc_analytic,
    simulate_quantum_rabi,
)
from .semiclassical import (
    DriveParams,
    hamiltonian_full,
    propagate_rwa_exact,
    solve_beyond_rwa,
)

__all__ = [
    "MODELS",
    "PARTNER_MODEL",
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

SEMICLASSICAL_MODELS = ("semiclassical-full", "semiclassical-rwa", "semiclassical-riccati")
QUANTUM_MODELS = ("quantum-rabi", "jaynes-cummings", "jc-detuned-analytic")
MODELS = SEMICLASSICAL_MODELS + QUANTUM_MODELS

# Canonical comparison partner used by `sweep`: each pathway is paired with
# the one it is meant to be measured against.
PARTNER_MODEL = {
    "semiclassical-full": "semiclassical-rwa",
    "semiclassical-rwa": "semiclassical-full",
    "semiclassical-riccati": "semiclassical-full",
    "quantum-rabi": "jaynes-cummings",
    "jaynes-cummings": "quantum-rabi",
    "jc-detuned-analytic": "jaynes-cummings",
}

# The `# solver:` header of models that do not run the configured
# integrator; every other model names its integrator method there.
_SOLVER_LABEL = {
    "quantum-rabi": "spectral",
    "jaynes-cummings": "spectral",
    "jc-detuned-analytic": "closed-form",
}

_SEMICLASSICAL_OBSERVABLES = ("p0", "p1")
_QUANTUM_OBSERVABLES = ("p0", "p1", "n_photon", "leakage")


def _as_float(value, field_path):
    if isinstance(value, bool) or value is None:
        raise ScenarioError("expected a number", field_path)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"expected a number, got {value!r}", field_path) from None
    if not math.isfinite(number):
        raise ScenarioError(f"expected a finite number, got {value!r}", field_path)
    return number


def _as_int(value, field_path):
    f = _as_float(value, field_path)
    if f != int(f):
        raise ScenarioError(f"expected an integer, got {value!r}", field_path)
    return int(f)


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
        unknown = set(raw) - {
            "model",
            "params",
            "initial_state",
            "t_final",
            "dt",
            "integrator",
            "outputs",
        }
        if unknown:
            raise ScenarioError(f"unknown keys {sorted(unknown)}")
        model = raw.get("model")
        if model not in MODELS:
            raise ScenarioError(f"must be one of {', '.join(MODELS)}; got {model!r}", "model")

        params_raw = raw.get("params")
        if not isinstance(params_raw, dict):
            raise ScenarioError("expected a mapping", "params")
        try:
            if model in SEMICLASSICAL_MODELS:
                allowed = {"delta", "g", "omega", "phi"}
                _check_param_keys(params_raw, allowed)
                params = DriveParams(
                    delta=_as_float(params_raw.get("delta"), "params.delta"),
                    g=_as_float(params_raw.get("g"), "params.g"),
                    omega=_as_float(params_raw.get("omega"), "params.omega"),
                    phi=_as_float(params_raw.get("phi", 0.0), "params.phi"),
                )
            else:
                allowed = {"big_omega", "omega", "g", "dim"}
                _check_param_keys(params_raw, allowed)
                params = JCParams(
                    big_omega=_as_float(params_raw.get("big_omega"), "params.big_omega"),
                    omega=_as_float(params_raw.get("omega"), "params.omega"),
                    g=_as_float(params_raw.get("g"), "params.g"),
                    dim=_as_int(params_raw.get("dim"), "params.dim"),
                )
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(str(exc), "params") from None

        t_final = raw.get("t_final")
        if t_final != "rabi-period":
            t_final = _as_float(t_final, "t_final")
            if not t_final > 0:
                raise ScenarioError("must be positive", "t_final")
        dt = _as_float(raw.get("dt"), "dt")
        if not dt > 0:
            raise ScenarioError("must be positive", "dt")

        integ_raw = raw.get("integrator", {})
        if not isinstance(integ_raw, dict):
            raise ScenarioError("expected a mapping", "integrator")
        unknown = set(integ_raw) - {"method", "rel_tol", "abs_tol", "renormalize"}
        if unknown:
            raise ScenarioError(f"unknown keys {sorted(unknown)}", "integrator")
        renormalize = integ_raw.get("renormalize", False)
        if not isinstance(renormalize, bool):
            raise ScenarioError(
                f"expected true or false, got {renormalize!r}", "integrator.renormalize"
            )
        try:
            integ = IntegratorConfig(
                method=integ_raw.get("method", "rk45-adaptive"),
                dt=dt,
                rel_tol=_as_float(integ_raw.get("rel_tol", 1e-12), "integrator.rel_tol"),
                abs_tol=_as_float(integ_raw.get("abs_tol", 1e-14), "integrator.abs_tol"),
                renormalize=renormalize,
            )
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(str(exc), "integrator") from None

        outputs = raw.get("outputs")
        valid = _SEMICLASSICAL_OBSERVABLES if model in SEMICLASSICAL_MODELS else _QUANTUM_OBSERVABLES
        if outputs is None:
            outputs = list(valid)
        if not isinstance(outputs, (list, tuple)) or not all(isinstance(o, str) for o in outputs):
            raise ScenarioError("expected a list of observable names", "outputs")
        for o in outputs:
            if o not in valid:
                raise ScenarioError(
                    f"unknown observable {o!r} for model {model}; valid: {', '.join(valid)}",
                    "outputs",
                )

        if "initial_state" not in raw:
            raise ScenarioError("required", "initial_state")
        initial_state = raw["initial_state"]
        _parse_initial_state(initial_state, model, params)  # validate eagerly

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
        if isinstance(self.params, DriveParams):
            params = {
                "delta": self.params.delta,
                "g": self.params.g,
                "omega": self.params.omega,
                "phi": self.params.phi,
            }
        else:
            params = {
                "big_omega": self.params.big_omega,
                "omega": self.params.omega,
                "g": self.params.g,
                "dim": self.params.dim,
            }
        return {
            "model": self.model,
            "params": params,
            "initial_state": self.initial_state,
            "t_final": self.t_final,
            "dt": self.dt,
            "integrator": {
                "method": self.integrator.method,
                "rel_tol": self.integrator.rel_tol,
                "abs_tol": self.integrator.abs_tol,
                "renormalize": self.integrator.renormalize,
            },
            "outputs": list(self.outputs),
        }

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def resolved_t_final(self):
        if self.t_final == "rabi-period":
            if self.params.g == 0:
                raise ScenarioError("rabi-period requires g > 0", "t_final")
            return 2.0 * np.pi / self.params.g
        return float(self.t_final)

    def state_dimension(self):
        return 2 if self.model in SEMICLASSICAL_MODELS else 2 * self.params.dim

    def initial_vector(self):
        return _parse_initial_state(self.initial_state, self.model, self.params)


def _check_param_keys(params_raw, allowed):
    unknown = set(params_raw) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)}", "params")


def _parse_initial_state(spec, model, params):
    dim = 2 if model in SEMICLASSICAL_MODELS else 2 * params.dim
    if isinstance(spec, str):
        atom = None
        fock = 0
        for token in spec.split():
            key, _, val = token.partition(":")
            if key == "atom":
                atom = _as_int(val, "initial_state")
            elif key == "fock":
                fock = _as_int(val, "initial_state")
            else:
                raise ScenarioError(f"unknown token {token!r}", "initial_state")
        if atom not in (0, 1):
            raise ScenarioError("atom slot must be 0 or 1", "initial_state")
        vec = np.zeros(dim, dtype=complex)
        if model in SEMICLASSICAL_MODELS:
            if fock:
                raise ScenarioError("fock: is only valid for quantum models", "initial_state")
            vec[atom] = 1.0
        else:
            if not 0 <= fock < params.dim:
                raise ScenarioError(
                    f"fock level {fock} outside truncation {params.dim}", "initial_state"
                )
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
    to the caller with the partial trajectory attached.
    """
    psi0 = scenario.initial_vector()
    t_final = scenario.resolved_t_final()
    p = scenario.params
    cfg = scenario.integrator
    model = scenario.model

    if model == "semiclassical-full":
        series = integrate(lambda t: hamiltonian_full(t, p), psi0, 0.0, t_final, cfg)
    elif model == "semiclassical-rwa":
        series = propagate_rwa_exact(p, psi0, sample_grid(0.0, t_final, scenario.dt))
    elif model == "semiclassical-riccati":
        series = solve_beyond_rwa(
            p, t_final, scenario.dt, psi0, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol
        )
    elif model == "quantum-rabi":
        series = simulate_quantum_rabi(p, psi0, t_final, scenario.dt)
    elif model == "jaynes-cummings":
        series = simulate_jaynes_cummings(p, psi0, t_final, scenario.dt)
    elif model == "jc-detuned-analytic":
        series = simulate_jc_analytic(p, psi0, t_final, scenario.dt)
    else:  # pragma: no cover - from_dict already rejects unknown models
        raise ScenarioError(f"unknown model {model!r}", "model")

    return attach_observables(scenario, series)


def attach_observables(scenario, series):
    """Wrap a trajectory in a RunResult with the scenario's observable columns."""
    result = RunResult(scenario=scenario, series=series)
    for name in scenario.outputs:
        result.observables[name] = _observable_column(name, series, scenario)
    return result


def _observable_column(name, series, scenario):
    states = series.states
    if scenario.model in SEMICLASSICAL_MODELS:
        if name == "p0":
            return np.abs(states[:, 0]) ** 2
        if name == "p1":
            return np.abs(states[:, 1]) ** 2
    else:
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


def _interp_states(times_from, states_from, times_to):
    out = np.empty((times_to.size, states_from.shape[1]), dtype=complex)
    for j in range(states_from.shape[1]):
        out[:, j] = np.interp(times_to, times_from, states_from[:, j].real) + 1j * np.interp(
            times_to, times_from, states_from[:, j].imag
        )
    return out


def compare_results(a, b):
    """Build a ComparisonReport from two completed runs.

    The runs must share the state dimension. If the sample grids differ, b is
    linearly interpolated onto a's grid (restricted to the overlap) and the
    report is flagged 'resampled'.
    """
    if a.series.states.shape[1] != b.series.states.shape[1]:
        raise ValueError(
            f"incompatible state dimensions: {a.series.states.shape[1]} vs "
            f"{b.series.states.shape[1]}"
        )
    flags = set(a.flags) | set(b.flags)
    ta, tb = a.series.times, b.series.times
    if ta.size == tb.size and np.allclose(ta, tb, rtol=0, atol=1e-12):
        times = ta
        states_a, states_b = a.series.states, b.series.states
    else:
        flags.add("resampled")
        lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
        mask = (ta >= lo - 1e-12) & (ta <= hi + 1e-12)
        times = ta[mask]
        states_a = a.series.states[mask]
        states_b = _interp_states(tb, b.series.states, times)

    fids = np.empty(times.size)
    for k in range(times.size):
        fids[k] = fidelity(
            states_a[k] / np.linalg.norm(states_a[k]),
            states_b[k] / np.linalg.norm(states_b[k]),
        )
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
    return compare_results(run_scenario(scenario_a), run_scenario(scenario_b))


def sweep_scenario(base, param, values):
    """Run the canonical comparison for each value of a numeric parameter.

    `base` is a Scenario; `param` names a field of its params block (or
    't_final'/'dt'). For each value the base model is compared against its
    partner model (PARTNER_MODEL) with identical settings; one summary row is
    returned per value.
    """
    base_dict = base.to_dict()
    if param in base_dict["params"]:
        setter = lambda d, v: d["params"].__setitem__(param, v)  # noqa: E731
    elif param in ("t_final", "dt"):
        setter = lambda d, v: d.__setitem__(param, v)  # noqa: E731
    else:
        raise ScenarioError(
            f"{param!r} is not a numeric scenario parameter", f"params.{param}"
        )
    rows = []
    for value in values:
        d = json.loads(json.dumps(base_dict))  # deep copy
        setter(d, value)
        if param == "dim":
            d["params"]["dim"] = int(value)
        scen_a = Scenario.from_dict(d)
        d_partner = json.loads(json.dumps(d))
        d_partner["model"] = PARTNER_MODEL[scen_a.model]
        scen_b = Scenario.from_dict(d_partner)
        report = compare_scenarios(scen_a, scen_b)
        rows.append(
            {
                "param": param,
                "value": float(value),
                "max_pop_dev": report.max_pop_dev,
                "mean_pop_dev": report.mean_pop_dev,
                "t_of_max_dev": report.t_of_max_dev,
                "min_fidelity": report.min_fidelity,
                "peak_p1_a": report.peak_p1_a,
                "peak_p1_b": report.peak_p1_b,
                "flags": ",".join(sorted(report.flags)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# file I/O


def load_scenario_file(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from None
    if raw is None:
        raise ScenarioError(f"{path} is empty")
    return Scenario.from_dict(raw)


def _versions_line():
    return f"rwasim={__version__} numpy={np.__version__} scipy={scipy.__version__}"


def _fmt(x):
    return repr(float(x))


def write_timeseries(result, path, extra_meta=None):
    """Write one run as CSV with a '#' header carrying the full config echo."""
    scenario = result.scenario
    dim = result.series.states.shape[1]
    columns = ["t"]
    for k in range(dim):
        columns += [f"re_{k}", f"im_{k}"]
    columns += list(scenario.outputs) + ["norm"]

    lines = [
        "# rwasim-timeseries v1",
        f"# scenario: {json.dumps(scenario.to_dict(), sort_keys=True)}",
        f"# config-hash: {scenario.config_hash()}",
        f"# solver: {_SOLVER_LABEL.get(scenario.model, scenario.integrator.method)}",
        f"# versions: {_versions_line()}",
        f"# flags: {','.join(sorted(result.flags)) if result.flags else '-'}",
    ]
    for key, value in (extra_meta or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(f"# columns: {','.join(columns)}")
    for i, t in enumerate(result.series.times):
        row = [_fmt(t)]
        for k in range(dim):
            row += [_fmt(result.series.states[i, k].real), _fmt(result.series.states[i, k].imag)]
        row += [_fmt(result.observables[name][i]) for name in scenario.outputs]
        row.append(_fmt(result.series.norms[i]))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_comparison(report, path):
    lines = [
        "# rwasim-comparison v1",
        f"# scenario-a: {json.dumps(report.scenario_a, sort_keys=True)}",
        f"# scenario-b: {json.dumps(report.scenario_b, sort_keys=True)}",
        f"# config-hash-a: {report.hash_a}",
        f"# config-hash-b: {report.hash_b}",
        f"# versions: {_versions_line()}",
        f"# flags: {','.join(sorted(report.flags)) if report.flags else '-'}",
        f"# max_pop_dev: {_fmt(report.max_pop_dev)}",
        f"# mean_pop_dev: {_fmt(report.mean_pop_dev)}",
        f"# t_of_max_dev: {_fmt(report.t_of_max_dev)}",
        f"# min_fidelity: {_fmt(report.min_fidelity)}",
        f"# peak_p1_a: {_fmt(report.peak_p1_a)}",
        f"# peak_p1_b: {_fmt(report.peak_p1_b)}",
        "# columns: t,fidelity,pop_dev,dp0",
    ]
    for k in range(report.times.size):
        lines.append(
            ",".join(
                [
                    _fmt(report.times[k]),
                    _fmt(report.fidelities[k]),
                    _fmt(report.pop_devs[k]),
                    _fmt(report.dp0[k]),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep(rows, path):
    cols = [
        "value",
        "max_pop_dev",
        "mean_pop_dev",
        "t_of_max_dev",
        "min_fidelity",
        "peak_p1_a",
        "peak_p1_b",
    ]
    lines = [
        "# rwasim-sweep v1",
        f"# parameter: {rows[0]['param'] if rows else '-'}",
        f"# versions: {_versions_line()}",
        f"# flags: {';'.join(r['flags'] or '-' for r in rows)}",
        f"# columns: {','.join(cols)}",
    ]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def load_metadata(path):
    """Parse the scenario echo out of an emitted time-series file."""
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
