"""Command-line front end: run / compare / sweep over scenario files.

Exit codes: 0 success, 2 configuration error, 3 solver error (Riccati pole,
stiffness, non-Hermitian model, non-finite state), 4 truncation warning
escalated by --strict.
"""

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import RiccatiPoleError, ScenarioError, SimulationError
from .runner import (
    attach_observables,
    compare_scenarios,
    load_scenario_file,
    run_scenario,
    sweep_scenario,
    write_comparison,
    write_sweep,
    write_timeseries,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_TRUNCATION = 4


@contextmanager
def _writing(path):
    """Report an OSError raised in the block as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from None


def _out_dir(args):
    path = Path(args.out or os.environ.get("RWASIM_OUT") or ".")
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args):
    scenario = load_scenario_file(args.scenario)
    out = _out_dir(args) / (Path(args.scenario).stem + ".csv")
    try:
        result = run_scenario(scenario)
    except RiccatiPoleError as exc:
        partial = attach_observables(scenario, exc.partial)
        with _writing(out):
            write_timeseries(partial, out, extra_meta={"riccati-pole-time": repr(exc.t_pole)})
        print(f"wrote partial trajectory to {out}", file=sys.stderr)
        raise
    with _writing(out):
        write_timeseries(result, out)
    print(out)
    if args.strict and "truncation_suspect" in result.flags:
        print("truncation_suspect flag raised (strict mode)", file=sys.stderr)
        return EXIT_TRUNCATION
    return EXIT_OK


def _cmd_compare(args):
    scenario_a = load_scenario_file(args.scenario_a)
    scenario_b = load_scenario_file(args.scenario_b)
    out = _out_dir(args) / f"{Path(args.scenario_a).stem}__vs__{Path(args.scenario_b).stem}.csv"
    report = compare_scenarios(scenario_a, scenario_b)
    with _writing(out):
        write_comparison(report, out)
    print(out)
    return EXIT_OK


def _cmd_sweep(args):
    scenario = load_scenario_file(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"--values must be a comma-separated number list, got {args.values!r}")
    out = _out_dir(args) / f"{Path(args.scenario).stem}__sweep__{args.param}.csv"
    rows = sweep_scenario(scenario, args.param, values)
    with _writing(out):
        write_sweep(rows, out, scenario)
    print(out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rwasim",
        description="Two-level atom and quantum Rabi / Jaynes-Cummings simulations "
        "with rotating-wave-approximation error reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file and write its time series")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="output directory (default: $RWASIM_OUT or .)")
    p_run.add_argument(
        "--strict", action="store_true", help="exit 4 if the truncation flag is raised"
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run two scenarios and write a comparison report")
    p_cmp.add_argument("scenario_a")
    p_cmp.add_argument("scenario_b")
    p_cmp.add_argument("--out", help="output directory (default: $RWASIM_OUT or .)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser(
        "sweep", help="compare base model vs its partner across parameter values"
    )
    p_swp.add_argument("scenario")
    p_swp.add_argument("--param", required=True, help="numeric field to sweep (e.g. g)")
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    p_swp.add_argument("--out", help="output directory (default: $RWASIM_OUT or .)")
    p_swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
