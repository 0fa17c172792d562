"""Time `rwasim.integrate` in a fresh interpreter: the first (cold) and the
second (warm) call on one scenario, then a series over Fock dimensions with
a time cap per point. Prints one JSON object.

    python benchmarks/probe_solve.py SCENARIO CAP_S SERIES_DIM8.yaml ...

H(t) is the Hamiltonian the CLI builds for the scenario, passed through a
counting callback, so `h_evals` repeats exactly for a given input.
"""

import json
import sys
import time

from rwasim import hamiltonian_full, hamiltonian_jc, hamiltonian_quantum_rabi, integrate
from rwasim.runner import load_scenario_file


class Capped(Exception):
    pass


def _hamiltonian(scenario):
    p = scenario.params
    if scenario.model == "semiclassical-full":
        return lambda t: hamiltonian_full(t, p)
    build = {"quantum-rabi": hamiltonian_quantum_rabi, "jaynes-cummings": hamiltonian_jc}
    h = build[scenario.model](p)
    return lambda t: h


def solve(path, cap_s=None):
    """(seconds, h_evals) of one integrate call; (None, h_evals) if capped."""
    scenario = load_scenario_file(path)
    h_of_t = _hamiltonian(scenario)
    psi0, t_final = scenario.initial_vector(), scenario.resolved_t_final()
    count = 0
    t0 = time.perf_counter()
    deadline = None if cap_s is None else t0 + cap_s

    def counted(t):
        nonlocal count
        count += 1
        if deadline is not None and time.perf_counter() > deadline:
            raise Capped
        return h_of_t(t)

    try:
        integrate(counted, psi0, 0.0, t_final, scenario.integrator)
    except Capped:
        return None, count
    return time.perf_counter() - t0, count


def main():
    scenario, cap_s, *series = sys.argv[1:]
    cold_s, cold_evals = solve(scenario)
    warm_s, warm_evals = solve(scenario)
    points = []
    capped = False
    for path in series:
        # a larger dimension cannot finish under the cap once a smaller one did not
        seconds, evals = (None, 0) if capped else solve(path, float(cap_s))
        capped = seconds is None
        points.append({"scenario": path, "solve_s": seconds, "h_evals": evals, "capped": capped})
    print(
        json.dumps(
            {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "h_evals_cold": cold_evals,
                "h_evals_warm": warm_evals,
                "series": points,
            }
        )
    )


if __name__ == "__main__":
    main()
