"""Property test of scenario parsing: any mapping parses or is a ScenarioError.

There is one case per shipped scenario and key (top-level, `params.*` or
`integrator.*`), so every key gets its own examples. Each example sets the
key to a YAML-like value or deletes it, in about half the examples does
the same to a second key, and parses the result. Nothing is solved.
"""

import copy
import json
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rwasim.errors import ScenarioError
from rwasim.integrator import IntegratorConfig
from rwasim.runner import MODELS, Scenario

SHIPPED = {
    path.stem: yaml.safe_load(path.read_text())
    for path in sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))
}


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()  # a mutation that removes the key

# Values a YAML loader can produce: the edges of the checks (sizes around
# the caps, numbers that over- or underflow, the spec strings the parser
# knows), arbitrary scalars, and containers of both.
NUMBER_EDGES = st.sampled_from(
    [0, 1, 2, 3, 2048, 2049, 20000, 10**12, 10**400, -(10**400), 1e-300, 5e-324, 1e-6]
    + [1e12, 1e300, -0.0, float("nan"), float("inf")]
)
STRING_EDGES = st.sampled_from(
    ["rabi-period", "atom:0", "atom:1 fock:3", "fock:0", "p0", "n_photon", "1e-10", "euler"]
    + ["rk4-fixed", "jaynes-cummings"]
)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
VALUES = st.recursive(
    NUMBER_EDGES | STRING_EDGES | SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3),
    max_leaves=8,
)
MUTATIONS = st.just(DELETE) | NUMBER_EDGES | STRING_EDGES | VALUES


def key_paths(raw):
    """Top-level keys of a Scenario, and the params and integrator fields of
    the scenario's model, as (block, key) pairs; block None is top level."""
    spec = MODELS[raw["model"]]
    return (
        [(None, f.name) for f in fields(Scenario)]
        + [("params", f.name) for f in fields(spec.params)]
        + [("integrator", f.name) for f in fields(IntegratorConfig) if f.name != "dt"]
    )


def mutate(raw, block, key, value):
    target = raw if block is None else raw.setdefault(block, {})
    if not isinstance(target, dict):
        return
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = value


CASES = [(stem, *path) for stem, raw in SHIPPED.items() for path in key_paths(raw)]


@pytest.mark.parametrize(
    "stem,block,key", CASES, ids=[".".join(filter(None, case)) for case in CASES]
)
@settings(max_examples=25)
@given(data=st.data())
def test_mutated_scenario_parses_or_raises_scenario_error(stem, block, key, data):
    raw = copy.deepcopy(SHIPPED[stem])
    mutate(raw, block, key, data.draw(MUTATIONS, label="value"))
    if data.draw(st.booleans(), label="second mutation"):
        other = data.draw(st.sampled_from(key_paths(SHIPPED[stem])), label="other key")
        mutate(raw, *other, data.draw(MUTATIONS, label="other value"))
    try:
        scenario = Scenario.from_dict(raw)
    except ScenarioError:
        return
    # a scenario that parses reproduces itself from its JSON echo
    echo = json.loads(json.dumps(scenario.to_dict(), sort_keys=True))
    assert Scenario.from_dict(echo) == scenario
