"""Property test of `rwasim run`: any mutated shipped scenario ends with an
exit code.

There is one case per shipped scenario. Each example applies one or two of
the mutations of test_parse_property (a key set to a YAML-like value, or
deleted; a key of another model's params block is an unknown key), writes
the mapping as YAML and runs `rwasim run` on it in process. The run must
return 0, 2, 3 or 4, and whatever CSV it writes holds finite numbers only.
No exception may escape, and no warning either: the suite turns warnings
into errors.
"""

import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwasim import cli, integrator, runner, semiclassical
from test_parse_property import MUTATIONS, SHIPPED, key_paths, mutate

KEY_PATHS = list(dict.fromkeys(path for raw in SHIPPED.values() for path in key_paths(raw)))
CHANGES = st.lists(st.tuples(st.sampled_from(KEY_PATHS), MUTATIONS), min_size=1, max_size=2)
EXIT_CODES = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_TRUNCATION)


@pytest.fixture(scope="module", autouse=True)
def small_budgets():
    # smaller caps bound the time of each example, and leave what a run does
    # within its budget as it is; 2**15 entries still admit every shipped
    # scenario (jc_detuned holds 1002 samples of 32 entries)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "MAX_DIM", 64)
        for module in (runner, integrator, semiclassical):
            patch.setattr(module, "MAX_STATE_ENTRIES", 2**15)
        yield


@pytest.mark.parametrize("stem", sorted(SHIPPED))
@settings(max_examples=60)
@given(changes=CHANGES)
# on rabi_riccati, tolerances this loose overflow the squares of the partial
# trajectory's amplitudes
@example(changes=[(("integrator", "rel_tol"), 2048)])
@example(changes=[(("integrator", "abs_tol"), 1.0e12)])
def test_mutated_scenario_run_ends_with_an_exit_code(stem, changes):
    raw = copy.deepcopy(SHIPPED[stem])
    for (block, key), value in changes:
        mutate(raw, block, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"{stem}.yaml")
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        assert cli.main(["run", str(path), "--out", tmp]) in EXIT_CODES
        for csv in Path(tmp).glob("*.csv"):
            rows = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)
            assert np.isfinite(rows).all()
