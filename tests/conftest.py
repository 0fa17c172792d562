import atexit
import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import settings

# Property tests run the same examples on every run (derandomize), keep no
# example database (database=None), and take no per-example deadline, which
# timing noise on a loaded machine would trip. Hypothesis still caches the
# constants it mines from the package source; that cache goes to a temporary
# directory removed at exit, so a test run leaves no .hypothesis/ behind.
settings.register_profile("rwasim", derandomize=True, database=None, deadline=None)
settings.load_profile("rwasim")

if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    _storage = tempfile.mkdtemp(prefix="rwasim-hypothesis-")
    atexit.register(shutil.rmtree, _storage, ignore_errors=True)
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # When a property test fails, Hypothesis's report imports libcst, which
    # imports a deprecated mypy_extensions name; under filterwarnings =
    # error that warning would replace the falsifying example with an
    # INTERNALERROR. Only the report phase, and only that warning, is exempt.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning
        )
        yield
