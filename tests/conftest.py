"""Suite-wide warning policy for tests/.

A UserWarning (a noisy tail fit, data too short for weekday baselines) fails
the test that raised it unless the test marks it as expected with
`pytest.mark.filterwarnings("ignore:...")` or `pytest.warns`. The policy is
set here rather than in pyproject.toml's `filterwarnings` so that it covers
tests/ only: perfbench's own tests synthesize short data on purpose.

Property tests draw fresh examples on every local run. With the `CI`
environment variable set, the `ci` hypothesis profile derandomizes them, so
a run fails only on a defect its own change exposes, and a failure prints
the blob that reproduces it.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

_TESTS = Path(__file__).parent

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_collection_modifyitems(items):
    error = pytest.mark.filterwarnings("error::UserWarning")
    for item in items:
        if _TESTS in item.path.parents:
            # prepended, so a test's own filterwarnings marks take precedence
            item.add_marker(error, append=False)
