"""Hypothesis profiles for the property tests.

HYPOTHESIS_PROFILE=triage runs every phase but shrinking: a failing
property reports its first failing example at once instead of spending
minutes minimizing it. Without the variable, the tests' own settings
decide.
"""

import os

from hypothesis import Phase, settings

settings.register_profile(
    "triage", phases=[p for p in Phase if p is not Phase.shrink])
if os.environ.get("HYPOTHESIS_PROFILE") == "triage":
    settings.load_profile("triage")
