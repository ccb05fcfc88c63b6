"""Hypothesis profiles.

Locally the default profile applies.  CI sets HYPOTHESIS_PROFILE=ci: ten
times the examples, derandomized so that a failure there reproduces.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None,
                          database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
