"""Shared test settings.

Property tests run derandomized with a fixed example budget, so every run of
the suite checks the same inputs.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, max_examples=40, deadline=None, database=None)
settings.load_profile("reproducible")
