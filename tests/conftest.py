"""Test-session settings: Hypothesis runs derandomized, so every run of
the suite draws the same examples and a pass or failure repeats."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
