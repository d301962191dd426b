"""Shared test settings.

Hypothesis properties run derandomized: every run draws the same
examples (and keeps no example database), and no example has a
deadline, so the suite repeats byte for byte on any machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
