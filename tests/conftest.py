"""Hypothesis profiles for the test suite.

`ci` draws the same examples on every run (derandomized, no example
database), so a property that fails under `--hypothesis-profile=ci` fails
the same way on any machine with the same versions.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
