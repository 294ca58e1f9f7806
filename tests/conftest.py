"""Hypothesis settings shared by the test modules.

Draws are derandomized and no example database is read or written, so a
test run's verdict depends on the code alone, not on a local
``.hypothesis/`` directory left by earlier runs.
"""

from hypothesis import settings

settings.register_profile("sklab", derandomize=True, database=None)
settings.load_profile("sklab")
