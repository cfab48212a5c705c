"""Every hypothesis property tests the same examples on every run.

A property draws its examples from a seed derived from the test itself
(``derandomize=True``), so a failing run means a changed program, not a
fresh draw, and no example database is kept (``database=None``), so no stale
entry can replay an old example. Each property keeps its own
``max_examples``; a wider search is a separate run with another profile.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
