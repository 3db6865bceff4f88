"""Shared pytest setup.

Property tests run under one hypothesis profile: no per-example deadline,
because CPU speed on shared machines can swing by 2x within a second, and
derandomized examples, so that every run of the suite tests the same cases.
"""

from hypothesis import settings

settings.register_profile("rkcodes", deadline=None, derandomize=True)
settings.load_profile("rkcodes")
