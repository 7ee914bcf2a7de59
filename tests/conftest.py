"""Test-suite settings shared by every module.

Property tests run derandomized: each draws the same examples on every run,
so a suite result repeats run for run. Per-test ``@settings`` inherit this
profile and keep their own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("bathdd", derandomize=True)
settings.load_profile("bathdd")
