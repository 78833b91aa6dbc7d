"""Test settings shared by every module.

Property tests run under one hypothesis profile: derandomized, so a run
draws the same examples every time; no example database, so nothing is
replayed from earlier runs; no per-example deadline, since exact arithmetic
on some draws takes longer than others; and a bounded number of examples,
so the suite's time stays fixed.
"""

from hypothesis import settings

settings.register_profile(
    "finefrob", derandomize=True, deadline=None, database=None, max_examples=40
)
settings.load_profile("finefrob")
