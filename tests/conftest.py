"""Hypothesis settings for the whole suite: examples are derived from each
test's name, not drawn at random or replayed from a local example database,
so every run of the suite checks the same examples."""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("suite")
