"""One Hypothesis profile for every property test: examples drawn from a
fixed seed, and no example database, so a run is the same on every machine.
Each test sets only its example count and per-example deadline."""

from hypothesis import settings

settings.register_profile("corrml", derandomize=True, database=None)
settings.load_profile("corrml")
