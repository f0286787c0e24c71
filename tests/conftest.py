"""Shared test set-up: one Hypothesis profile for every property test, with
examples drawn from a fixed seed and no example database, so a run is the
same on every machine (each test sets only its example count and
per-example deadline); and the environment of a child Python process."""

import os

from hypothesis import settings

import corrml

settings.register_profile("corrml", derandomize=True, database=None)
settings.load_profile("corrml")


def child_env() -> dict:
    """This process's environment with the source folder of the corrml it
    imports put first on PYTHONPATH, so a child Python imports the same."""
    src = os.path.dirname(os.path.dirname(corrml.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
