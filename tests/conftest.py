"""Shared grid builders, the child-process launcher and the Hypothesis profile of the test suite."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

import floorcomm

# One profile for the whole suite, loaded before any test module: an
# example's time depends on the host's load, so no example has a deadline.
settings.register_profile("floorcomm", deadline=None)
settings.load_profile("floorcomm")

# `python -m floorcomm` or `python -c` run from here imports the package under
# test, with or without PYTHONPATH set
IMPORT_ROOT = Path(floorcomm.__file__).parents[1]


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a child from IMPORT_ROOT, ``subprocess.run`` keywords passed on.

    The child's environment lacks PYTHONUNBUFFERED, so its stdout is block-buffered
    when it is not a terminal, as a user's would be, whatever the parent's setting.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *args], cwd=IMPORT_ROOT, env=env, timeout=60, **kwargs)


def positive_grid(num_bound: int, den_bound: int) -> list[Fraction]:
    """All distinct positive rationals p/q with p <= num_bound, q <= den_bound."""
    values = set()
    for q in range(1, den_bound + 1):
        for p in range(1, num_bound + 1):
            values.add(Fraction(p, q))
    return sorted(values)


def signed_grid(num_bound: int, den_bound: int, include_zero: bool = False) -> list[Fraction]:
    """Positive grid mirrored through zero, optionally with zero itself."""
    pos = positive_grid(num_bound, den_bound)
    values = [-v for v in reversed(pos)]
    if include_zero:
        values.append(Fraction(0))
    values.extend(pos)
    return values
