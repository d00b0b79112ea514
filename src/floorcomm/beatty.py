"""Beatty sequences over the positive integers and over Z, and disjointness.

For u > 0 the three flavors are

    pos(u)     = { floor(n*u) : n >= 1 }
    full(u)    = { floor(n*u) : n in Z }
    reduced(u) = { floor(n*u) : n in Z, n*u not in Z }

Membership of m in each set is O(1): it only asks whether an integer multiple
of u lands in [m, m+1) (resp. strictly inside (m, m+1)).  Membership in the
reduced set depends only on m mod num(u), which makes disjointness of two
reduced sets decidable on one window of length lcm of the numerators.

Parameters are ints or Fractions, m is an int; float and bool raise TypeError.
"""

from __future__ import annotations

from math import lcm

from .classify import positive_witness
from .exact import Rat, as_rat, require_int


def _require_positive(u: Rat | int) -> Rat:
    u = as_rat(u)
    if u.numerator <= 0:
        raise ValueError("Beatty parameter must be positive")
    return u


def beatty_pos_contains(u: Rat | int, m: int) -> bool:
    """True iff floor(n*u) = m for some integer n >= 1."""
    require_int(m, "m")
    u = _require_positive(u)
    p, q = u.numerator, u.denominator
    n0 = max(1, -((-m * q) // p))  # least n >= 1 with n*u >= m
    return m * q <= n0 * p < (m + 1) * q


def beatty_contains(u: Rat | int, m: int) -> bool:
    """True iff floor(n*u) = m for some integer n."""
    require_int(m, "m")
    u = _require_positive(u)
    p, q = u.numerator, u.denominator
    n0 = -((-m * q) // p)  # least n with n*u >= m
    return n0 * p < (m + 1) * q


def reduced_contains(u: Rat | int, m: int) -> bool:
    """True iff some non-integer multiple of u has floor m.

    Equivalently: some integer multiple of u lies strictly inside (m, m+1).
    """
    if type(m) is not int:  # one type test on the window scan's path
        require_int(m, "m")
    u = _require_positive(u)
    p, q = u.numerator, u.denominator
    n0 = (m * q) // p + 1  # least n with n*u > m
    return n0 * p < (m + 1) * q


def disjointness_witness(u: Rat | int, v: Rat | int) -> tuple[int, int] | None:
    """Find integers m, n >= 0, not both zero, with m/u + n/v = 1.

    Dividing the classifier's positive line m*alpha*beta + n*alpha = beta by
    beta gives m*alpha + n*alpha/beta = 1, which at (alpha, beta) =
    (1/u, v/u) reads m/u + n/v = 1.  So the witness is ``positive_witness``
    there: the least-m solution, or None when no such pair exists.
    """
    u, v = _require_positive(u), _require_positive(v)
    witness = positive_witness(1 / u, v / u)
    return None if witness is None else (witness.m, witness.n)


def _least_common_reduced(u: Rat, v: Rat) -> int | None:
    """Least m >= 0 in both reduced sets, or None if they are disjoint.

    Membership in reduced(u) depends only on m mod num(u), so the window
    [0, lcm(num(u), num(v))) is exhaustive.
    """
    for m in range(lcm(u.numerator, v.numerator)):
        if reduced_contains(u, m) and reduced_contains(v, m):
            return m
    return None


def reduced_disjoint(u: Rat | int, v: Rat | int) -> bool:
    """Decide whether the reduced Beatty sets of u and v share any integer.

    Brute-force and independent of disjointness_witness: integer parameters have
    an empty reduced set, parameters below 1 have reduced set all of Z, and
    otherwise one window scan decides.
    """
    u, v = _require_positive(u), _require_positive(v)
    if u.denominator == 1 or v.denominator == 1:
        return True
    if u < 1 or v < 1:
        # one side is all of Z and the other (non-integer) side is nonempty
        return False
    return _least_common_reduced(u, v) is None
