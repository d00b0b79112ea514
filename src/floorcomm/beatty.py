"""Beatty sequences over the positive integers and over Z, and disjointness.

For u > 0 the three flavors are

    pos(u)     = { floor(n*u) : n >= 1 }
    full(u)    = { floor(n*u) : n in Z }
    reduced(u) = { floor(n*u) : n in Z, n*u not in Z }

Membership of m in each set is O(1): it only asks whether an integer multiple
of u lands in [m, m+1) (resp. strictly inside (m, m+1)).  Membership in the
reduced set depends only on m mod num(u), which makes disjointness of two
reduced sets decidable on one window of length lcm of the numerators.  The
window scan reads the numerators and denominators once and tests each m with
the same integer predicate as ``reduced_contains``; it calls nothing in the
classifier.  The disjointness witness is the package's two-generator solver
(``semigroup._least_representation``), called on the numerators and
denominators directly.

Parameters are ints or Fractions, m is an int; float and bool raise TypeError.
"""

from __future__ import annotations

from math import lcm

from .exact import Rat, positive_rat, require_int
from .semigroup import _least_representation

_POSITIVE = "Beatty parameter must be positive"


def beatty_pos_contains(u: Rat | int, m: int) -> bool:
    """True iff floor(n*u) = m for some integer n >= 1."""
    require_int(m, "m")
    u = positive_rat(u, _POSITIVE)
    p, q = u.numerator, u.denominator
    return m >= p // q and -m * q % p < q  # floor(n*u) >= floor(u) for n >= 1


def beatty_contains(u: Rat | int, m: int) -> bool:
    """True iff floor(n*u) = m for some integer n."""
    require_int(m, "m")
    u = positive_rat(u, _POSITIVE)
    p, q = u.numerator, u.denominator
    return -m * q % p < q  # the least multiple of u at or above m, minus m, is below 1


def _in_reduced(p: int, q: int, m: int) -> bool:
    """m in reduced(p/q): the least multiple above m, ((m*q)//p + 1)*p/q, is below m + 1."""
    return p - m * q % p < q


def reduced_contains(u: Rat | int, m: int) -> bool:
    """True iff some non-integer multiple of u has floor m.

    Equivalently: some integer multiple of u lies strictly inside (m, m+1).
    """
    require_int(m, "m")
    u = positive_rat(u, _POSITIVE)
    return _in_reduced(u.numerator, u.denominator, m)


def disjointness_witness(u: Rat | int, v: Rat | int) -> tuple[int, int] | None:
    """Find integers m, n >= 0, not both zero, with m/u + n/v = 1.

    With u = p/q and v = r/s that is m*(q*r) + n*(s*p) = p*r, the
    two-generator equation: its least-m solution, or None when no such pair
    exists.  It is the classifier's positive line at (alpha, beta) = (1/u, v/u).
    """
    u, v = positive_rat(u, _POSITIVE), positive_rat(v, _POSITIVE)
    p, q, r, s = u.numerator, u.denominator, v.numerator, v.denominator
    return _least_representation(q * r, s * p, p * r)


def _least_common_reduced(u: Rat, v: Rat) -> int | None:
    """Least m >= 0 in both reduced sets, or None if they are disjoint.

    An integer parameter has an empty reduced set, so the answer is None at
    once.  Otherwise membership in reduced(u) depends only on m mod num(u),
    so the window [0, lcm(num(u), num(v))) is exhaustive; it is scanned in
    order with ``_in_reduced``.  A parameter below 1 has reduced set all of
    Z, and then the scan stops within num of the other parameter steps.
    """
    pu, qu = u.numerator, u.denominator
    pv, qv = v.numerator, v.denominator
    if qu == 1 or qv == 1:
        return None
    for m in range(lcm(pu, pv)):
        if _in_reduced(pu, qu, m) and _in_reduced(pv, qv, m):
            return m
    return None


def reduced_disjoint(u: Rat | int, v: Rat | int) -> bool:
    """Decide whether the reduced Beatty sets of u and v share any integer.

    Brute-force and independent of disjointness_witness: one window scan,
    ``_least_common_reduced``, decides.
    """
    u, v = positive_rat(u, _POSITIVE), positive_rat(v, _POSITIVE)
    return _least_common_reduced(u, v) is None
