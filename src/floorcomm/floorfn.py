"""Dilated floor functions, rounding functions, and the exhaustive commutator oracle.

The central object is the commutator

    x  |->  floor(alpha * floor(beta * x)) - floor(beta * floor(alpha * x)).

For nonzero rational alpha = a/b and beta = c/d (lowest terms) it is periodic
with period T = b*d, because alpha*T, beta*T and alpha*beta*T are all
integers, and it is constant on every open interval between consecutive
points of (1/alpha)Z u (1/beta)Z.  The oracle therefore decides the sign of
the commutator over all of R by evaluating finitely many exact points.

It walks one period along the gaps of the sparser of the two arithmetic
progressions k/|alpha| and j/|beta|, storing no points, so it takes at
most min(|a|*d, |c|*b) steps and O(1) extra memory.  On such a gap that
progression's inner floor is fixed and the other's runs through consecutive
integers, so the commutator is monotone across the gap, and one sample at
its first or its last sub-gap gives the gap's least value.

Breakpoints need no samples of their own.  floor(g*x) is right-continuous for
g > 0 and left-continuous for g < 0, so a point of one progression only has
the value of the gap after it or of the gap before it.  Where the two
progressions meet, alpha*x and beta*x are both integers, and the commutator
there is floor(alpha*beta*x) - floor(beta*alpha*x) = 0, its value at x = 0.

The commutator and the walk run on the factors' integer parts in ``_oracle``,
which imports no ``dataclasses``: ``commutator`` and ``oracle_verify`` read
the parts out of their records and wrap the ints in a record again, and the
CLI formats the same ints without building one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels import _least_k
from ._oracle import _commutator, _report
from .exact import Rat, as_rat, positive_rat, rat_ceil, rat_floor, require_type

_POSITIVE = "dilation factors must be positive"


@dataclass(frozen=True)
class DilationPair:
    """An ordered pair of dilation factors; any rationals are legal.

    Each factor is an int or a Fraction and is stored as a Rat; float and
    bool raise TypeError.
    """

    alpha: Rat
    beta: Rat

    def __post_init__(self) -> None:
        if type(self.alpha) is not Fraction or type(self.beta) is not Fraction:
            object.__setattr__(self, "alpha", as_rat(self.alpha))
            object.__setattr__(self, "beta", as_rat(self.beta))


@dataclass(frozen=True)
class OracleReport:
    """Certified minimum of the commutator over one full period.

    ``min_value`` is the exact global minimum over all real x; ``argmin`` is
    the first sample in [0, period) attaining it, in increasing order, where
    each breakpoint comes before the gap after it.  ``breakpoints_checked``
    counts the breakpoints of one period that the scan covers, whether
    walked or bounded by the commutator's floor once the walk reaches it,
    not the steps it takes, and ``samples_checked`` the samples it covers, a
    breakpoint and a gap for each.  By continuity and monotonicity one
    evaluation per gap of the sparser progression settles them all.
    """

    period: Rat
    min_value: int
    argmin: Rat
    breakpoints_checked: int
    samples_checked: int

    @property
    def member(self) -> bool:
        return self.min_value >= 0


# a member's argmin and the axis pairs' report, built once and shared: both are immutable
_ZERO = Fraction(0)
_AXIS_REPORT = OracleReport(Fraction(1), 0, _ZERO, 0, 0)


def dilated_floor(alpha: Rat | int, x: Rat | int) -> int:
    """floor(alpha * x); float and bool raise TypeError."""
    return rat_floor(as_rat(alpha) * as_rat(x))


def commutator(pair: DilationPair, x: Rat | int) -> int:
    """floor(alpha*floor(beta*x)) - floor(beta*floor(alpha*x)), exactly.

    With alpha = a/b, beta = c/d and x = N/M (positive denominators) the
    inner floors are (c*N)//(d*M) and (a*N)//(b*M), so four integer floor
    divisions give the value; a float or bool x raises TypeError.
    """
    if type(pair) is not DilationPair:
        require_type(pair, DilationPair)
    alpha, beta, x = pair.alpha, pair.beta, as_rat(x)
    return _commutator(alpha.numerator, alpha.denominator, beta.numerator, beta.denominator, x.numerator, x.denominator)


def lower_round(alpha: Rat | int, x: Rat | int) -> Rat:
    """Slope-1 rounding down onto the grid alpha*Z: alpha*floor(x/alpha).

    Extended to alpha = 0 as the identity, the pointwise limit of the family.
    """
    alpha, x = as_rat(alpha), as_rat(x)
    if alpha == 0:
        return x
    return alpha * rat_floor(x / alpha)


def upper_round(alpha: Rat | int, x: Rat | int) -> Rat:
    """Slope-1 rounding up onto alpha*Z: alpha*ceil(x/alpha); alpha != 0."""
    alpha, x = as_rat(alpha), as_rat(x)
    if alpha == 0:
        raise ValueError("upper rounding is undefined for zero dilation")
    return alpha * rat_ceil(x / alpha)


def oracle_verify(pair: DilationPair) -> OracleReport:
    """Exact global minimum of the commutator, by exhaustive period scan.

    Covers every breakpoint in [0, T) and every gap between consecutive
    breakpoints; piecewise constancy makes this a complete cover of R.  The
    scan is ``_oracle._oracle_min``, one step per gap of the sparser
    breakpoint progression, run through ``_oracle._report`` (which adds the
    axis case) on the factors' numerators and denominators, read once; this
    function adds the type guard and the report.  The axis report and a
    member's argmin 0 are shared module constants, so a report builds at most
    two Fractions: the period and a non-member's argmin.
    """
    if type(pair) is not DilationPair:
        require_type(pair, DilationPair)
    alpha, beta = pair.alpha, pair.beta
    period, best, num, den, breakpoints = _report(alpha.numerator, alpha.denominator, beta.numerator, beta.denominator)
    if not breakpoints:  # an axis pair: nothing was walked
        return _AXIS_REPORT
    return OracleReport(Fraction(period), best, Fraction(num, den) if num else _ZERO, breakpoints, 2 * breakpoints)


def integer_rounding_check(alpha: Rat | int, beta: Rat | int) -> tuple[bool, int | None]:
    """Decide upper_round(alpha, n) <= upper_round(beta, n) for every integer n.

    With alpha = a1/b1 and beta = a2/b2, (-n*b1) % a1 = b1*(upper_round(alpha,
    n) - n), so the ``_least_k`` test with bar 0 is upper_round(alpha, n) >
    upper_round(beta, n).  It never holds at n = 0 or n = lcm(a1, a2), so the
    least k of that scan is the least violating n >= 0.  Returns (True, None)
    or (False, n).
    """
    alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    k = _least_k(alpha.numerator, alpha.denominator, beta.numerator, beta.denominator, 0)
    return (True, None) if k is None else (False, k)


def rounding_order(alpha: Rat | int, beta: Rat | int) -> bool:
    """True iff lower_round(alpha, x) <= lower_round(beta, x) for all real x.

    Holds exactly when alpha is a positive integer multiple of beta.
    """
    alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    return (alpha / beta).denominator == 1
