"""Dilated floor functions, rounding functions, and the exhaustive commutator oracle.

The central object is the commutator

    x  |->  floor(alpha * floor(beta * x)) - floor(beta * floor(alpha * x)).

For nonzero rational alpha = a/b and beta = c/d (lowest terms) it is periodic
with period T = b*d, because alpha*T, beta*T and alpha*beta*T are all
integers, and it is constant on every open interval between consecutive
points of (1/alpha)Z u (1/beta)Z.  The oracle therefore decides the sign of
the commutator over all of R by evaluating finitely many exact points.

It walks the two arithmetic progressions k/|alpha| and j/|beta| of one
period as a single merged stream, two pointers and no stored points, so it
runs in time linear in the |a|*d + |c|*b - gcd(|a|*d, |c|*b) breakpoints and
in O(1) extra memory.  The inner floors floor(alpha*x) and floor(beta*x) are
the counts of points passed, with a sign correction for a negative factor,
so a step past a point of one progression recomputes one outer floor.

A breakpoint is sampled by a continuity rule: floor(g*x) is right-continuous
for g > 0 and left-continuous for g < 0, so a point has the value of the gap
after it when every factor whose progression passes through it is positive,
and of the gap before it when every such factor is negative.  Only where both
progressions meet and exactly one factor is negative does the point have a
value of its own, and only there is it evaluated.  The classification says
that sample never sets the minimum, but the oracle checks that classification
and so must not assume it; the sample stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exact import Rat, as_rat, positive_rat, rat_ceil, rat_floor

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
    the smallest point in [0, period) attaining it, in scan order.
    ``samples_checked`` counts the samples covered, a breakpoint and a gap
    for each of the ``breakpoints_checked`` breakpoints; by continuity most
    breakpoints share a gap's value and are not evaluated on their own.
    """

    period: Rat
    min_value: int
    argmin: Rat
    breakpoints_checked: int
    samples_checked: int

    @property
    def member(self) -> bool:
        return self.min_value >= 0


def dilated_floor(alpha: Rat | int, x: Rat | int) -> int:
    """floor(alpha * x); float and bool raise TypeError."""
    return rat_floor(as_rat(alpha) * as_rat(x))


def commutator(pair: DilationPair, x: Rat | int) -> int:
    """floor(alpha*floor(beta*x)) - floor(beta*floor(alpha*x)), exactly.

    With alpha = a/b, beta = c/d and x = N/M (positive denominators) the
    inner floors are (c*N)//(d*M) and (a*N)//(b*M), so four integer floor
    divisions give the value; a float or bool x raises TypeError.
    """
    a, b = pair.alpha.numerator, pair.alpha.denominator
    c, d = pair.beta.numerator, pair.beta.denominator
    x = as_rat(x)
    n, m = x.numerator, x.denominator
    return (a * ((c * n) // (d * m))) // b - (c * ((a * n) // (b * m))) // d


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
    breakpoints; piecewise constancy makes this a complete cover of R.
    Breakpoints are scaled by |num(alpha)*num(beta)|, so the two progressions
    are k*step_a and j*step_b in integers, and one two-pointer walk merges
    them in increasing order without storing either: O(1) extra memory, one
    step per breakpoint, and |a|*d + |c|*b - gcd(|a|*d, |c|*b) steps in all.

    The inner floors need no division.  If ka alpha points lie in (0, x],
    floor(alpha*x) is ka for alpha > 0 and -ka-1 for alpha < 0, except at a
    point of the alpha progression itself, where alpha*x = -ka is an integer;
    the same holds for beta.  The walk carries these gap floors and bumps
    one as it passes a point of its progression, so a step recomputes one
    outer floor, floor(beta*floor(alpha*x)) or floor(alpha*floor(beta*x)),
    one small-integer division, and both only where the progressions meet.

    A breakpoint's own sample follows from continuity.  floor(g*x) is
    right-continuous for g > 0 and left-continuous for g < 0, and an inner
    floor whose progression misses the point is the same on both sides.  So
    where every factor whose progression passes through the point is
    positive, the point has the value of the gap after it and comes first in
    scan order: the gap is compared as the point, at 2*lo.  Where every such
    factor is negative, the point has the value of the gap before it, which
    was already compared; only a strictly smaller value replaces the best,
    so the point is skipped.  Only where both progressions meet and exactly
    one factor is negative does the point have a value of its own, and there
    it is evaluated before the gap.  The scan does not rely on the theorem
    it checks, so that sample stays although the classification predicts it
    never sets the minimum: for alpha < 0 < beta it is never below 0, and
    for alpha > 0 > beta never below the gap before it.
    """
    alpha, beta = pair.alpha, pair.beta
    a, b = alpha.numerator, alpha.denominator
    c, d = beta.numerator, beta.denominator
    if a == 0 or c == 0:
        # both compositions vanish identically; nothing to enumerate
        return OracleReport(Fraction(1), 0, Fraction(0), 0, 0)
    scale = abs(a) * abs(c)  # common denominator of all breakpoints
    span = b * d * scale  # period T = b*d, scaled by `scale`
    step_a = b * abs(c)  # |1/alpha|, scaled
    step_b = d * abs(a)  # |1/beta|, scaled
    neg_a, neg_b = a < 0, c < 0
    inc_a, inc_b = (-1 if neg_a else 1), (-1 if neg_b else 1)
    # floor(alpha*x), floor(beta*x) on the gap before x = 0; the walk starts
    # at the meet point 0 and bumps both to their values on the gap after it
    fa, fb = neg_a - 1, neg_b - 1
    left = right = 0  # floor(alpha*fb), floor(beta*fa) on the current gap
    next_a = next_b = 0
    # x = 0 is the first sample and the commutator vanishes there
    best = best_num = 0
    while True:
        if next_a < next_b:  # a point of the alpha progression only
            next_a += step_a
            fa += inc_a
            right = (c * fa) // d
            if left - right < best:
                best = left - right
                lo = next_a - step_a
                best_num = lo + min(next_a, next_b) if neg_a else 2 * lo
        elif next_b < next_a:  # a point of the beta progression only
            next_b += step_b
            fb += inc_b
            left = (a * fb) // b
            if left - right < best:
                best = left - right
                lo = next_b - step_b
                best_num = lo + min(next_a, next_b) if neg_b else 2 * lo
        else:  # the progressions meet
            lo = next_a
            if lo == span:
                break
            next_a += step_a
            next_b += step_b
            fa += inc_a
            fb += inc_b
            left, right = (a * fb) // b, (c * fa) // d
            if neg_a != neg_b:
                # the negative factor's inner floor is one higher at the point
                point = (a * (fb + neg_b)) // b - (c * (fa + neg_a)) // d
                if point < best:
                    best, best_num = point, 2 * lo
            if left - right < best:
                best = left - right
                best_num = lo + min(next_a, next_b) if neg_a or neg_b else 2 * lo
    on_a, on_b = abs(a) * d, abs(c) * b  # points of each progression in [0, T)
    breakpoints = on_a + on_b - gcd(on_a, on_b)
    return OracleReport(
        period=Fraction(b * d),
        min_value=best,
        argmin=Fraction(best_num, 2 * scale),  # samples live over 2*scale
        breakpoints_checked=breakpoints,
        samples_checked=2 * breakpoints,
    )


def _least_k(a: int, b: int, c: int, d: int, bar: int) -> int | None:
    """Least k in [1, lcm(a, c)] with d*((-k*b) % a) - b*((-k*d) % c) > bar, or None.

    Both residues depend only on k mod a and k mod c, so one period of k is
    exhaustive: O(lcm(a, c)) integer steps.
    """
    for k in range(1, lcm(a, c) + 1):
        if d * (-k * b % a) - b * (-k * d % c) > bar:
            return k
    return None


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
