"""Dilated floor functions, rounding functions, and the exhaustive commutator oracle.

The central object is the commutator

    x  |->  floor(alpha * floor(beta * x)) - floor(beta * floor(alpha * x)).

For nonzero rational alpha = a/b and beta = c/d (lowest terms) it is periodic
with period T = b*d, because alpha*T, beta*T and alpha*beta*T are all
integers, and it is constant on every open interval between consecutive
points of (1/alpha)Z u (1/beta)Z.  The oracle therefore decides the sign of
the commutator over all of R by evaluating finitely many exact points.

It walks one period along the gaps of the sparser of the two arithmetic
progressions k/|alpha| and j/|beta|, storing no points, so it takes
min(|a|*d, |c|*b) steps and O(1) extra memory.  On such a gap that
progression's inner floor is fixed and the other's runs through consecutive
integers, so the commutator is monotone across the gap, and one sample at
its first or its last sub-gap gives the gap's least value.

Breakpoints need no samples of their own.  floor(g*x) is right-continuous for
g > 0 and left-continuous for g < 0, so a point of one progression only has
the value of the gap after it or of the gap before it.  Where the two
progressions meet, alpha*x and beta*x are both integers, and the commutator
there is floor(alpha*beta*x) - floor(beta*alpha*x) = 0, its value at x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._kernels import _least_k
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
    counts the breakpoints of one period that the scan covers, not the steps
    it takes, and ``samples_checked`` the samples it covers, a breakpoint and
    a gap for each.  By continuity and monotonicity one evaluation per gap of
    the sparser progression settles them all.
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


def _commutator(a: int, b: int, c: int, d: int, n: int, m: int) -> int:
    """``commutator`` at alpha = a/b, beta = c/d and x = n/m; b, d, m >= 1, no part need be in lowest terms."""
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


def _oracle_min(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """The oracle's walk for alpha = a/b and beta = c/d in lowest terms, a and c nonzero.

    Returns the commutator's least value, the argmin's numerator over
    2*|a*c|, and the number of breakpoints in one period.  ``oracle_verify``
    wraps these in an ``OracleReport``; ``cli.cmd_sweep`` calls this walk
    directly on each pair's numerators and denominators and reads only the
    least value.

    Breakpoints are scaled by |a*c|, so the progressions are k*step_a and
    j*step_b in integers, and a period holds step_b alpha points and step_a
    beta points.  The scan walks the step_i = min(step_a, step_b) gaps of the
    sparser, outer progression: O(1) work per gap, O(1) extra memory.

    On outer gap j, (j*step_o, (j+1)*step_o), the outer progression's inner
    floor is j for a positive factor and -j-1 for a negative one; on the
    sub-gap after the k-th point of the denser progression, its inner floor
    is k or -k-1 likewise.  So the commutator there is (p*j + q)//r -
    (u*k + w)//v.  Walking beta gaps, the two terms are
    floor(alpha*floor(beta*x)) and floor(beta*floor(alpha*x)); walking alpha
    gaps, both are negated by -(z//v) = (v - 1 - z)//v and swap places.  The
    second term is monotone in k, so the gap's least value lies on its last
    sub-gap if u > 0 and on its first otherwise, at k = (step_o*j + e)//step_i:
    three floor divisions per gap.  No breakpoint needs a sample of its own
    (see the module docstring): each has a neighbouring gap's value, or 0
    where the progressions meet.

    The argmin is the first sample that reaches the minimum in increasing
    order, a breakpoint before the gap after it.  It lies in the first outer
    gap that reaches the minimum, on the first sub-gap that does, which one
    ceiling division finds.  That sub-gap (lo, hi) is reported as its left
    end 2*lo when every factor whose progression passes through lo is
    positive, since that point has the gap's value, and as its midpoint
    lo + hi otherwise.
    """
    step_a = b * abs(c)  # |1/alpha|, scaled; the number of beta points in [0, T)
    step_b = d * abs(a)  # |1/beta|, scaled; the number of alpha points in [0, T)
    neg_a, neg_b = a < 0, c < 0
    if step_a <= step_b:  # walk the beta gaps: fb = j or -j-1, fa = k or -k-1
        step_o, step_i = step_b, step_a
        p, q = (-a, -a) if neg_b else (a, 0)  # floor(a*fb/b)
        u, w = (-c, -c) if neg_a else (c, 0)  # floor(c*fa/d)
        r, v = b, d
    else:  # walk the alpha gaps: fa = j or -j-1, fb = k or -k-1
        step_o, step_i = step_a, step_b
        p, q = (c, d - 1 + c) if neg_a else (-c, d - 1)  # -floor(c*fa/d)
        u, w = (a, b - 1 + a) if neg_b else (-a, b - 1)  # -floor(a*fb/b)
        r, v = d, b
    # where the second term grows with k (u > 0) the least value is on the last sub-gap
    e = step_o - 1 if u > 0 else 0
    best = 0  # x = 0 is the first sample and the commutator vanishes there
    for j in range(step_i):
        value = (p * j + q) // r - (u * ((step_o * j + e) // step_i) + w) // v
        if value < best:
            best, best_j = value, j
    best_num = 0
    if best < 0:
        lo = best_j * step_o
        if u > 0:  # the first k whose second term reaches the last sub-gap's
            reach = (p * best_j + q) // r - best
            lo = max(lo, -((w - reach * v) // u) * step_i)
        off_a, off_b = lo % step_a, lo % step_b
        hi = lo + min(step_a - off_a, step_b - off_b)
        at_point = not (neg_a and off_a == 0 or neg_b and off_b == 0)
        best_num = 2 * lo if at_point else lo + hi
    return best, best_num, step_a + step_b - gcd(step_a, step_b)


def oracle_verify(pair: DilationPair) -> OracleReport:
    """Exact global minimum of the commutator, by exhaustive period scan.

    Covers every breakpoint in [0, T) and every gap between consecutive
    breakpoints; piecewise constancy makes this a complete cover of R.  The
    scan is ``_oracle_min``, one step per gap of the sparser breakpoint
    progression, run on the factors' numerators and denominators, read once;
    this function adds the type guard, the axis case and the report.  The
    axis report and a member's argmin 0 are shared module constants, so a
    report builds at most two Fractions: the period and a non-member's argmin.
    ``cli.cmd_sweep`` is the kernel's other caller.
    """
    if type(pair) is not DilationPair:
        require_type(pair, DilationPair)
    alpha, beta = pair.alpha, pair.beta
    a, b, c, d = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    if a == 0 or c == 0:  # both compositions vanish identically; nothing to enumerate
        return _AXIS_REPORT
    best, best_num, breakpoints = _oracle_min(a, b, c, d)
    return OracleReport(
        period=Fraction(b * d),
        min_value=best,
        argmin=Fraction(best_num, 2 * abs(a) * abs(c)) if best_num else _ZERO,  # samples live over 2*|a*c|
        breakpoints_checked=breakpoints,
        samples_checked=2 * breakpoints,
    )


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
