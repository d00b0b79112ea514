"""Dilated floor functions, rounding functions, and the exhaustive commutator oracle.

The central object is the commutator

    x  |->  floor(alpha * floor(beta * x)) - floor(beta * floor(alpha * x)).

For nonzero rational alpha = a/b and beta = c/d (lowest terms) it is periodic
with period T = b*d, because alpha*T, beta*T and alpha*beta*T are all
integers, and it is constant on every open interval between consecutive
points of (1/alpha)Z u (1/beta)Z.  The oracle therefore decides the sign of
the commutator over all of R by evaluating finitely many exact points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import Rat, as_rat, rat_ceil, rat_floor


@dataclass(frozen=True)
class DilationPair:
    """An ordered pair of dilation factors; any rationals are legal.

    Each factor is an int or a Fraction and is stored as a Rat; float and
    bool raise TypeError.
    """

    alpha: Rat
    beta: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_rat(self.alpha))
        object.__setattr__(self, "beta", as_rat(self.beta))


@dataclass(frozen=True)
class OracleReport:
    """Certified minimum of the commutator over one full period.

    ``min_value`` is the exact global minimum over all real x; ``argmin`` is
    the smallest point in [0, period) attaining it, in scan order.
    """

    period: Rat
    min_value: int
    argmin: Rat
    breakpoints_checked: int
    samples_checked: int

    @property
    def member(self) -> bool:
        return self.min_value >= 0


def dilated_floor(alpha: Rat, x: Rat | int) -> int:
    """floor(alpha * x)."""
    return rat_floor(alpha * x)


def commutator(pair: DilationPair, x: Rat | int) -> int:
    """floor(alpha*floor(beta*x)) - floor(beta*floor(alpha*x)), exactly."""
    alpha, beta = pair.alpha, pair.beta
    return rat_floor(alpha * dilated_floor(beta, x)) - rat_floor(beta * dilated_floor(alpha, x))


def lower_round(alpha: Rat, x: Rat) -> Rat:
    """Slope-1 rounding down onto the grid alpha*Z: alpha*floor(x/alpha).

    Extended to alpha = 0 as the identity, the pointwise limit of the family.
    """
    if alpha == 0:
        return Fraction(x)
    return alpha * rat_floor(x / alpha)


def upper_round(alpha: Rat, x: Rat) -> Rat:
    """Slope-1 rounding up onto alpha*Z: alpha*ceil(x/alpha); alpha != 0."""
    if alpha == 0:
        raise ValueError("upper rounding is undefined for zero dilation")
    return alpha * rat_ceil(x / alpha)


def oracle_verify(pair: DilationPair) -> OracleReport:
    """Exact global minimum of the commutator, by exhaustive period scan.

    Evaluates the commutator at every breakpoint in [0, T) and at the exact
    midpoint of every gap between consecutive breakpoints; piecewise
    constancy makes this a complete cover of R.  All evaluation is done in
    scaled integer arithmetic (sample points share the denominator
    2*|num(alpha)|*|num(beta)|), so large periods stay cheap and exact.
    """
    alpha, beta = pair.alpha, pair.beta
    if alpha == 0 or beta == 0:
        # both compositions vanish identically; nothing to enumerate
        return OracleReport(Fraction(1), 0, Fraction(0), 0, 0)
    a, b = alpha.numerator, alpha.denominator
    c, d = beta.numerator, beta.denominator
    scale = abs(a) * abs(c)  # common denominator of all breakpoints
    span = b * d * scale  # period T = b*d, scaled by `scale`
    step_a = b * abs(c)  # |1/alpha|, scaled
    step_b = d * abs(a)  # |1/beta|, scaled
    points = sorted(set(range(0, span + 1, step_a)) | set(range(0, span + 1, step_b)))
    den2 = 2 * scale  # samples (breakpoints and midpoints) live over 2*scale
    div_a = b * den2
    div_b = d * den2
    best: int | None = None
    best_num = 0
    for i in range(len(points) - 1):
        lo, hi = points[i], points[i + 1]
        for num in (2 * lo, lo + hi):  # breakpoint, then gap midpoint
            value = (a * ((c * num) // div_b)) // b - (c * ((a * num) // div_a)) // d
            if best is None or value < best:
                best, best_num = value, num
    breakpoints = len(points) - 1
    assert best is not None
    return OracleReport(
        period=Fraction(b * d),
        min_value=best,
        argmin=Fraction(best_num, den2),
        breakpoints_checked=breakpoints,
        samples_checked=2 * breakpoints,
    )


def integer_rounding_check(alpha: Rat, beta: Rat) -> tuple[bool, int | None]:
    """Decide upper_round(alpha, n) <= upper_round(beta, n) for every integer n.

    Both sides shift by num(alpha) resp. num(beta) when n shifts by the same
    amount, so scanning n in [0, lcm(num(alpha), num(beta))) is exhaustive.
    Returns (True, None), or (False, n) with the least violating n >= 0.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("dilation factors must be positive")
    a1, b1 = alpha.numerator, alpha.denominator
    a2, b2 = beta.numerator, beta.denominator
    for n in range(lcm(a1, a2)):
        lhs = a1 * (-((-n * b1) // a1))  # upper_round(alpha, n), times b1
        rhs = a2 * (-((-n * b2) // a2))
        if lhs * b2 > rhs * b1:
            return False, n
    return True, None


def rounding_order(alpha: Rat, beta: Rat) -> bool:
    """True iff lower_round(alpha, x) <= lower_round(beta, x) for all real x.

    Holds exactly when alpha is a positive integer multiple of beta.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("dilation factors must be positive")
    return (alpha / beta).denominator == 1
