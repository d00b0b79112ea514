"""Reference witness searches: plain linear scans over Fraction steps.

These are the searches floorcomm shipped before the closed forms in
``floorcomm.classify``, and the Beatty disjointness scan that
``floorcomm.beatty.disjointness_witness`` ran before it became a call of the
positive line.  They walk every candidate in order, so the first hit
defines the tie-breaks the closed forms must reproduce.  Their cost is linear
(positive line, hyperbola) or quadratic (sporadic) in the denominators, so
the differential tests only call them on small inputs.

``reference_least_violation`` is the brute-force counterpart of the
non-member certificate: the first violating breakpoint of a period scan.
"""

from fractions import Fraction
from math import floor

from floorcomm.classify import NegHyperbola, NegSporadic, NegVertical, PositiveLinear
from floorcomm.exact import rat_floor


def reference_positive_witness(alpha: Fraction, beta: Fraction) -> PositiveLinear | None:
    """Scan m = 0, 1, ..., floor(1/alpha) for an integer n = (1 - m*alpha)/(alpha/beta)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("dilation factors must be positive")
    ratio = alpha / beta
    for m in range(rat_floor(1 / alpha) + 1):
        n = (1 - m * alpha) / ratio
        if n.denominator == 1 and (m > 0 or n > 0):
            return PositiveLinear(m, int(n))
    return None


def reference_negative_witness(
    alpha: Fraction, beta: Fraction
) -> NegHyperbola | NegVertical | NegSporadic | None:
    """Scan the hyperbola over m, test the vertical segment, then scan every sporadic (m, n)."""
    if alpha >= 0 or beta >= 0:
        raise ValueError("dilation factors must be negative")
    ratio = alpha / beta
    m_max = rat_floor((ratio - 1) / (-alpha))
    for m in range(m_max + 1):
        n = m * alpha + ratio
        if n.denominator == 1 and n >= 1:
            return NegHyperbola(m, int(n))
    p, q = alpha.denominator, -alpha.numerator
    if beta >= Fraction(-1, p):
        return NegVertical(p, q)
    for m in range(p):
        for n in range(1, q + 1):
            share = Fraction(m, p) + Fraction(n, q)
            if not 0 < share < 1:
                continue
            slope = Fraction(-1, p) / beta - 1  # equals (share - 1)/r
            if slope == 0:
                continue
            r = (share - 1) / slope
            if r.denominator == 1 and r >= 2:
                return NegSporadic(p, q, m, n, int(r))
    return None


def reference_disjointness_witness(u: Fraction, v: Fraction) -> tuple[int, int] | None:
    """Scan m = 0, 1, ..., floor(u) for an integer n = v*(1 - m/u) with m/u + n/v = 1."""
    if u <= 0 or v <= 0:
        raise ValueError("Beatty parameter must be positive")
    for m in range(rat_floor(u) + 1):
        n = v * (1 - Fraction(m) / u)
        if n.denominator == 1 and (m > 0 or n > 0):
            return m, int(n)
    return None


def fraction_commutator(alpha: Fraction, beta: Fraction, x: Fraction) -> int:
    """The defining formula, with Fraction products."""
    return floor(alpha * floor(beta * x)) - floor(beta * floor(alpha * x))


def reference_least_violation(alpha: Fraction, beta: Fraction) -> Fraction | None:
    """Least violating x among n/alpha (alpha, beta > 0) or j/|beta| (both < 0) in one period.

    A plain scan in ``Fraction`` arithmetic over every breakpoint of the one
    progression on which each quadrant's commutator attains its least values,
    up to the period alpha.denominator * beta.denominator.
    """
    if alpha > 0 and beta > 0:
        step = 1 / alpha
    elif alpha < 0 and beta < 0:
        step = -1 / beta
    else:
        raise ValueError("dilation factors must share a sign")
    period = alpha.denominator * beta.denominator
    for i in range(1, floor(period / step) + 1):
        if fraction_commutator(alpha, beta, i * step) < 0:
            return i * step
    return None
