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

``reference_reduced_disjoint``, ``reference_lattice_diag_disjoint`` and
``reference_torus_subgroup_avoids`` are the criteria deciders as floorcomm
shipped them before their loops ran on integers: the window scan calls the
public ``reduced_contains`` for every m (and scans the whole window for an
integer lattice spacing), and the torus loop tests both axes at every N.
"""

from fractions import Fraction
from math import floor, lcm

from floorcomm.beatty import reduced_contains
from floorcomm.classify import NegHyperbola, NegSporadic, NegVertical, PositiveLinear
from floorcomm.exact import rat_floor
from floorcomm.geometry import CornerRect, LatticeParams


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


def reference_least_common_reduced(u: Fraction, v: Fraction) -> int | None:
    """Least m in the window [0, lcm(num(u), num(v))) in both reduced sets, one public call per m."""
    for m in range(lcm(u.numerator, v.numerator)):
        if reduced_contains(u, m) and reduced_contains(v, m):
            return m
    return None


def reference_reduced_disjoint(u: Fraction, v: Fraction) -> bool:
    """Integer parameters: empty reduced set; a parameter below 1: all of Z; else the window scan."""
    if u <= 0 or v <= 0:
        raise ValueError("Beatty parameter must be positive")
    if u.denominator == 1 or v.denominator == 1:
        return True
    if u < 1 or v < 1:
        return False
    return reference_least_common_reduced(u, v) is None


def reference_lattice_diag_disjoint(params: LatticeParams) -> tuple[bool, tuple[int, int] | None]:
    """The window scan at (mu, nu), with the least lattice indices (k, l) of its hit."""
    mu, nu = params.mu, params.nu
    m = reference_least_common_reduced(mu, nu)
    if m is None:
        return True, None
    k = (m * mu.denominator) // mu.numerator + 1
    ell = (m * nu.denominator) // nu.numerator + 1
    return False, (k, ell)


def reference_torus_subgroup_avoids(rect: CornerRect) -> tuple[bool, int | None]:
    """Enumerate N*(sigma, tau) mod Z^2 for N = 1, ..., lcm of the denominators, both axes each time."""
    ps, qs = rect.sigma.numerator, rect.sigma.denominator
    pt, qt = rect.tau.numerator, rect.tau.denominator
    for n in range(1, lcm(qs, qt) + 1):
        hit_x = ps > qs or 0 < (n * ps) % qs < ps
        hit_y = pt > qt or 0 < (n * pt) % qt < pt
        if hit_x and hit_y:
            return False, n
    return True, None
