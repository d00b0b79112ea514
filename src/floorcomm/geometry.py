"""Avoidance geometry: the enlarged diagonal and the torus corner rectangle.

Two finite deciders live here.  The first asks whether the rectangular
lattice mu*Z x nu*Z avoids the union of open unit squares along the diagonal;
a lattice point in a diagonal square means its common floor value is shared
by both reduced Beatty sets, so the scan window of the beatty module decides.
The second asks whether the cyclic subgroup of the torus R^2/Z^2 generated by
(sigma, tau) avoids the open corner box (0, sigma) x (0, tau) projected to
the torus; for rational parameters the subgroup is finite, of order
lcm(den(sigma), den(tau)), and is enumerated outright.

Points and arc lengths are ints or Fractions; float and bool raise TypeError.
"""

from __future__ import annotations

from math import lcm

from .beatty import _least_common_reduced
from .classify import MuNu, SigmaTau
from .exact import Rat, as_rat, positive_rat, rat_floor, require_type


# the lattice spacings are the (mu, nu) coordinates and the corner box sides
# the (sigma, tau) coordinates of the classifier, with the same validation
LatticeParams = MuNu
CornerRect = SigmaTau


def in_enlarged_diagonal(x: Rat | int, y: Rat | int) -> bool:
    """True iff (x, y) lies in some open unit square (n, n+1) x (n, n+1)."""
    x, y = as_rat(x), as_rat(y)
    return x.denominator != 1 and y.denominator != 1 and rat_floor(x) == rat_floor(y)


def lattice_diag_disjoint(params: LatticeParams) -> tuple[bool, tuple[int, int] | None]:
    """Does mu*Z x nu*Z avoid the enlarged diagonal?

    A hit at floor value m means m is in both reduced Beatty sets, so the
    window [0, lcm(num(mu), num(nu))) is exhaustive.  On failure returns
    lattice indices (k, l) with (k*mu, l*nu) inside a diagonal square.
    """
    if type(params) is not MuNu:
        require_type(params, MuNu)
    mu, nu = params.mu, params.nu
    m = _least_common_reduced(mu, nu)
    if m is None:
        return True, None
    a, b = mu.as_integer_ratio()
    c, d = nu.as_integer_ratio()
    k = (m * b) // a + 1  # least k with k*mu > m
    ell = (m * d) // c + 1
    return False, (k, ell)


def frac_part(x: Rat | int) -> Rat:
    """Canonical representative of x mod 1, in [0, 1)."""
    x = as_rat(x)
    return x - rat_floor(x)


def circle_arc_contains(x: Rat | int, sigma: Rat | int) -> bool:
    """Per-axis factor of the torus test: is x mod 1 inside the arc (0, sigma)?

    For sigma > 1 the projected arc wraps and covers the whole circle; for
    sigma = 1 it is the circle minus the single point 0.
    """
    x, sigma = as_rat(x), positive_rat(sigma, "arc length must be positive")
    if sigma > 1:
        return True
    return 0 < frac_part(x) < sigma


def torus_point_in_corner(x: Rat | int, y: Rat | int, rect: CornerRect) -> bool:
    """True iff (x, y) mod Z^2 lies in the projected open corner rectangle."""
    require_type(rect, SigmaTau)
    x, y = as_rat(x), as_rat(y)
    return circle_arc_contains(x, rect.sigma) and circle_arc_contains(y, rect.tau)


def torus_subgroup_avoids(rect: CornerRect) -> tuple[bool, int | None]:
    """Does the cyclic torus subgroup generated by (sigma, tau) avoid the box?

    The subgroup has exactly lcm(den(sigma), den(tau)) elements, enumerated
    as N*(sigma, tau) mod Z^2 for N = 1, ..., lcm (N = lcm is the identity).
    On failure returns the least hitting N >= 1.  The projected box contains
    the identity only when both sides exceed 1, and then N = 1 already hits.
    """
    if type(rect) is not SigmaTau:
        require_type(rect, SigmaTau)
    ps, qs = rect.sigma.as_integer_ratio()
    pt, qt = rect.tau.as_integer_ratio()
    wrap_x, wrap_y = ps > qs, pt > qt  # a side above 1 covers its whole circle
    for n in range(1, lcm(qs, qt) + 1):
        # frac(n*sigma) < sigma reduces to (n*ps mod qs) < ps when sigma <= 1
        if (wrap_x or 0 < n * ps % qs < ps) and (wrap_y or 0 < n * pt % qt < pt):
            return False, n
    return True, None
