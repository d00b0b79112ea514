"""How the decision path's cost grows with bit length, pinned by value.

Every ``range`` that ``_kernels`` creates is recorded while ``_decide._witness``
and ``_counterexample`` decide a pair built from a family's definition, at
denominators from 10^3 to 10^36.  The closed forms create no range at all, so
a fall back to a scan fails here by value, not by a timeout; the two linear
scans left (the sporadic band and the same-sign certificate) are held to their
present bounds.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

import floorcomm._kernels as _kernels
from floorcomm._decide import _counterexample, _witness

SIZES = [10**3, 10**6, 10**9, 10**18, 10**36]


@pytest.fixture
def ranges(monkeypatch):
    """The list of every range that ``_kernels`` creates from here on."""
    created = []

    def recording_range(*args):
        created.append(range(*args))
        return created[-1]

    monkeypatch.setattr(_kernels, "range", recording_range, raising=False)
    return created


def parts(alpha: Fraction, beta: Fraction) -> tuple[int, int, int, int]:
    return alpha.numerator, alpha.denominator, beta.numerator, beta.denominator


def decide(alpha: Fraction, beta: Fraction, created: list[range]) -> tuple[str | None, list[range], list[range]]:
    """The witness kind (None for a non-member), then the ranges of the witness search and of the certificate."""
    created.clear()
    witness = _witness(*parts(alpha, beta))
    searched = created[:]
    created.clear()
    if witness is None:
        _counterexample(*parts(alpha, beta))
    return None if witness is None else witness[0], searched, created[:]


def steps(scan: range) -> int:
    """len(scan) for a range with a positive step, also past sys.maxsize."""
    return max(0, -(-(scan.stop - scan.start) // scan.step))


def closed_form_points(size: int) -> dict[str | None, tuple[Fraction, Fraction]]:
    """One pair per family that decides in closed form, from the family's definition, denominators about ``size``."""
    m, n = 5, 7
    p = size + 1  # 10^k + 1 is odd and 2 mod 3
    alpha = Fraction(2, p)
    return {
        "positive_linear": (alpha, n * alpha / (1 - m * alpha)),
        "neg_hyperbola": (-alpha, -alpha / (n + m * alpha)),
        # -1/p <= beta < 0, and 2*(m*3 + n*p) = (2*p + 1)*3 has no solution, so no hyperbola point
        "neg_vertical": (Fraction(-3, p), Fraction(-2, 2 * p + 1)),
        # alpha > 0 > beta: the certificate's closed form
        None: (alpha, Fraction(-3, size + 7)),
    }


@pytest.mark.parametrize("size", SIZES)
def test_closed_form_families_create_no_range(size, ranges):
    for kind, (alpha, beta) in closed_form_points(size).items():
        assert decide(alpha, beta, ranges) == (kind, [], []), (alpha, beta)


def same_sign_non_members(size: int) -> list[tuple[Fraction, Fraction]]:
    """Same-sign non-members with numerators below 50 and denominators about ``size``."""
    p = size + 1
    return [
        (Fraction(3, p), Fraction(7, size + 3)),  # 21*m + 3*(size + 3)*n = 7*p has no solution mod 3
        (Fraction(-2, p), Fraction(-3, p)),  # beta <= -2/p: _sporadic's early exit
        (Fraction(-47, p), Fraction(-45, p)),  # the same
        (Fraction(-1, p), Fraction(-2, 2 * p - 1)),  # q = 1 in the band -2/p < beta < -1/p: the same
    ]


@pytest.mark.parametrize("size", SIZES)
def test_same_sign_certificate_scans_at_most_the_numerators_lcm(size, ranges):
    for alpha, beta in same_sign_non_members(size):
        kind, searched, certified = decide(alpha, beta, ranges)
        assert (kind, searched, len(certified)) == (None, [], 1), (alpha, beta)
        assert steps(certified[0]) <= lcm(alpha.numerator, beta.numerator), (alpha, beta)


def in_band_sporadic_points(size: int) -> list[tuple[Fraction, Fraction]]:
    """Sporadic members beta = -(1/p) / (1 + (m/p + n/q - 1)/r) with -2/p < beta < -1/p, p about ``size``."""
    p = size + 1
    points = []
    for q, m, n, r in [(2, 0, 1, 2), (3, 1, 1, 2), (3, 0, 2, 5)]:
        beta = -Fraction(1, p) / (1 + (Fraction(m, p) + Fraction(n, q) - 1) / r)
        assert -Fraction(2, p) < beta < -Fraction(1, p)
        points.append((Fraction(-q, p), beta))
    return points


@pytest.mark.parametrize("size", SIZES)
def test_in_band_sporadic_scan_is_at_most_m_top_over_g_steps(size, ranges):
    for alpha, beta in in_band_sporadic_points(size):
        kind, searched, _ = decide(alpha, beta, ranges)
        assert (kind, len(searched)) == ("neg_sporadic", 1), (alpha, beta)
        q, p, c, d = -alpha.numerator, alpha.denominator, -beta.numerator, beta.denominator
        qk = q * (p * c - d)
        t_min = -(-2 * qk // c)
        m_top = (p * (q - 1) - t_min) // q
        g = gcd(p, qk // gcd(qk, c))
        assert steps(searched[0]) <= m_top // g + 1, (alpha, beta)
