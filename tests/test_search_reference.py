"""Closed-form witness searches against the reference linear scans."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import floorcomm._kernels as _kernels
from conftest import positive_grid, signed_grid
from floorcomm.beatty import disjointness_witness
from floorcomm.classify import NegHyperbola, NegSporadic, PositiveLinear, negative_witness, positive_witness
from reference_search import (
    reference_disjointness_witness,
    reference_negative_witness,
    reference_positive_witness,
)


def test_closed_forms_match_reference_scans_on_grid():
    grid = signed_grid(12, 12)
    compared = 0
    for alpha in grid:
        for beta in grid:
            if alpha > 0 and beta > 0:
                assert positive_witness(alpha, beta) == reference_positive_witness(alpha, beta), (alpha, beta)
            elif alpha < 0 and beta < 0:
                assert negative_witness(alpha, beta) == reference_negative_witness(alpha, beta), (alpha, beta)
            else:
                continue
            compared += 1
    assert compared == 16562


def test_disjointness_witness_matches_reference_scan():
    grid = positive_grid(12, 12)
    assert len(grid) ** 2 == 8281
    for u in grid:
        for v in grid:
            assert disjointness_witness(u, v) == reference_disjointness_witness(u, v), (u, v)
    for u in range(1, 7):
        for v in range(1, 7):
            assert disjointness_witness(u, v) == reference_disjointness_witness(Fraction(u), Fraction(v))


beatty_params = st.one_of(
    st.builds(Fraction, st.integers(1, 10**3), st.integers(1, 10**3)),
    st.integers(1, 10**3),
)


@settings(max_examples=300)
@given(beatty_params, beatty_params)
def test_disjointness_witness_matches_reference_scan_at_larger_parts(u, v):
    assert disjointness_witness(u, v) == reference_disjointness_witness(Fraction(u), Fraction(v))


@st.composite
def sporadic_band_pairs(draw):
    """(alpha, beta) with alpha = -q/p, p, q <= 40, and beta inside (-2/p, -1/p).

    Half the draws put beta on the sporadic formula, so that members are
    common; the other half spread beta over the band.
    """
    p = draw(st.integers(1, 40))
    q = draw(st.integers(1, 40))
    assume(gcd(p, q) == 1)
    if draw(st.booleans()):
        m = draw(st.integers(0, p - 1))
        n = draw(st.integers(1, q))
        r = draw(st.integers(2, 12))
        share = Fraction(m, p) + Fraction(n, q)
        assume(share < 1)
        beta = -Fraction(1, p) / (1 + (share - 1) / r)
    else:
        den = draw(st.integers(2, 400))
        beta = -Fraction(1, p) * (1 + Fraction(draw(st.integers(1, den - 1)), den))
    return Fraction(-q, p), beta


@given(sporadic_band_pairs())
def test_sporadic_band_matches_reference_scan(pair):
    alpha, beta = pair
    assert Fraction(-2, alpha.denominator) < beta < Fraction(-1, alpha.denominator)
    assert negative_witness(alpha, beta) == reference_negative_witness(alpha, beta)


BIG = 10**18


def test_positive_line_member_at_large_m():
    # on m*alpha*beta + alpha = beta at m = BIG; d > BIG makes it the least m
    a, d = 3, BIG + 1
    assert positive_witness(Fraction(a, a * BIG + d), Fraction(a, d)) == PositiveLinear(BIG, 1)


def test_negative_hyperbola_member_at_large_m():
    # on the hyperbola at m = BIG, n = 1; b > BIG makes it the least m
    a, b = 3, BIG + 1
    assert negative_witness(Fraction(-a, b), Fraction(-a, a * BIG + b)) == NegHyperbola(BIG, 1)


def test_negative_non_member_below_band_at_large_p():
    # alpha/beta < 1 rules out the hyperbola, beta < -1/p the vertical segment,
    # and beta <= -2/p every sporadic point
    p, d = BIG + 1, BIG + 3
    alpha, beta = Fraction(-2, p), Fraction(-3, d)
    assert alpha / beta < 1 and beta <= Fraction(-2, p)
    assert negative_witness(alpha, beta) is None


def test_sporadic_exit_comes_before_the_modular_inverse(monkeypatch):
    # No m reaches t >= t_min when q = 1 or beta <= -2/p, so the search returns
    # None before it computes pow(p // G, -1, L // G).
    def no_inverse(*args):
        raise AssertionError(f"pow{args} called")

    monkeypatch.setattr(_kernels, "pow", no_inverse, raising=False)
    for p, q, c, d in [(3, 1, 5, 8), (10000019, 1, 3, 20000039), (BIG + 1, 1, 3, 2 * BIG + 3)]:
        assert d < c * p < 2 * d
        assert _kernels._sporadic(p, q, c, d) is None
    for p, q, c, d in [(5, 3, 2, 5), (BIG + 1, 2, 3, BIG + 3)]:
        assert c * p >= 2 * d
        assert _kernels._sporadic(p, q, c, d) is None


def test_sporadic_scans_only_m_that_can_reach_t_min(monkeypatch):
    # n >= 1 caps t at q*(p - m) - p, so an m past m_top cannot reach t_min:
    # scanning it changes no answer, only the cost, which is why the bound is
    # pinned by value here.
    scanned = []

    def recording_range(*args):
        scanned.append(range(*args))
        return scanned[-1]

    monkeypatch.setattr(_kernels, "range", recording_range, raising=False)
    pairs = 0
    for p in range(3, 30):
        for q in range(2, 8):
            if gcd(p, q) != 1:
                continue
            for c in range(1, 4):
                for d in range(c * p // 2 + 1, c * p):
                    if gcd(c, d) != 1:
                        continue
                    pairs += 1
                    t_min = -(-2 * q * (p * c - d) // c)
                    scanned.clear()
                    _kernels._sporadic(p, q, c, d)
                    assert all(q * (p - m) - p >= t_min for ms in scanned for m in ms), (p, q, c, d)
    assert pairs == 3126


def test_sporadic_member_at_large_p():
    # the least (m, n) lies at m = 0, so the in-band scan stops at once
    p, q = BIG + 1, 2
    beta = -Fraction(1, p) / (1 + (Fraction(1, q) - 1) / 2)
    witness = negative_witness(Fraction(-q, p), beta)
    assert isinstance(witness, NegSporadic) and witness.m == 0
    share = Fraction(witness.m, p) + Fraction(witness.n, q)
    assert beta == -Fraction(1, p) / (1 + (share - 1) / witness.r)
