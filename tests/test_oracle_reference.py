"""The period oracle against the reference oracles: the materialised sets and the merged walk.

``reference_oracle_verify`` holds every breakpoint, so it checks small
periods only; ``reference_walk_verify`` takes O(1) memory and checks periods
of up to 10^6 points, where the oracle walks far fewer gaps than it does.
"""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import signed_grid
from floorcomm.floorfn import DilationPair, commutator, oracle_verify
from reference_oracle import reference_oracle_verify, reference_walk_verify

SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def breakpoint_count(alpha: Fraction, beta: Fraction) -> int:
    """Points of (1/alpha)Z u (1/beta)Z in one period [0, den(alpha)*den(beta)).

    The alpha progression has |num(alpha)|*den(beta) points there, the beta
    progression |num(beta)|*den(alpha), and they share the gcd of the two.
    """
    on_a = abs(alpha.numerator) * beta.denominator
    on_b = abs(beta.numerator) * alpha.denominator
    return on_a + on_b - gcd(on_a, on_b)


def test_streaming_oracle_matches_reference_on_grid():
    grid = signed_grid(10, 10, include_zero=True)
    for alpha in grid:
        for beta in grid:
            pair = DilationPair(alpha, beta)
            report = oracle_verify(pair)
            assert report == reference_oracle_verify(pair), (alpha, beta)
            assert report.breakpoints_checked == breakpoint_count(alpha, beta), (alpha, beta)
    assert len(grid) ** 2 == 16129


signed_rationals = st.builds(
    Fraction, st.integers(-300, 300).filter(lambda n: n != 0), st.integers(1, 300)
)


@given(signed_rationals, signed_rationals)
@settings(max_examples=60, deadline=None)
def test_streaming_oracle_matches_reference(alpha, beta):
    assume(breakpoint_count(alpha, beta) <= 60_000)
    pair = DilationPair(alpha, beta)
    assert oracle_verify(pair) == reference_oracle_verify(pair)


def test_oracle_memory_is_constant_in_breakpoints():
    pair = DilationPair(Fraction(2, 20_011), Fraction(3, 20_003))
    assert breakpoint_count(pair.alpha, pair.beta) >= 100_000
    tracemalloc.start()
    try:
        report = oracle_verify(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.breakpoints_checked == breakpoint_count(pair.alpha, pair.beta)
    assert peak < 64 * 1024


def test_streaming_oracle_matches_reference_where_progressions_meet():
    # beta = +-k*alpha and +-alpha/k put a meet point every few breakpoints,
    # in all four sign combinations, mixed ones included
    grid = signed_grid(8, 8)
    pairs = {
        (alpha, sign * scaled)
        for alpha in grid
        for k in range(1, 7)
        for scaled in (k * alpha, alpha / k)
        for sign in (1, -1)
    }
    signs = set()
    for alpha, beta in sorted(pairs):
        pair = DilationPair(alpha, beta)
        assert oracle_verify(pair) == reference_oracle_verify(pair), (alpha, beta)
        signs.add((alpha > 0, beta > 0))
    assert len(signs) == 4


positive_rationals = st.builds(Fraction, st.integers(1, 300), st.integers(1, 300))


@given(positive_rationals, positive_rationals, st.booleans())
@settings(max_examples=60, deadline=None)
def test_streaming_oracle_matches_reference_with_one_negative_factor(alpha, beta, negate_alpha):
    if negate_alpha:
        alpha = -alpha
    else:
        beta = -beta
    assume(breakpoint_count(alpha, beta) <= 60_000)
    pair = DilationPair(alpha, beta)
    assert oracle_verify(pair) == reference_oracle_verify(pair)


@st.composite
def bounded_pairs(draw, part: int, points: int) -> tuple[Fraction, Fraction]:
    """Positive pairs with parts up to ``part`` and at most ``points`` points in each progression."""
    a, c = draw(st.integers(1, part)), draw(st.integers(1, part))
    b = draw(st.integers(1, min(part, points // c)))  # c*b beta points
    d = draw(st.integers(1, min(part, points // a)))  # a*d alpha points
    return Fraction(a, b), Fraction(c, d)


@pytest.mark.parametrize(("sign_a", "sign_b"), SIGNS)
@given(bounded_pairs(10**4, 10**5))
@settings(max_examples=15, deadline=None)
def test_oracle_matches_walk_at_large_parts(sign_a, sign_b, pair):
    alpha, beta = sign_a * pair[0], sign_b * pair[1]
    assert breakpoint_count(alpha, beta) <= 2 * 10**5
    pair = DilationPair(alpha, beta)
    assert oracle_verify(pair) == reference_walk_verify(pair)


@pytest.mark.parametrize(("sign_a", "sign_b"), SIGNS)
@given(
    sparse=st.integers(1, 4),
    dense=st.integers(1, 10**6),
    sparse_num=st.integers(1, 4),
    dense_num=st.integers(1, 10**3),
    sparse_alpha=st.booleans(),
)
@example(sparse=4, dense=10**6, sparse_num=1, dense_num=999, sparse_alpha=False)
@example(sparse=3, dense=10**6, sparse_num=3, dense_num=1000, sparse_alpha=True)
@settings(max_examples=6, deadline=None)
def test_oracle_matches_walk_when_one_progression_is_sparse(
    sign_a, sign_b, sparse, dense, sparse_num, dense_num, sparse_alpha
):
    # the sparse factor's partner denominator times its numerator is at most
    # 4: at most 4 points per period there, up to 10^6 in the other progression
    partner_den = max(1, sparse // sparse_num)
    dense_den = max(1, dense // dense_num)
    alpha, beta = Fraction(dense_num, partner_den), Fraction(sparse_num, dense_den)
    if sparse_alpha:
        alpha, beta = beta, alpha
    alpha, beta = sign_a * alpha, sign_b * beta
    sparse_points = min(abs(alpha.numerator) * beta.denominator, abs(beta.numerator) * alpha.denominator)
    assert sparse_points <= 4
    pair = DilationPair(alpha, beta)
    assert oracle_verify(pair) == reference_walk_verify(pair)


@pytest.mark.parametrize(("sign_a", "sign_b"), SIGNS)
@pytest.mark.parametrize("swap", [False, True])
def test_oracle_at_trillion_scale(sign_a, sign_b, swap):
    # 4*10^12 + 6 points in the dense progression, 3 in the sparse one
    alpha, beta = Fraction(2, 3), Fraction(1, 2 * 10**12 + 3)
    if swap:
        alpha, beta = beta, alpha
    pair = DilationPair(sign_a * alpha, sign_b * beta)
    report = oracle_verify(pair)
    assert report.breakpoints_checked == breakpoint_count(pair.alpha, pair.beta) > 4 * 10**12
    assert 0 <= report.argmin < report.period
    assert commutator(pair, report.argmin) == report.min_value
