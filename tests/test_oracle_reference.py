"""The streaming period oracle against the materialised reference oracle."""

import tracemalloc
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import signed_grid
from floorcomm.floorfn import DilationPair, oracle_verify
from reference_oracle import reference_oracle_verify


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
