"""Dilated floors, rounding functions, and the period oracle."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positive_grid, signed_grid
from floorcomm.exact import rat_floor
from floorcomm.floorfn import (
    DilationPair,
    commutator,
    dilated_floor,
    integer_rounding_check,
    lower_round,
    oracle_verify,
    rounding_order,
    upper_round,
)
from reference_search import fraction_commutator

nonzero = st.builds(
    Fraction, st.integers(-9, 9).filter(lambda n: n != 0), st.integers(1, 9)
)
points = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 40))


def test_dilated_floor_examples():
    assert dilated_floor(Fraction(1, 2), Fraction(3)) == 1
    assert dilated_floor(Fraction(-3, 2), Fraction(1, 3)) == -1
    assert dilated_floor(Fraction(0), Fraction(17, 5)) == 0


@pytest.mark.parametrize("bad", [True, False, 3.5, 3.0, "3"])
def test_dilated_floor_and_commutator_reject_float_and_bool(bad):
    pair = DilationPair(Fraction(2, 3), Fraction(1, 2))
    assert dilated_floor(2, 3) == 6 and commutator(pair, 3) == -1
    with pytest.raises(TypeError):
        dilated_floor(bad, Fraction(7, 2))
    with pytest.raises(TypeError):
        dilated_floor(Fraction(7, 2), bad)
    with pytest.raises(TypeError):
        commutator(pair, bad)


def test_commutator_examples():
    commuting = DilationPair(Fraction(1, 2), Fraction(1, 3))
    for x in (Fraction(0), Fraction(1, 6), Fraction(5), Fraction(-7, 3)):
        assert commutator(commuting, x) == 0
    assert commutator(DilationPair(Fraction(1), Fraction(-1)), Fraction(-1, 2)) == -1


def test_integer_commutator_matches_fraction_formula_on_grid():
    rng = random.Random(8)
    xs = [Fraction(rng.randint(-300, 300), rng.randint(1, 30)) for _ in range(48)] + [Fraction(0), Fraction(-1)]
    grid = signed_grid(6, 4, include_zero=True)
    for alpha in grid:
        for beta in grid:
            pair = DilationPair(alpha, beta)
            for x in xs:
                assert commutator(pair, x) == fraction_commutator(alpha, beta, x), (alpha, beta, x)
    assert commutator(DilationPair(Fraction(2, 3), Fraction(1, 2)), 3) == -1  # an int x


wide = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12))


@given(wide, wide, wide)
def test_integer_commutator_matches_fraction_formula(alpha, beta, x):
    assert commutator(DilationPair(alpha, beta), x) == fraction_commutator(alpha, beta, x)


@given(nonzero, points)
def test_commutator_vanishes_on_diagonal(alpha, x):
    assert commutator(DilationPair(alpha, alpha), x) == 0


def test_lower_round_examples():
    assert lower_round(Fraction(1, 2), Fraction(7, 3)) == 2
    assert lower_round(Fraction(0), Fraction(7, 3)) == Fraction(7, 3)
    assert lower_round(Fraction(-1), Fraction(7, 3)) == 3


def test_upper_round_examples():
    assert upper_round(Fraction(2, 3), Fraction(1)) == Fraction(4, 3)
    assert upper_round(Fraction(2), Fraction(1)) == 2
    assert upper_round(Fraction(1), Fraction(7, 3)) == 3


def test_rounding_functions_take_int_and_reject_float_and_bool():
    assert lower_round(2, 3) == 2 and isinstance(lower_round(2, 3), Fraction)
    assert lower_round(0, 3) == 3 and isinstance(lower_round(0, 3), Fraction)
    assert upper_round(2, 3) == 4
    assert rounding_order(2, 3) is False and rounding_order(6, 3) is True
    assert integer_rounding_check(2, 3) == integer_rounding_check(Fraction(2), Fraction(3))
    for fn in (lower_round, upper_round, rounding_order, integer_rounding_check):
        for first, second in [(0.5, 1), (1, 1.5), (True, 1), (1, False)]:
            with pytest.raises(TypeError):
                fn(first, second)


def test_upper_round_rejects_zero():
    with pytest.raises(ValueError):
        upper_round(Fraction(0), Fraction(1))


@given(nonzero, points)
def test_upper_round_is_conjugate_lower_round(alpha, x):
    assert upper_round(alpha, x) == lower_round(-alpha, x)


@given(nonzero, nonzero, points)
def test_separated_variables_identity(alpha, beta, x):
    pair = DilationPair(alpha, beta)
    lhs = commutator(pair, x / (alpha * beta))
    rhs = rat_floor(lower_round(alpha, x)) - rat_floor(lower_round(beta, x))
    assert lhs == rhs


def test_oracle_member_examples():
    assert oracle_verify(DilationPair(Fraction(1, 3), Fraction(1, 2))).min_value == 0
    assert oracle_verify(DilationPair(Fraction(-1), Fraction(1))).min_value >= 0


def test_oracle_rejection_example():
    report = oracle_verify(DilationPair(Fraction(2, 3), Fraction(1, 2)))
    assert report.min_value == -1
    assert report.argmin == 3
    assert not report.member


def test_oracle_zero_dilation_short_circuit():
    for pair in (DilationPair(Fraction(0), Fraction(17, 5)), DilationPair(Fraction(-3), Fraction(0))):
        report = oracle_verify(pair)
        assert (report.min_value, report.period, report.breakpoints_checked) == (0, 1, 0)
        for x in (Fraction(0), Fraction(-7, 3), Fraction(11, 4)):
            assert commutator(pair, x) == 0


@given(nonzero, nonzero, points)
@settings(max_examples=60)
def test_commutator_periodicity(alpha, beta, x):
    pair = DilationPair(alpha, beta)
    period = alpha.denominator * beta.denominator
    assert commutator(pair, x + period) == commutator(pair, x)


def _breakpoints(pair: DilationPair) -> list[Fraction]:
    alpha, beta = pair.alpha, pair.beta
    period = alpha.denominator * beta.denominator
    step_a, step_b = 1 / abs(alpha), 1 / abs(beta)
    pts = {k * step_a for k in range(int(period / step_a) + 1)}
    pts |= {k * step_b for k in range(int(period / step_b) + 1)}
    return sorted(pts)


@given(nonzero, nonzero)
@settings(max_examples=40)
def test_commutator_piecewise_constant(alpha, beta):
    pair = DilationPair(alpha, beta)
    pts = _breakpoints(pair)
    for lo, hi in zip(pts, pts[1:]):
        first = commutator(pair, lo + (hi - lo) / 3)
        second = commutator(pair, lo + 2 * (hi - lo) / 3)
        assert first == second


def test_commutator_vanishes_where_the_progressions_meet():
    # on lcm(b/|a|, d/|c|)*Z both alpha*x and beta*x are integers, so both
    # compositions are alpha*beta*x: the oracle samples no meet point
    grid = signed_grid(8, 8)
    for alpha in grid:
        for beta in grid:
            meet = Fraction(lcm(alpha.denominator, beta.denominator), gcd(alpha.numerator, beta.numerator))
            assert (alpha * meet).denominator == (beta * meet).denominator == 1
            pair = DilationPair(alpha, beta)
            for t in range(-3, 4):
                assert commutator(pair, t * meet) == 0, (alpha, beta, t)


def test_oracle_argmin_attains_min_on_grid():
    for alpha in positive_grid(4, 3):
        for beta in [v for v in positive_grid(4, 3)] + [-v for v in positive_grid(4, 3)]:
            pair = DilationPair(alpha, beta)
            report = oracle_verify(pair)
            assert commutator(pair, report.argmin) == report.min_value
            assert 0 <= report.argmin < report.period
            assert report.samples_checked == 2 * report.breakpoints_checked


@pytest.mark.parametrize(
    "alpha, beta",
    [(Fraction(2, 3), Fraction(1, 2)), (Fraction(3), Fraction(2)), (Fraction(1, 3), Fraction(1, 2))],
)
def test_oracle_vs_dense_sampling(alpha, beta):
    pair = DilationPair(alpha, beta)
    report = oracle_verify(pair)
    period = alpha.denominator * beta.denominator
    rng = random.Random(20250810)
    sampled = min(
        commutator(pair, Fraction(rng.randrange(0, period * 720), 720)) for _ in range(10_000)
    )
    assert sampled >= report.min_value
    # the minimum is attained on an interval for these pairs, so dense
    # sampling must find it
    assert sampled == report.min_value


def test_integer_rounding_check_examples():
    assert integer_rounding_check(Fraction(2, 3), Fraction(2)) == (True, None)
    assert integer_rounding_check(Fraction(2, 3), Fraction(1, 2)) == (False, 1)
    assert integer_rounding_check(Fraction(7, 5), Fraction(7, 5)) == (True, None)


def test_integer_rounding_check_rejects_nonpositive():
    with pytest.raises(ValueError):
        integer_rounding_check(Fraction(-1, 2), Fraction(2))
    with pytest.raises(ValueError):
        integer_rounding_check(Fraction(1, 2), Fraction(0))


def _least_rounding_violation(alpha: Fraction, beta: Fraction) -> int | None:
    # both upper roundings shift by their numerators as n does, so one lcm of
    # the numerators is a full period
    for n in range(lcm(alpha.numerator, beta.numerator)):
        if upper_round(alpha, n) > upper_round(beta, n):
            return n
    return None


def test_rounding_check_counterexample_is_least():
    grid = positive_grid(8, 8)
    verdicts = set()
    for alpha in grid:
        for beta in grid:
            least = _least_rounding_violation(alpha, beta)
            expected = (True, None) if least is None else (False, least)
            assert integer_rounding_check(alpha, beta) == expected, (alpha, beta)
            verdicts.add(expected[0])
    assert verdicts == {True, False}
    assert integer_rounding_check(Fraction(5, 3), Fraction(7, 2)) == (False, 7)


def test_rounding_check_matches_oracle_on_grid():
    grid = positive_grid(6, 6)
    for alpha in grid:
        for beta in grid:
            holds, _ = integer_rounding_check(alpha, beta)
            assert holds == oracle_verify(DilationPair(alpha, beta)).member, (alpha, beta)


def test_rounding_order_examples():
    assert rounding_order(Fraction(3, 2), Fraction(1, 2))
    assert not rounding_order(Fraction(1, 2), Fraction(3, 2))
    assert rounding_order(Fraction(7, 5), Fraction(7, 5))


def test_rounding_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        rounding_order(Fraction(0), Fraction(1))


def _lower_rounds_ordered_bruteforce(alpha: Fraction, beta: Fraction) -> bool:
    # the two step functions jump on alpha*Z u beta*Z and the comparison is
    # periodic with period num(alpha)*num(beta)
    period = Fraction(alpha.numerator * beta.numerator)
    pts = {k * alpha for k in range(int(period / alpha) + 1)}
    pts |= {k * beta for k in range(int(period / beta) + 1)}
    ordered = sorted(pts)
    for lo, hi in zip(ordered, ordered[1:]):
        for x in (lo, (lo + hi) / 2):
            if lower_round(alpha, x) > lower_round(beta, x):
                return False
    return True


def test_rounding_order_matches_bruteforce_on_grid():
    grid = positive_grid(4, 4)
    for alpha in grid:
        for beta in grid:
            assert rounding_order(alpha, beta) == _lower_rounds_ordered_bruteforce(alpha, beta)
