"""Beatty sequence membership and reduced-sequence disjointness."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import positive_grid
from floorcomm.beatty import (
    beatty_contains,
    beatty_pos_contains,
    reduced_contains,
    reduced_disjoint,
    disjointness_witness,
)
from floorcomm.classify import is_member
from floorcomm.exact import rat_floor
from floorcomm.floorfn import DilationPair

positive_rationals = st.builds(Fraction, st.integers(1, 30), st.integers(1, 12))


def test_pos_contains_examples():
    assert beatty_pos_contains(Fraction(5, 2), 2)
    assert not beatty_pos_contains(Fraction(5, 2), 3)
    for k in range(1, 20):
        assert beatty_pos_contains(Fraction(1), k)
    assert not beatty_pos_contains(Fraction(5, 2), -1)


def test_reduced_contains_examples():
    assert reduced_contains(Fraction(5, 2), 2)
    for m in range(-6, 7):
        assert not reduced_contains(Fraction(3), m)
    assert reduced_contains(Fraction(2, 3), -4)


def test_reduced_contains_small_parameter_is_all_of_z():
    for m in range(-10, 11):
        assert reduced_contains(Fraction(2, 3), m)


@given(positive_rationals, st.integers(-40, 40))
def test_membership_agrees_with_enumeration(u, m):
    lo = rat_floor(Fraction(m) / u) - 2
    hi = rat_floor(Fraction(m + 1) / u) + 2
    multiples = [(n, n * u) for n in range(lo, hi + 1)]
    assert beatty_pos_contains(u, m) == any(
        n >= 1 and rat_floor(x) == m for n, x in multiples
    )
    assert beatty_contains(u, m) == any(rat_floor(x) == m for _, x in multiples)
    assert reduced_contains(u, m) == any(
        x.denominator != 1 and rat_floor(x) == m for _, x in multiples
    )


@given(positive_rationals, st.integers(-40, 40))
def test_reduced_membership_is_periodic_mod_numerator(u, m):
    assert reduced_contains(u, m) == reduced_contains(u, m + u.numerator)


def test_disjointness_witness_examples():
    assert disjointness_witness(Fraction(5, 2), Fraction(5, 3)) == (1, 1)
    assert disjointness_witness(Fraction(5, 2), Fraction(7, 3)) is None
    # an integer u always has a witness; smallest-m tie-break decides which
    assert disjointness_witness(Fraction(3), Fraction(7, 3)) == (3, 0)
    assert disjointness_witness(Fraction(3), Fraction(3)) == (0, 3)
    assert disjointness_witness(Fraction(3), Fraction(7, 2)) is not None


def test_disjointness_witness_satisfies_equation():
    for u in positive_grid(8, 5):
        for v in positive_grid(8, 5):
            witness = disjointness_witness(u, v)
            if witness is not None:
                m, n = witness
                assert m >= 0 and n >= 0 and (m, n) != (0, 0)
                assert Fraction(m) / u + Fraction(n) / v == 1


def test_reduced_disjoint_examples():
    assert reduced_disjoint(Fraction(5, 2), Fraction(5, 3))
    assert not reduced_disjoint(Fraction(5, 2), Fraction(7, 3))
    assert reduced_disjoint(Fraction(3), Fraction(7, 2))


def test_int_parameters_work_and_float_and_bool_are_rejected():
    assert disjointness_witness(2, 3) == (0, 3)
    assert disjointness_witness(3, Fraction(7, 3)) == (3, 0)
    assert reduced_disjoint(2, 3) and reduced_disjoint(Fraction(5, 2), 3)
    assert beatty_pos_contains(2, 4) and beatty_contains(2, -4) and not reduced_contains(2, 4)
    for first, second in [(2.5, Fraction(3)), (Fraction(5, 2), 3.0), (True, Fraction(3)), (2, False)]:
        for fn in (disjointness_witness, reduced_disjoint):
            with pytest.raises(TypeError):
                fn(first, second)
    for fn in (beatty_pos_contains, beatty_contains, reduced_contains):
        for bad in (2.5, True):
            with pytest.raises(TypeError):
                fn(bad, 1)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", Fraction(2)])
def test_membership_index_must_be_int(bad):
    for fn in (beatty_pos_contains, beatty_contains, reduced_contains):
        assert isinstance(fn(Fraction(5, 2), 2), bool)
        with pytest.raises(TypeError, match="m must be an int"):
            fn(Fraction(5, 2), bad)


def test_reduced_disjoint_rejects_nonpositive():
    with pytest.raises(ValueError):
        reduced_disjoint(Fraction(0), Fraction(1, 2))


def test_criterion_equivalence_on_grid():
    grid = positive_grid(8, 8)
    for u in grid:
        for v in grid:
            assert (disjointness_witness(u, v) is not None) == reduced_disjoint(u, v), (u, v)


def test_reduced_disjoint_is_symmetric():
    grid = positive_grid(7, 5)
    for u in grid:
        for v in grid:
            assert reduced_disjoint(u, v) == reduced_disjoint(v, u)


def test_membership_bridge_to_classifier():
    grid = positive_grid(6, 5)
    for alpha in grid:
        for beta in grid:
            member = is_member(DilationPair(alpha, beta))
            assert member == reduced_disjoint(1 / alpha, beta / alpha), (alpha, beta)


def test_sequence_inclusions_on_window():
    for u in (Fraction(5, 2), Fraction(7, 3), Fraction(13, 5), Fraction(4)):
        for m in range(-20, 31):
            if beatty_pos_contains(u, m):
                assert beatty_contains(u, m)
            if reduced_contains(u, m):
                assert beatty_contains(u, m)


def test_rational_complementary_parameters_break_both_partition_halves():
    # For irrational u, v with 1/u + 1/v = 1 the two positive Beatty sequences
    # partition N+.  Rational parameters break BOTH halves: the sequences
    # intersect, and they also leave integers uncovered.
    for u in (Fraction(5, 2), Fraction(3, 2), Fraction(4, 3), Fraction(7, 4)):
        v = u / (u - 1)
        assert Fraction(1) / u + Fraction(1) / v == 1
        window = range(1, 1001)
        common = [m for m in window if beatty_pos_contains(u, m) and beatty_pos_contains(v, m)]
        uncovered = [
            m for m in window if not beatty_pos_contains(u, m) and not beatty_pos_contains(v, m)
        ]
        assert common, (u, v)
        assert uncovered, (u, v)
