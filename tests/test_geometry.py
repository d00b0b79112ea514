"""Enlarged-diagonal lattice avoidance and torus corner-rectangle avoidance."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import positive_grid
from floorcomm.classify import is_member
from floorcomm.floorfn import DilationPair, oracle_verify
from floorcomm.beatty import reduced_disjoint
from floorcomm.geometry import (
    CornerRect,
    LatticeParams,
    circle_arc_contains,
    frac_part,
    in_enlarged_diagonal,
    lattice_diag_disjoint,
    torus_point_in_corner,
    torus_subgroup_avoids,
)

rationals = st.builds(Fraction, st.integers(-120, 120), st.integers(1, 24))


def test_enlarged_diagonal_examples():
    assert in_enlarged_diagonal(Fraction(1, 2), Fraction(3, 4))
    assert not in_enlarged_diagonal(Fraction(1, 2), Fraction(3, 2))
    # no point of the region has an integer coordinate
    assert not in_enlarged_diagonal(Fraction(1), Fraction(1, 2))


@given(rationals, rationals)
def test_enlarged_diagonal_symmetries(x, y):
    assert in_enlarged_diagonal(x, y) == in_enlarged_diagonal(y, x)
    assert in_enlarged_diagonal(x, y) == in_enlarged_diagonal(-x, -y)


def test_lattice_disjoint_examples():
    assert lattice_diag_disjoint(LatticeParams(Fraction(5, 2), Fraction(5, 3))) == (True, None)
    ok, witness = lattice_diag_disjoint(LatticeParams(Fraction(5, 2), Fraction(7, 3)))
    assert not ok and witness is not None
    k, ell = witness
    assert in_enlarged_diagonal(k * Fraction(5, 2), ell * Fraction(7, 3))
    for nu in (Fraction(1, 3), Fraction(7, 5), Fraction(9)):
        assert lattice_diag_disjoint(LatticeParams(Fraction(2), nu))[0]


def test_lattice_params_validation():
    with pytest.raises(ValueError):
        LatticeParams(Fraction(0), Fraction(1))


def test_geometry_params_store_int_and_reject_float_and_bool():
    assert LatticeParams(2, 3) == LatticeParams(Fraction(2), Fraction(3))
    assert CornerRect(2, 3) == CornerRect(Fraction(2), Fraction(3))
    for params in (LatticeParams(2, Fraction(1, 3)), CornerRect(Fraction(1, 3), 2)):
        assert all(type(value) is Fraction for value in vars(params).values())
    assert torus_subgroup_avoids(CornerRect(2, 3)) == (False, 1)
    for first, second in [(0.5, Fraction(3, 2)), (Fraction(1, 2), 1.5), (True, 2), (2, False)]:
        for make in (LatticeParams, CornerRect):
            with pytest.raises(TypeError):
                make(first, second)


def test_complementary_hyperbola_always_disjoint():
    # mu > 1 rational with nu = mu/(mu - 1); both capped at 20
    seen = 0
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            mu = Fraction(p, q)
            nu = mu / (mu - 1)
            if mu > 20 or nu > 20:
                continue
            seen += 1
            assert lattice_diag_disjoint(LatticeParams(mu, nu))[0], (mu, nu)
    assert seen > 100


def test_lattice_disjointness_symmetric_in_spacings():
    grid = positive_grid(6, 4)
    for mu in grid:
        for nu in grid:
            assert (
                lattice_diag_disjoint(LatticeParams(mu, nu))[0]
                == lattice_diag_disjoint(LatticeParams(nu, mu))[0]
            )


def test_lattice_criteria_agree_on_grid():
    grid = positive_grid(6, 5)
    for mu in grid:
        for nu in grid:
            p1 = is_member(DilationPair(1 / mu, nu / mu))
            p2 = lattice_diag_disjoint(LatticeParams(mu, nu))[0]
            p3 = reduced_disjoint(mu, nu)
            assert p1 == p2 == p3, (mu, nu)


def test_circle_arc_examples():
    assert not circle_arc_contains(Fraction(4, 9), Fraction(4, 9))
    assert circle_arc_contains(Fraction(1, 9), Fraction(4, 9))
    for x in (Fraction(0), Fraction(1, 2), Fraction(17, 6)):
        assert circle_arc_contains(x, Fraction(6, 5))
    # unit arc is the circle minus one point
    assert not circle_arc_contains(Fraction(3), Fraction(1))
    assert circle_arc_contains(Fraction(7, 2), Fraction(1))


def test_torus_point_in_corner():
    rect = CornerRect(Fraction(4, 9), Fraction(1, 3))
    assert torus_point_in_corner(Fraction(2, 9), Fraction(1, 6), rect)
    assert not torus_point_in_corner(Fraction(4, 9), Fraction(1, 6), rect)
    assert torus_point_in_corner(Fraction(11, 9), Fraction(7, 6), rect)  # mod 1


RECT = CornerRect(Fraction(4, 9), Fraction(1, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda x: in_enlarged_diagonal(x, Fraction(1, 2)),
        lambda y: in_enlarged_diagonal(Fraction(1, 2), y),
        frac_part,
        lambda x: circle_arc_contains(x, Fraction(1, 3)),
        lambda sigma: circle_arc_contains(Fraction(1, 3), sigma),
        lambda x: torus_point_in_corner(x, Fraction(1, 6), RECT),
        lambda y: torus_point_in_corner(Fraction(2, 9), y, RECT),
    ],
    ids=["diagonal_x", "diagonal_y", "frac_part", "arc_x", "arc_sigma", "corner_x", "corner_y"],
)
def test_point_functions_reject_float_and_bool(call):
    for bad in (0.5, True, False, "1/2"):
        with pytest.raises(TypeError):
            call(bad)


def test_point_functions_take_int():
    assert not in_enlarged_diagonal(1, Fraction(3, 2))
    assert frac_part(3) == 0 and type(frac_part(3)) is Fraction
    assert circle_arc_contains(Fraction(7, 2), 1) and not circle_arc_contains(3, 1)
    assert torus_point_in_corner(1, 1, CornerRect(2, 2)) and not torus_point_in_corner(1, 1, RECT)


@given(rationals)
def test_frac_part_is_canonical(x):
    f = frac_part(x)
    assert 0 <= f < 1
    assert (x - f).denominator == 1


def test_torus_avoidance_examples():
    assert torus_subgroup_avoids(CornerRect(Fraction(2, 9), Fraction(1, 6))) == (True, None)
    ok, witness = torus_subgroup_avoids(CornerRect(Fraction(3, 7), Fraction(5, 7)))
    assert not ok
    # least hitting multiple; matches the constructive multiple
    # N = m0*(s - n) + n0*m built from 15 - 7 = 1*3 + 1*5 and 1 = 2*3 - 1*5
    assert witness == 3
    rect = CornerRect(Fraction(3, 7), Fraction(5, 7))
    assert torus_point_in_corner(witness * Fraction(3, 7), witness * Fraction(5, 7), rect)


def test_torus_witness_when_box_covers_torus():
    # both sides above 1: the projected box is the whole torus, and the least
    # hitting N >= 1 is 1, also when the subgroup is trivial (lcm = 1)
    for sigma, tau in [(Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(5, 4))]:
        assert torus_subgroup_avoids(CornerRect(sigma, tau)) == (False, 1)


def test_torus_avoidance_finite_subgroup_misses_open_box():
    # (4/9, 1/3) generates an order-9 subgroup whose y-coordinates are
    # multiples of 1/3, never inside (0, 1/3); the pair is a member, so this
    # agrees with the membership criterion.  (Acceptance gate 8 pins the
    # opposite value; see that module's docstring.)
    assert torus_subgroup_avoids(CornerRect(Fraction(4, 9), Fraction(1, 3))) == (True, None)
    assert is_member(DilationPair(Fraction(4, 9), Fraction(4, 3)))
    assert oracle_verify(DilationPair(Fraction(4, 9), Fraction(4, 3))).member


def test_torus_witness_is_least():
    for sigma, tau in [(Fraction(3, 7), Fraction(5, 7)), (Fraction(5, 8), Fraction(3, 8))]:
        rect = CornerRect(sigma, tau)
        ok, witness = torus_subgroup_avoids(rect)
        if ok:
            continue
        for n in range(witness):
            assert not torus_point_in_corner(n * sigma, n * tau, rect)
        assert torus_point_in_corner(witness * sigma, witness * tau, rect)


def test_torus_criterion_agrees_with_classifier_on_grid():
    grid = positive_grid(6, 5)
    for sigma in grid:
        for tau in grid:
            q1 = is_member(DilationPair(sigma, sigma / tau))
            q2 = torus_subgroup_avoids(CornerRect(sigma, tau))[0]
            assert q1 == q2, (sigma, tau)


def test_corner_rect_validation():
    with pytest.raises(ValueError):
        CornerRect(Fraction(1), Fraction(-1))
    with pytest.raises(ValueError):
        circle_arc_contains(Fraction(1, 2), Fraction(0))
