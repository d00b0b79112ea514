"""The integer criteria deciders against the reference loops they replaced."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positive_grid
from floorcomm.beatty import disjointness_witness, reduced_disjoint
from floorcomm.classify import MuNu, SigmaTau, from_munu, from_sigmatau, is_member
from floorcomm.floorfn import DilationPair
from floorcomm.geometry import CornerRect, LatticeParams, lattice_diag_disjoint, torus_subgroup_avoids
from reference_search import (
    reference_lattice_diag_disjoint,
    reference_reduced_disjoint,
    reference_torus_subgroup_avoids,
)

# parts up to 300/40: integers (denominator 1) and values below 1 come up often
criteria_params = st.one_of(
    st.builds(Fraction, st.integers(1, 300), st.integers(1, 40)),
    st.integers(1, 300),
    st.builds(Fraction, st.integers(1, 20), st.integers(21, 40)),
)


def assert_criteria_match_reference(x, y):
    assert reduced_disjoint(x, y) == reference_reduced_disjoint(Fraction(x), Fraction(y)), (x, y)
    params = LatticeParams(x, y)
    assert lattice_diag_disjoint(params) == reference_lattice_diag_disjoint(params), (x, y)
    rect = CornerRect(x, y)
    assert torus_subgroup_avoids(rect) == reference_torus_subgroup_avoids(rect), (x, y)


def test_criteria_match_reference_loops_on_grid():
    grid = positive_grid(12, 12)
    for x in grid:
        for y in grid:
            assert_criteria_match_reference(x, y)


@settings(max_examples=200)
@given(criteria_params, criteria_params)
def test_criteria_match_reference_loops(x, y):
    assert_criteria_match_reference(x, y)


def test_criteria_are_decided_without_the_positive_line(monkeypatch):
    grid = positive_grid(6, 6)
    pairs = [(x, y) for x in grid for y in grid]
    members = [is_member(DilationPair(1 / x, y / x)) for x, y in pairs]
    tori = [is_member(DilationPair(x, x / y)) for x, y in pairs]

    def refuse(*args):
        raise RuntimeError("the positive-line kernel was called")

    for name in ("floorcomm.classify", "floorcomm.beatty"):
        monkeypatch.setattr(sys.modules[name], "_positive_line", refuse)
    with pytest.raises(RuntimeError):  # the patch is in place
        disjointness_witness(Fraction(5, 2), Fraction(5, 3))
    for (x, y), member, torus in zip(pairs, members, tori):
        assert reduced_disjoint(x, y) == member, (x, y)
        assert lattice_diag_disjoint(LatticeParams(x, y))[0] == member, (x, y)
        assert torus_subgroup_avoids(CornerRect(x, y))[0] == torus, (x, y)


big_params = st.one_of(
    st.builds(Fraction, st.integers(1, 10**18), st.integers(1, 10**18)),
    st.integers(1, 10**18),
)


@given(big_params, big_params)
def test_coordinate_maps_match_fraction_operators(x, y):
    x, y = Fraction(x), Fraction(y)
    assert from_munu(MuNu(x, y)) == DilationPair(1 / x, y / x)
    assert from_sigmatau(SigmaTau(x, y)) == DilationPair(x, x / y)
