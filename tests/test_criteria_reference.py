"""The integer criteria deciders against the reference loops they replaced."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positive_grid, signed_grid
from floorcomm.beatty import disjointness_witness, reduced_disjoint
from floorcomm.classify import MuNu, SigmaTau, from_munu, from_sigmatau, is_member
from floorcomm.floorfn import DilationPair, integer_rounding_check, oracle_verify
from floorcomm.geometry import CornerRect, LatticeParams, lattice_diag_disjoint, torus_subgroup_avoids
from floorcomm.semigroup import SemigroupPair, sg_contains
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


@settings(max_examples=200, deadline=None)
@given(criteria_params, criteria_params)
def test_criteria_match_reference_loops(x, y):
    assert_criteria_match_reference(x, y)


# the witness searches, their shared two-generator solver and the certificate scan
WITNESS_KERNELS = ("_positive_line", "_least_representation", "_least_k", "_sporadic_witness")


def test_criteria_are_decided_without_the_positive_line(monkeypatch):
    """The oracle and the three criteria deciders give the same answers with every witness kernel refused."""
    grid = positive_grid(6, 6)
    pairs = [(x, y) for x in grid for y in grid]
    members = [is_member(DilationPair(1 / x, y / x)) for x, y in pairs]
    tori = [is_member(DilationPair(x, x / y)) for x, y in pairs]
    signed = signed_grid(6, 6, include_zero=True)

    def answers():
        return (
            [oracle_verify(DilationPair(a, b)) for a in signed for b in signed],
            [reduced_disjoint(x, y) for x, y in pairs],
            [lattice_diag_disjoint(LatticeParams(x, y)) for x, y in pairs],
            [torus_subgroup_avoids(CornerRect(x, y)) for x, y in pairs],
        )

    before = answers()
    assert before[1] == members
    assert [decided for decided, _ in before[2]] == members
    assert [avoided for avoided, _ in before[3]] == tori

    def refuse(*args):
        raise RuntimeError("a witness kernel was called")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("floorcomm."):
            for kernel in WITNESS_KERNELS:
                if hasattr(module, kernel):
                    monkeypatch.setattr(module, kernel, refuse)
                    patched.add(f"{name}.{kernel}")
    # the classifier binds all four; the solver is also bound at home and in beatty, the scan at home
    assert {f"floorcomm.classify.{kernel}" for kernel in WITNESS_KERNELS} <= patched
    assert {"floorcomm.semigroup._least_representation", "floorcomm.beatty._least_representation"} <= patched
    assert "floorcomm.floorfn._least_k" in patched
    for call in (
        lambda: disjointness_witness(Fraction(5, 2), Fraction(5, 3)),
        lambda: sg_contains(SemigroupPair(3, 5), 7),
        lambda: integer_rounding_check(Fraction(5, 3), Fraction(7, 2)),
        lambda: is_member(DilationPair(Fraction(1, 3), Fraction(1, 2))),
    ):
        with pytest.raises(RuntimeError, match="witness kernel"):
            call()
    assert answers() == before


big_params = st.one_of(
    st.builds(Fraction, st.integers(1, 10**18), st.integers(1, 10**18)),
    st.integers(1, 10**18),
)


@given(big_params, big_params)
def test_coordinate_maps_match_fraction_operators(x, y):
    x, y = Fraction(x), Fraction(y)
    assert from_munu(MuNu(x, y)) == DilationPair(1 / x, y / x)
    assert from_sigmatau(SigmaTau(x, y)) == DilationPair(x, x / y)
