"""The commutator-sign relation as a preorder on nonzero rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import signed_grid
from floorcomm.preorder import Preorder, audit_transitivity, equivalence_classes, equivalent, precedes
from reference_preorder import reference_audit_transitivity


def test_precedes_examples():
    assert precedes(Fraction(-2, 3), Fraction(5))
    assert precedes(Fraction(1, 4), Fraction(1, 6))
    assert not precedes(Fraction(3), Fraction(2))


def test_precedes_rejects_zero():
    with pytest.raises(ValueError):
        precedes(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        precedes(Fraction(1), Fraction(0))


@pytest.mark.parametrize("bad", [0.0, False, 0.5, True])
def test_precedes_refuses_float_and_bool_before_the_zero_test(bad):
    for alpha, beta in ((bad, 1), (1, bad)):
        with pytest.raises(TypeError):
            precedes(alpha, beta)


def test_precedes_takes_plain_ints():
    assert precedes(1, 2) and not precedes(3, 2)
    with pytest.raises(ValueError):
        precedes(0, 1)


def test_grid_values_are_refused_before_the_dedup():
    for grid in ([Fraction(1, 2), 0.5], [Fraction(1), True]):
        with pytest.raises(TypeError):
            equivalence_classes(grid)
        with pytest.raises(TypeError):
            audit_transitivity(grid)
    assert Preorder.on([1, Fraction(1), Fraction(2, 2)]).values == (Fraction(1),)
    # a zero is refused after the type checks, and wherever it stands in the grid
    for grid, error in (([Fraction(1, 2), 0], ValueError), ([Fraction(0)], ValueError), ([0, 0.5], TypeError)):
        with pytest.raises(error):
            audit_transitivity(grid)
        with pytest.raises(error):
            equivalence_classes(grid)


def test_equivalent_examples():
    assert equivalent(Fraction(1, 3), Fraction(1, 5))
    assert equivalent(Fraction(-7, 4), Fraction(-7, 4))
    assert not equivalent(Fraction(1, 2), Fraction(2))


def test_reflexive_on_grid():
    for value in signed_grid(5, 5):
        assert precedes(value, value)


def test_divisibility_restriction():
    for a in range(1, 13):
        for b in range(1, 13):
            assert precedes(Fraction(a), Fraction(b)) == (b % a == 0)


def test_audit_small_grids():
    assert audit_transitivity([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]) is None
    assert audit_transitivity([Fraction(-1), Fraction(1), Fraction(-2)]) is None
    assert audit_transitivity(signed_grid(4, 4)) is None


def test_negative_values_form_partial_order():
    negatives = [-v for v in signed_grid(5, 5) if v > 0]
    for a in negatives:
        for b in negatives:
            if a != b:
                assert not (precedes(a, b) and precedes(b, a)), (a, b)


def test_equivalence_classes_canonical_reps():
    grid = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2),
        Fraction(3),
        Fraction(-1),
        Fraction(-2),
    ]
    classes = equivalence_classes(grid)
    assert [Fraction(1), Fraction(1, 2), Fraction(1, 3)] in classes
    # the unit-fraction class is the only one with several elements here
    assert sorted(len(cls) for cls in classes) == [1, 1, 1, 1, 3]
    for cls in classes:
        rep = cls[0]
        assert rep == min(cls, key=lambda v: (v.denominator, v.numerator))


def test_audit_matches_reference_triple_scan_on_grid():
    grid = signed_grid(4, 4)
    assert audit_transitivity(grid) == reference_audit_transitivity(grid, precedes) is None


@st.composite
def relations(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    return draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n))


@given(relations())
def test_row_inclusion_audit_matches_reference_triple_scan(matrix):
    values = tuple(range(len(matrix)))
    rows = tuple(sum(1 << j for j, flag in enumerate(row) if flag) for row in matrix)
    relation = Preorder(values, rows)
    assert relation.matrix() == matrix
    expected = reference_audit_transitivity(values, lambda a, b: matrix[a][b])
    assert relation.violation() == expected


def test_relation_matrix_and_classes_match_pairwise_queries():
    grid = signed_grid(3, 3)
    relation = Preorder.on(grid + grid[::-1])
    assert relation.values == tuple(grid)
    assert relation.matrix() == [[precedes(a, b) for b in grid] for a in grid]
    for cls in relation.classes():
        assert all(equivalent(cls[0], other) for other in cls)
    assert sorted(v for cls in relation.classes() for v in cls) == sorted(grid)
