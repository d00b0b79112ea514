"""Two-generator numerical semigroups and Sylvester duality."""

from fractions import Fraction
from math import gcd

import pytest

from floorcomm import semigroup
from floorcomm.geometry import CornerRect, torus_subgroup_avoids
from floorcomm.semigroup import (
    SemigroupPair,
    frobenius_number,
    nonrealizing_set,
    sg_contains,
    sylvester_duality_holds,
)
from reference_semigroup import reference_sg_contains


def test_membership_examples():
    sg = SemigroupPair(3, 5)
    assert sg_contains(sg, 8)
    assert not sg_contains(sg, 7)
    assert sg_contains(sg, 0)


def test_membership_with_unit_generator():
    sg = SemigroupPair(1, 4)
    assert all(sg_contains(sg, n) for n in range(50))


def test_membership_rejects_negative():
    with pytest.raises(ValueError):
        sg_contains(SemigroupPair(3, 5), -1)


def test_membership_matches_reference_scan():
    for a in range(1, 41):
        for b in range(1, 41):
            if gcd(a, b) == 1:
                sg = SemigroupPair(a, b)
                for n in range(a * b + 1):
                    assert sg_contains(sg, n) == reference_sg_contains(sg, n), (a, b, n)


def test_membership_at_large_generators():
    sg = SemigroupPair(10**18 + 1, 10**18 + 3)
    top = frobenius_number(sg)
    assert not sg_contains(sg, top)
    assert sg_contains(sg, top + 1)
    assert sg_contains(sg, 3 * sg.a + 5 * sg.b)
    assert not sg_contains(sg, sg.a + sg.b - 1)


def test_pair_validation():
    with pytest.raises(ValueError):
        SemigroupPair(4, 6)
    with pytest.raises(ValueError):
        SemigroupPair(0, 5)


def test_frobenius_examples():
    assert frobenius_number(SemigroupPair(3, 5)) == 7
    assert frobenius_number(SemigroupPair(2, 3)) == 1
    assert frobenius_number(SemigroupPair(3, 4)) == 5


def test_frobenius_rejects_unit_generator():
    with pytest.raises(ValueError):
        frobenius_number(SemigroupPair(1, 7))


def test_nonrealizing_examples():
    assert nonrealizing_set(SemigroupPair(3, 5)) == [1, 2, 4, 7]
    assert nonrealizing_set(SemigroupPair(2, 3)) == [1]
    assert nonrealizing_set(SemigroupPair(2, 5)) == [1, 3]


def test_frobenius_is_max_gap():
    for a in range(2, 13):
        for b in range(2, 13):
            if gcd(a, b) != 1:
                continue
            sg = SemigroupPair(a, b)
            assert max(nonrealizing_set(sg)) == frobenius_number(sg)


def test_sylvester_duality_examples():
    for a, b in [(3, 5), (2, 7), (4, 9)]:
        assert sylvester_duality_holds(SemigroupPair(a, b))


def test_sylvester_duality_exhaustive():
    for a in range(2, 13):
        for b in range(2, 13):
            if gcd(a, b) == 1:
                assert sylvester_duality_holds(SemigroupPair(a, b))


@pytest.mark.parametrize(("a", "b"), [(2, 3), (3, 5), (4, 7), (5, 9)])
def test_sylvester_duality_fails_on_any_flipped_membership(monkeypatch, a, b):
    # the check must look at every n in [0, F], each pair {n, F - n} included
    sg = SemigroupPair(a, b)
    contains = semigroup.sg_contains
    for flipped in range(frobenius_number(sg) + 1):
        monkeypatch.setattr(semigroup, "sg_contains", lambda s, n: contains(s, n) != (n == flipped))
        assert not sylvester_duality_holds(sg), flipped


def test_gap_count_identity():
    for a in range(2, 13):
        for b in range(2, 13):
            if gcd(a, b) == 1:
                assert len(nonrealizing_set(SemigroupPair(a, b))) == (a - 1) * (b - 1) // 2


def test_torus_bridge_to_semigroup_membership():
    # the corner rectangle at (s/b, t/b) is avoided exactly when b is a
    # nonnegative combination of s and t
    for s in range(1, 8):
        for t in range(1, 8):
            if gcd(s, t) != 1:
                continue
            sg = SemigroupPair(s, t)
            for b in range(1, 31):
                avoided = torus_subgroup_avoids(CornerRect(Fraction(s, b), Fraction(t, b)))[0]
                assert avoided == sg_contains(sg, b), (s, t, b)


@pytest.mark.parametrize("bad", [True, 3.0, 2.5, "3", None, Fraction(3)])
def test_membership_argument_must_be_int(bad):
    for sg in (SemigroupPair(3, 5), SemigroupPair(1, 4)):
        with pytest.raises(TypeError, match="n must be an int"):
            sg_contains(sg, bad)


@pytest.mark.parametrize("bad", [True, 3.0, 1.5, "3", None, Fraction(3)])
def test_generators_must_be_ints(bad):
    with pytest.raises(TypeError, match="must be an int"):
        SemigroupPair(bad, 5)
    with pytest.raises(TypeError, match="must be an int"):
        SemigroupPair(4, bad)
