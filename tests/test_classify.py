"""Classification verdicts, witness searches, transforms, and symmetries."""

import sys
from dataclasses import fields
from fractions import Fraction
from math import gcd

import pytest

from conftest import positive_grid, signed_grid
from floorcomm import _decide
from floorcomm.classify import (
    AxisZero,
    MixedNegPos,
    MuNu,
    NegHyperbola,
    NegSporadic,
    NegVertical,
    PositiveLinear,
    SigmaTau,
    Verdict,
    birational,
    classify,
    from_munu,
    from_sigmatau,
    is_member,
    negative_witness,
    positive_witness,
    symmetry_scale_second,
    symmetry_shrink,
    to_munu,
    to_sigmatau,
)
from floorcomm.cli import main
from floorcomm.exact import _fraction
from floorcomm.floorfn import DilationPair, commutator, oracle_verify


def test_classify_axis():
    verdict = classify(DilationPair(Fraction(0), Fraction(5, 3)))
    assert verdict.member and verdict.witness == AxisZero()


def test_classify_mixed_signs():
    assert classify(DilationPair(Fraction(-2, 3), Fraction(5))).witness == MixedNegPos()
    verdict = classify(DilationPair(Fraction(3, 7), Fraction(-2)))
    assert not verdict.member
    assert verdict.counterexample is not None
    assert commutator(verdict.pair, verdict.counterexample) < 0


def test_positive_witness_examples():
    assert positive_witness(Fraction(1, 3), Fraction(1, 2)) == PositiveLinear(1, 1)
    assert positive_witness(Fraction(2, 3), Fraction(1, 2)) is None
    # smallest-m tie-break among (0,2), (1,1), (2,0)
    assert positive_witness(Fraction(1, 2), Fraction(1)) == PositiveLinear(0, 2)


def test_positive_witness_rejects_nonpositive():
    with pytest.raises(ValueError):
        positive_witness(Fraction(-1, 3), Fraction(1, 2))


@pytest.mark.parametrize("search, sign", [(positive_witness, 1), (negative_witness, -1)])
def test_witness_searches_take_int_and_reject_float_and_bool(search, sign):
    assert search(sign * 2, sign * 4) == search(Fraction(sign * 2), Fraction(sign * 4))
    for alpha, beta in [(sign * 0.5, sign * 2), (sign * 2, sign * 0.5), (True, 2), (2, True), ("1/2", 1)]:
        with pytest.raises(TypeError):
            search(alpha, beta)
    with pytest.raises(ValueError):
        search(-sign * 2, sign * 4)


def test_negative_witness_hyperbola():
    assert negative_witness(Fraction(-1), Fraction(-1, 2)) == NegHyperbola(0, 2)
    # these two also sit on branch-(i) curves, which the fixed search order
    # prefers over the vertical segment / sporadic descriptions
    assert negative_witness(Fraction(-3, 2), Fraction(-1, 3)) == NegHyperbola(1, 3)
    assert negative_witness(Fraction(-3, 2), Fraction(-3, 4)) == NegHyperbola(0, 2)


def test_negative_witness_vertical():
    # on the segment at alpha = -3/2 but on no branch-(i) curve
    assert negative_witness(Fraction(-3, 2), Fraction(-2, 5)) == NegVertical(2, 3)
    # closed lower endpoint beta = -1/p is accepted (and oracle-verified)
    pair = DilationPair(Fraction(-3, 2), Fraction(-1, 2))
    assert oracle_verify(pair).member


def test_negative_witness_sporadic():
    assert negative_witness(Fraction(-2), Fraction(-4, 3)) == NegSporadic(1, 2, 0, 1, 2)
    assert negative_witness(Fraction(-3, 4), Fraction(-9, 28)) == NegSporadic(4, 3, 0, 1, 3)
    assert negative_witness(Fraction(-5, 4), Fraction(-10, 29)) == NegSporadic(4, 5, 1, 1, 2)


def test_negative_witness_absent():
    assert negative_witness(Fraction(-2), Fraction(-5, 3)) is None
    with pytest.raises(ValueError):
        negative_witness(Fraction(1, 2), Fraction(-1))


def test_sporadic_formula_reproduces_beta():
    for alpha, beta, kind in [
        (Fraction(-2), Fraction(-4, 3), NegSporadic),
        (Fraction(-3, 4), Fraction(-9, 28), NegSporadic),
        # on the sporadic formula with (p, q, m, n, r) = (2, 3, 0, 1, 2), but the hyperbola comes first
        (Fraction(-3, 2), Fraction(-3, 4), NegHyperbola),
    ]:
        witness = negative_witness(alpha, beta)
        assert type(witness) is kind, witness
        if kind is NegSporadic:
            share = Fraction(witness.m, witness.p) + Fraction(witness.n, witness.q)
            rebuilt = -Fraction(1, witness.p) / (1 + Fraction(1, witness.r) * (share - 1))
            assert rebuilt == beta


def test_witness_equations_hold_on_grid():
    for alpha in positive_grid(6, 5):
        for beta in positive_grid(6, 5):
            witness = positive_witness(alpha, beta)
            if witness is not None:
                assert witness.m * alpha * beta + witness.n * alpha == beta
    for alpha in [-v for v in positive_grid(6, 5)]:
        for beta in [-v for v in positive_grid(6, 5)]:
            witness = negative_witness(alpha, beta)
            if isinstance(witness, NegHyperbola):
                assert witness.m * alpha * beta - witness.n * beta == -alpha
            elif isinstance(witness, NegVertical):
                assert alpha == Fraction(-witness.q, witness.p)
                assert Fraction(-1, witness.p) <= beta < 0
            elif isinstance(witness, NegSporadic):
                assert alpha == Fraction(-witness.q, witness.p)
                share = Fraction(witness.m, witness.p) + Fraction(witness.n, witness.q)
                assert 0 < share < 1
                assert beta == -Fraction(1, witness.p) / (1 + Fraction(1, witness.r) * (share - 1))


def test_classifier_matches_oracle_on_grid():
    grid = signed_grid(6, 4, include_zero=True)
    for alpha in grid:
        for beta in grid:
            pair = DilationPair(alpha, beta)
            assert is_member(pair) == oracle_verify(pair).member, (alpha, beta)


def test_classify_verdicts_are_certified():
    for alpha, beta in [(Fraction(5, 3), Fraction(2, 7)), (Fraction(-7, 2), Fraction(-6, 5))]:
        verdict = classify(DilationPair(alpha, beta))
        assert not verdict.member
        assert commutator(verdict.pair, verdict.counterexample) < 0


def test_classify_is_decided_without_the_oracle():
    module = sys.modules["floorcomm.classify"]
    assert not hasattr(module, "oracle_verify")
    assert [f.name for f in fields(Verdict)] == ["pair", "member", "witness", "counterexample"]
    pair = DilationPair(Fraction(2, 3), Fraction(1, 2))
    assert classify(pair) == Verdict(pair, False, None, Fraction(3))


def test_classify_raises_when_no_certificate_checks_out(monkeypatch):
    pair = DilationPair(Fraction(2, 3), Fraction(1, 2))
    for bogus in (None, (1, 2)):  # no certificate, or x = 1/2, where the commutator is 0
        # the one checked decision that classify and the CLI share looks the certificate up here
        monkeypatch.setattr(_decide, "_certificate", lambda a, b, c, d: bogus)
        with pytest.raises(RuntimeError):
            classify(pair)
        with pytest.raises(RuntimeError):
            main(["classify", "2/3", "1/2", "--no-oracle"])


def test_public_searches_match_the_dispatch_on_grid():
    # classify reaches the searches through _witness, not through positive_witness and negative_witness
    grid = signed_grid(10, 10)
    same_sign = 0
    for alpha in grid:
        for beta in grid:
            if (alpha > 0) == (beta > 0):
                search = positive_witness if alpha > 0 else negative_witness
                assert search(alpha, beta) == classify(DilationPair(alpha, beta)).witness, (alpha, beta)
                same_sign += 1
    assert same_sign == 2 * (len(grid) // 2) ** 2


def count_fractions_built(monkeypatch) -> list[tuple]:
    """A list that records the arguments of each Fraction built from here on.

    Each ``Fraction.__new__`` call and each ``exact._fraction`` call, at its
    bindings in ``classify`` and ``floorfn``, appends one entry.
    """
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def counting_fraction(num, den):
        built.append((num, den))
        return _fraction(num, den)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for module in ("floorcomm.classify", "floorcomm.floorfn"):
        monkeypatch.setattr(sys.modules[module], "_fraction", counting_fraction)
    return built


@pytest.mark.parametrize(
    "alpha, beta, by_classify, by_oracle",
    [
        (Fraction(1, 3), Fraction(1, 2), 0, 1),  # positive member: the oracle's period
        (Fraction(-2), Fraction(-4, 3), 0, 1),  # negative member
        (Fraction(12, 7), Fraction(-5, 3), 1, 2),  # +- non-member: the counterexample; the period and argmin
        (Fraction(2, 3), Fraction(1, 2), 1, 2),  # same-sign non-member
        (Fraction(0), Fraction(1), 0, 0),  # axis pair: the shared axis report
        (Fraction(-2, 3), Fraction(5), 0, 1),  # mixed pair
    ],
)
def test_fractions_built_per_pair(monkeypatch, alpha, beta, by_classify, by_oracle):
    pair = DilationPair(alpha, beta)
    expected = classify(pair), oracle_verify(pair)
    built = count_fractions_built(monkeypatch)
    assert classify(pair) == expected[0]
    assert len(built) == by_classify, built
    built.clear()
    assert oracle_verify(pair) == expected[1]
    assert len(built) == by_oracle, built


@pytest.mark.parametrize(
    "convert, coords, count",
    [
        (from_munu, MuNu(Fraction(3, 2), Fraction(3, 4)), 2),  # 1/mu and nu/mu
        (from_sigmatau, SigmaTau(Fraction(2, 3), Fraction(4, 3)), 1),  # sigma/tau; sigma is kept
    ],
)
def test_fractions_built_per_coordinate_change(monkeypatch, convert, coords, count):
    expected = convert(coords)
    built = count_fractions_built(monkeypatch)
    assert convert(coords) == expected
    assert len(built) == count, built


def test_diagonal_family_members():
    for alpha in signed_grid(5, 4, include_zero=True):
        assert classify(DilationPair(alpha, alpha)).member


def test_discrete_commuting_family_members():
    for m in range(1, 11):
        for n in range(1, 11):
            assert is_member(DilationPair(Fraction(1, m), Fraction(1, n)))


def test_int_pairs_classify_like_fractions():
    grid = range(-4, 5)
    for a in grid:
        for b in grid:
            pair = DilationPair(a, b)
            assert isinstance(pair.alpha, Fraction) and isinstance(pair.beta, Fraction)
            assert classify(pair) == classify(DilationPair(Fraction(a), Fraction(b)))
    assert classify(DilationPair(1, 2)).witness == PositiveLinear(0, 2)


def test_float_bool_and_str_pairs_rejected():
    for alpha, beta in [(0.5, Fraction(1)), (Fraction(1), 2.0), (True, 2), (1, False), ("1/2", 1)]:
        with pytest.raises(TypeError):
            DilationPair(alpha, beta)


def test_integer_pairs_follow_divisibility():
    for a in range(1, 13):
        for b in range(1, 13):
            assert is_member(DilationPair(Fraction(a), Fraction(b))) == (b % a == 0)


def test_symmetry_examples():
    base = DilationPair(Fraction(1, 3), Fraction(1, 2))
    assert symmetry_scale_second(base, 2) == DilationPair(Fraction(1, 3), Fraction(1))
    assert is_member(symmetry_scale_second(base, 2))
    assert symmetry_shrink(base, 3) == DilationPair(Fraction(1, 9), Fraction(1, 6))
    assert is_member(symmetry_shrink(base, 3))
    assert birational(base) == DilationPair(Fraction(2, 3), Fraction(2))
    assert is_member(birational(base))


@pytest.mark.parametrize("bad", [True, 2.0, 1.5, "2", Fraction(2)])
def test_symmetry_factor_must_be_int(bad):
    base = DilationPair(Fraction(1, 3), Fraction(1, 2))
    for symmetry in (symmetry_scale_second, symmetry_shrink):
        with pytest.raises(TypeError, match="k must be an int"):
            symmetry(base, bad)


def test_symmetry_statement_discrepancy_witness():
    # scaling the first coordinate is NOT a symmetry: the correct map scales
    # the second coordinate
    assert is_member(DilationPair(Fraction(1, 3), Fraction(1, 2)))
    assert not is_member(DilationPair(Fraction(2, 3), Fraction(1, 2)))


def test_symmetries_preserve_membership_on_grid():
    grid = positive_grid(5, 5)
    members = [
        DilationPair(a, b) for a in grid for b in grid if is_member(DilationPair(a, b))
    ]
    for pair in members[::7]:  # thinned; the acceptance suite sweeps all of them
        for k in (1, 2, 3):
            assert oracle_verify(symmetry_scale_second(pair, k)).member
            assert oracle_verify(symmetry_shrink(pair, k)).member
        assert oracle_verify(birational(pair)).member


def test_symmetry_domain_errors():
    positive = DilationPair(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        symmetry_scale_second(DilationPair(Fraction(-1, 2), Fraction(1, 2)), 2)
    with pytest.raises(ValueError):
        symmetry_scale_second(positive, 0)
    with pytest.raises(ValueError):
        symmetry_shrink(positive, -1)
    with pytest.raises(ValueError):
        birational(DilationPair(Fraction(1, 2), Fraction(0)))


def test_munu_transform():
    coords = to_munu(Fraction(1, 2), Fraction(1))
    assert (coords.mu, coords.nu) == (Fraction(2), Fraction(2))
    assert from_munu(coords) == DilationPair(Fraction(1, 2), Fraction(1))


def test_munu_is_involution():
    alpha, beta = Fraction(3, 5), Fraction(7, 2)
    coords = to_munu(alpha, beta)
    again = to_munu(coords.mu, coords.nu)
    assert (again.mu, again.nu) == (alpha, beta)


def test_sigmatau_transform():
    coords = to_sigmatau(Fraction(2, 9), Fraction(4, 3))
    assert (coords.sigma, coords.tau) == (Fraction(2, 9), Fraction(1, 6))
    assert from_sigmatau(coords) == DilationPair(Fraction(2, 9), Fraction(4, 3))


def test_coordinate_classes_store_int_as_fraction():
    for coords in (MuNu(2, 3), SigmaTau(2, 3), to_munu(2, 3), to_sigmatau(2, 3)):
        assert all(type(value) is Fraction for value in vars(coords).values())
    assert to_munu(2, 3) == MuNu(Fraction(1, 2), Fraction(3, 2))
    assert to_sigmatau(2, 3) == SigmaTau(Fraction(2), Fraction(2, 3))
    assert from_munu(MuNu(2, 3)) == DilationPair(Fraction(1, 2), Fraction(3, 2))
    assert from_sigmatau(SigmaTau(2, 3)) == DilationPair(Fraction(2), Fraction(2, 3))


def test_coordinate_classes_reject_float_and_bool():
    for first, second in [(0.5, Fraction(3, 2)), (Fraction(1, 2), 1.5), (True, 2), (2, False), ("1/2", 1)]:
        for make in (MuNu, SigmaTau, to_munu, to_sigmatau):
            with pytest.raises(TypeError):
                make(first, second)


def test_transform_domain_errors():
    with pytest.raises(ValueError):
        to_munu(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        to_sigmatau(Fraction(1), Fraction(-1))
    with pytest.raises(ValueError):
        MuNu(Fraction(-1), Fraction(2))
    with pytest.raises(ValueError):
        SigmaTau(Fraction(1), Fraction(0))


def test_witness_parameter_validation():
    with pytest.raises(ValueError):
        PositiveLinear(0, 0)
    with pytest.raises(ValueError):
        NegHyperbola(1, 0)
    with pytest.raises(ValueError):
        NegVertical(2, 4)
    with pytest.raises(ValueError):
        NegSporadic(2, 3, 0, 1, 1)
    with pytest.raises(ValueError):
        NegSporadic(2, 3, 1, 3, 2)  # m/p + n/q >= 1
    with pytest.raises(ValueError):
        NegSporadic(2, 4, 0, 1, 2)  # p, q not coprime


@pytest.mark.parametrize(
    "cls, values, field, got",
    [
        (PositiveLinear, (True, 1), "m", "bool"),
        (PositiveLinear, (1.5, 0), "m", "float"),
        (PositiveLinear, (1, 2.0), "n", "float"),
        (NegHyperbola, (0, True), "n", "bool"),
        (NegHyperbola, (Fraction(1), 1), "m", "Fraction"),
        (NegVertical, (1, True), "q", "bool"),
        (NegVertical, (2.0, 1), "p", "float"),
        (NegSporadic, (3, 2, 1, True, 2), "n", "bool"),
        (NegSporadic, (3, 2, 1, 1, 2.0), "r", "float"),
        (NegSporadic, (True, 2, 0, 1, 2), "p", "bool"),
    ],
)
def test_witness_fields_must_be_int(cls, values, field, got):
    with pytest.raises(TypeError, match=f"^{field} must be an int, got {got}$"):
        cls(*values)


def test_sporadic_share_test_matches_fractions():
    for p in range(1, 7):
        for q in range(1, 7):
            for m in range(0, 8):
                for n in range(1, 8):
                    share = Fraction(m, p) + Fraction(n, q)
                    try:
                        NegSporadic(p, q, m, n, 2)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == (gcd(p, q) == 1 and 0 < share < 1), (p, q, m, n)
