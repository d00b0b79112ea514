"""Non-member certificates: the least violating breakpoint, found without the oracle."""

import sys
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signed_grid
from floorcomm.classify import _certificate, _witness, classify
from floorcomm.floorfn import DilationPair, oracle_verify
from reference_search import fraction_commutator, reference_least_violation

# the package re-exports the function classify under the submodule's name
CLASSIFY = sys.modules["floorcomm.classify"]


def parts(alpha: Fraction, beta: Fraction) -> tuple[int, int, int, int]:
    """The integer parts the private searches take: alpha = a/b, beta = c/d in lowest terms."""
    return alpha.numerator, alpha.denominator, beta.numerator, beta.denominator


def certificate(alpha: Fraction, beta: Fraction) -> Fraction | None:
    """``_certificate`` at (alpha, beta), its (N, M) read as the Fraction N/M."""
    x = _certificate(*parts(alpha, beta))
    return None if x is None else Fraction(*x)


def test_certificate_is_the_least_violating_breakpoint_on_grid():
    grid = signed_grid(10, 10)
    non_members = 0
    for alpha in grid:
        for beta in grid:
            if _witness(*parts(alpha, beta)) is not None:
                continue
            x = classify(DilationPair(alpha, beta)).counterexample
            if alpha > 0 > beta:
                assert x == 1 / (2 * max(alpha, -beta)), (alpha, beta)
            else:
                assert x == reference_least_violation(alpha, beta), (alpha, beta)
            assert fraction_commutator(alpha, beta, x) < 0, (alpha, beta)
            non_members += 1
    assert non_members == 10155


def test_members_have_no_certificate():
    grid = signed_grid(10, 10)
    members = 0
    for alpha in grid:
        for beta in grid:
            if (alpha > 0) == (beta > 0) and _witness(*parts(alpha, beta)) is not None:
                assert certificate(alpha, beta) is None, (alpha, beta)
                members += 1
    assert members == 1752


def test_certificate_examples():
    # (-2, -5/3): j = 1 violates at 3/5, while the oracle's argmin is 11/20
    assert certificate(Fraction(-2), Fraction(-5, 3)) == Fraction(3, 5)
    assert oracle_verify(DilationPair(Fraction(-2), Fraction(-5, 3))).argmin == Fraction(11, 20)
    assert certificate(Fraction(2, 3), Fraction(1, 2)) == 3
    # alpha > 0 > beta: the commutator is -ceil(alpha) at 1/(2*max(alpha, -beta))
    assert certificate(Fraction(12, 7), Fraction(-5, 3)) == Fraction(7, 24)
    assert fraction_commutator(Fraction(12, 7), Fraction(-5, 3), Fraction(7, 24)) == -2
    assert certificate(Fraction(0), Fraction(1)) is None
    assert certificate(Fraction(-1), Fraction(1)) is None
    # axis pairs are members on both sides of the +- branch
    assert certificate(Fraction(0), Fraction(-1)) is None
    assert certificate(Fraction(1), Fraction(0)) is None


@st.composite
def signed_pairs(draw, bound: int):
    """(alpha, beta) with numerators and denominators in [1, bound], in a drawn quadrant other than -+."""
    signs = draw(st.sampled_from([(1, 1), (-1, -1), (1, -1)]))
    part = st.integers(1, bound)
    return tuple(Fraction(sign * draw(part), draw(part)) for sign in signs)


@given(signed_pairs(10**4))
@settings(max_examples=200, deadline=None)
def test_certificate_violates_at_large_sizes(pair):
    alpha, beta = pair
    verdict = classify(DilationPair(alpha, beta))
    if verdict.member:
        assert certificate(alpha, beta) is None
    else:
        assert fraction_commutator(alpha, beta, verdict.counterexample) < 0


def scan_steps(alpha: Fraction, beta: Fraction) -> int | None:
    """The k the certificate's residue scan stops at, which is its number of steps."""
    found = []
    least_k = CLASSIFY._least_k

    def spy(*args):
        found.append(least_k(*args))
        return found[-1]

    with mock.patch.object(CLASSIFY, "_least_k", spy):
        _certificate(*parts(alpha, beta))
    return found[0] if found else None


@given(signed_pairs(40))
@settings(max_examples=300, deadline=None)
def test_scan_takes_no_more_steps_than_the_oracle(pair):
    alpha, beta = pair
    steps = scan_steps(alpha, beta)
    if steps is not None:
        assert steps <= oracle_verify(DilationPair(alpha, beta)).breakpoints_checked
