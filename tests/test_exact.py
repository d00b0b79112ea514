"""Exact rational scalars: construction, parsing, floor/ceiling invariants."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from floorcomm.beatty import (
    beatty_contains,
    beatty_pos_contains,
    disjointness_witness,
    reduced_contains,
    reduced_disjoint,
)
from floorcomm.classify import (
    MuNu,
    SigmaTau,
    birational,
    positive_witness,
    symmetry_scale_second,
    symmetry_shrink,
    to_munu,
    to_sigmatau,
)
from floorcomm.exact import format_rat, parse_rat, positive_rat, rat, rat_ceil, rat_floor
from floorcomm.floorfn import DilationPair, integer_rounding_check, rounding_order
from floorcomm.geometry import circle_arc_contains

rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))


def test_construction_reduces():
    assert rat(2, 4) == Fraction(1, 2)
    assert (rat(2, 4).numerator, rat(2, 4).denominator) == (1, 2)


def test_construction_normalizes_sign():
    value = rat(3, -6)
    assert (value.numerator, value.denominator) == (-1, 2)


def test_construction_canonicalizes_zero():
    value = rat(0, 7)
    assert (value.numerator, value.denominator) == (0, 1)


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        rat(5, 0)


@pytest.mark.parametrize(
    "value, expected",
    [(Fraction(7, 2), 3), (Fraction(-1, 2), -1), (Fraction(5), 5)],
)
def test_floor_examples(value, expected):
    assert rat_floor(value) == expected


@pytest.mark.parametrize(
    "value, expected",
    [(Fraction(7, 2), 4), (Fraction(-1, 2), 0), (Fraction(5), 5)],
)
def test_ceil_examples(value, expected):
    assert rat_ceil(value) == expected


@given(rationals)
def test_floor_ceil_bounds(x):
    f, c = rat_floor(x), rat_ceil(x)
    assert x - 1 < f <= x <= c < x + 1


@given(rationals)
def test_ceil_is_negated_floor(x):
    assert rat_ceil(x) == -rat_floor(-x)


@given(rationals, rationals)
def test_floor_ceil_monotone(x, y):
    if x > y:
        x, y = y, x
    assert rat_floor(x) <= rat_floor(y)
    assert rat_ceil(x) <= rat_ceil(y)


def test_arithmetic_is_unbounded():
    huge = rat(10**60 + 1, 10**60)
    assert rat_floor(huge) == 1
    assert rat_floor(huge * 10**60) == 10**60 + 1


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3/7", Fraction(3, 7)),
        ("-1/2", Fraction(-1, 2)),
        ("5", Fraction(5)),
        ("-12", Fraction(-12)),
        ("10/4", Fraction(5, 2)),
        ("  2/6  ", Fraction(1, 3)),
    ],
)
def test_parse_examples(text, expected):
    assert parse_rat(text) == expected


@pytest.mark.parametrize("text", ["1.5", "1/0", "1/-2", "", "a", "1/2/3", "+3", "1e3", "½"])
def test_parse_rejects_non_rationals(text):
    with pytest.raises(ValueError):
        parse_rat(text)


def test_format_examples():
    assert format_rat(Fraction(5, 2)) == "5/2"
    assert format_rat(Fraction(-5, 2)) == "-5/2"
    assert format_rat(Fraction(4, 2)) == "2"
    assert format_rat(Fraction(0)) == "0"


@given(rationals)
def test_parse_format_round_trip(x):
    assert parse_rat(format_rat(x)) == x


@pytest.mark.parametrize("num, den", [(True, 2), (2, False), (2.5, 1), (1, 2.0), ("1", 2), (Fraction(1, 2), 1)])
def test_construction_refuses_non_ints(num, den):
    with pytest.raises(TypeError):
        rat(num, den)


@pytest.mark.parametrize("function", [rat_floor, rat_ceil, format_rat])
@pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "1/2", None])
def test_scalar_helpers_refuse_bool_float_and_other_types(function, value):
    with pytest.raises(TypeError):
        function(value)


@pytest.mark.parametrize(
    "function, expected",
    [(rat_floor, [-3, 0, 7]), (rat_ceil, [-3, 0, 7]), (format_rat, ["-3", "0", "7"])],
)
def test_scalar_helpers_accept_plain_ints(function, expected):
    assert [function(x) for x in (-3, 0, 7)] == expected


@pytest.mark.parametrize("value", [5, Fraction(1, 2), 1.5, True, b"1/2", None])
def test_parse_refuses_non_str(value):
    with pytest.raises(TypeError):
        parse_rat(value)


@pytest.mark.parametrize("value, expected", [(3, Fraction(3)), (Fraction(2, 3), Fraction(2, 3))])
def test_positive_rat_converts(value, expected):
    result = positive_rat(value, "unused")
    assert result == expected and type(result) is Fraction


# Every entry point that takes a positive factor, by the message its ValueError
# carries; each takes the value under test v in one guarded argument position.
POSITIVE_SITES = {
    "MuNu(v, 1)": (lambda v: MuNu(v, 1), "mu, nu must be positive"),
    "MuNu(1, v)": (lambda v: MuNu(1, v), "mu, nu must be positive"),
    "SigmaTau(v, 1)": (lambda v: SigmaTau(v, 1), "sigma, tau must be positive"),
    "SigmaTau(1, v)": (lambda v: SigmaTau(1, v), "sigma, tau must be positive"),
    "positive_witness(v, 1)": (lambda v: positive_witness(v, 1), "dilation factors must be positive"),
    "positive_witness(1, v)": (lambda v: positive_witness(1, v), "dilation factors must be positive"),
    "to_munu(v, 1)": (lambda v: to_munu(v, 1), "dilation factors must be positive"),
    "to_munu(1, v)": (lambda v: to_munu(1, v), "dilation factors must be positive"),
    "to_sigmatau(v, 1)": (lambda v: to_sigmatau(v, 1), "dilation factors must be positive"),
    "to_sigmatau(1, v)": (lambda v: to_sigmatau(1, v), "dilation factors must be positive"),
    # the symmetries take a DilationPair, which refuses float and bool itself
    "symmetry_scale_second": (
        lambda v: symmetry_scale_second(DilationPair(v, 1), 2),
        "symmetries are defined on the open positive quadrant",
    ),
    "symmetry_shrink": (
        lambda v: symmetry_shrink(DilationPair(1, v), 2),
        "symmetries are defined on the open positive quadrant",
    ),
    "birational": (lambda v: birational(DilationPair(v, 1)), "symmetries are defined on the open positive quadrant"),
    "integer_rounding_check(v, 1)": (lambda v: integer_rounding_check(v, 1), "dilation factors must be positive"),
    "integer_rounding_check(1, v)": (lambda v: integer_rounding_check(1, v), "dilation factors must be positive"),
    "rounding_order(v, 1)": (lambda v: rounding_order(v, 1), "dilation factors must be positive"),
    "rounding_order(1, v)": (lambda v: rounding_order(1, v), "dilation factors must be positive"),
    "beatty_pos_contains": (lambda v: beatty_pos_contains(v, 1), "Beatty parameter must be positive"),
    "beatty_contains": (lambda v: beatty_contains(v, 1), "Beatty parameter must be positive"),
    "reduced_contains": (lambda v: reduced_contains(v, 1), "Beatty parameter must be positive"),
    "disjointness_witness(v, 2)": (lambda v: disjointness_witness(v, 2), "Beatty parameter must be positive"),
    "disjointness_witness(2, v)": (lambda v: disjointness_witness(2, v), "Beatty parameter must be positive"),
    "reduced_disjoint(v, 2)": (lambda v: reduced_disjoint(v, 2), "Beatty parameter must be positive"),
    "reduced_disjoint(2, v)": (lambda v: reduced_disjoint(2, v), "Beatty parameter must be positive"),
    "circle_arc_contains": (lambda v: circle_arc_contains(Fraction(1, 3), v), "arc length must be positive"),
}

BAD_FACTORS = {
    "float": (1.5, TypeError, "expected an int or a Fraction, got float"),
    "bool": (True, TypeError, "expected an int or a Fraction, got bool"),
    "zero": (0, ValueError, None),
    "negative": (Fraction(-1, 2), ValueError, None),
}


@pytest.mark.parametrize("bad", BAD_FACTORS)
@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_positive_factor_sites_refuse_alike(site, bad):
    call, value_message = POSITIVE_SITES[site]
    value, error, message = BAD_FACTORS[bad]
    with pytest.raises(error) as caught:
        call(value)
    assert type(caught.value) is error
    assert str(caught.value) == (message or value_message)
