"""Exact rational scalars: construction, parsing, floor and ceiling.

A rational of the public API is a ``fractions.Fraction`` (aliased ``Rat``) in
lowest terms with a positive denominator, so equality is structural and no
computation rounds; the decision path under it runs on integer parts.  The
text format is ``p`` or ``p/q`` with q >= 1, parsed and printed on integer
parts by ``_rattext``: ``parse_rat`` builds its Fraction from the parts that
``_rattext._rat_parts`` reads.  Decimals are refused, as they cannot
represent the dilation factors exactly.

The entry points that a benchmark workload calls once per op read a
Fraction's parts with one ``as_integer_ratio()`` call and build a result
from integer parts with ``_fraction``, which reduces by ``gcd`` and fills the
two slots of a ``Fraction`` without its constructor's argument checks; it is
the package's only code that names those slots.  README "Shortcuts" lists
its callers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._rattext import _rat_parts

Rat = Fraction

_new = object.__new__


def rat(num: int, den: int = 1) -> Rat:
    """Return num/den in lowest terms, sign carried on the numerator.

    Both parts must be ints: bool, float and any other type raise TypeError.
    """
    require_int(num, "numerator")
    require_int(den, "denominator")
    if den == 0:
        raise ValueError(f"zero denominator: {num}/0")
    return Fraction(num, den)


def as_rat(x: Rat | int) -> Rat:
    """x as a Rat: a Fraction is returned as is, an int is converted.

    float is refused because it is not exact, and bool because it is not a
    number in this package's sense; both, and any other type, raise TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def positive_rat(x: Rat | int, message: str) -> Rat:
    """x as a Rat by ``as_rat``, refusing float and bool; x <= 0 raises ValueError(message)."""
    x = as_rat(x)
    if x.numerator <= 0:
        raise ValueError(message)
    return x


def require_int(x: int, name: str) -> None:
    """Refuse an x that is not an int: bool, float and any other type raise TypeError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{name} must be an int, got {type(x).__name__}")


def require_type(x: object, cls: type) -> None:
    """Refuse an x that is not a cls or a subclass: TypeError naming cls.

    The entry points that a benchmark workload calls once per op test
    ``type(x) is not cls`` first, which spares an exact instance this call;
    README "Shortcuts" names them.  Every other caller calls it directly.
    """
    if not isinstance(x, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(x).__name__}")


def rat_floor(x: Rat | int) -> int:
    """Greatest integer <= x; float and bool raise TypeError."""
    x = as_rat(x)
    return x.numerator // x.denominator


def rat_ceil(x: Rat | int) -> int:
    """Least integer >= x; equals -rat_floor(-x); float and bool raise TypeError."""
    x = as_rat(x)
    return -((-x.numerator) // x.denominator)


def parse_rat(text: str) -> Rat:
    """Parse ``p`` or ``p/q`` (q >= 1) into a canonical Rat; a non-str raises TypeError."""
    if not isinstance(text, str):
        raise TypeError(f"expected a str, got {type(text).__name__}")
    return _fraction(*_rat_parts(text))


def format_rat(x: Rat | int) -> str:
    """Render in lowest terms: ``p`` for integers, ``p/q`` otherwise; float and bool raise TypeError."""
    return str(as_rat(x))


def _fraction(num: int, den: int) -> Rat:
    """``Fraction(num, den)`` for ints num and den >= 1, reduced by one ``gcd`` without the constructor's checks.

    The caller guarantees both types and den >= 1; the result is the same
    value in the same lowest terms, positive denominator, as the constructor's.
    """
    g = gcd(num, den)
    x = _new(Fraction)
    x._numerator = num // g
    x._denominator = den // g
    return x

