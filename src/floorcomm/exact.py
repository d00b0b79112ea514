"""Exact rational scalars: construction, parsing, floor and ceiling.

A rational of the public API is a ``fractions.Fraction`` (aliased ``Rat``) in
lowest terms with a positive denominator, so equality is structural and no
computation rounds; the decision path under it runs on integer parts, printed
by ``_rat_text``.  The text format is ``p`` or ``p/q`` with q >= 1: decimals
are refused, as they cannot represent the dilation factors exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

Rat = Fraction

_RAT_PATTERN = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


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
    """Refuse an x that is not a cls or a subclass: TypeError naming cls; callers test ``type(x) is not cls`` first."""
    if not isinstance(x, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(x).__name__}")


def rat_floor(x: Rat | int) -> int:
    """Greatest integer <= x; float and bool raise TypeError."""
    if type(x) is not Fraction:
        x = as_rat(x)
    return x.numerator // x.denominator


def rat_ceil(x: Rat | int) -> int:
    """Least integer >= x; equals -rat_floor(-x); float and bool raise TypeError."""
    if type(x) is not Fraction:
        x = as_rat(x)
    return -((-x.numerator) // x.denominator)


def parse_rat(text: str) -> Rat:
    """Parse ``p`` or ``p/q`` (q >= 1) into a canonical Rat; a non-str raises TypeError."""
    if not isinstance(text, str):
        raise TypeError(f"expected a str, got {type(text).__name__}")
    match = _RAT_PATTERN.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational in p or p/q form: {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    return Fraction(num, den)


def format_rat(x: Rat | int) -> str:
    """Render in lowest terms: ``p`` for integers, ``p/q`` otherwise; float and bool raise TypeError."""
    if type(x) is not Fraction:
        x = as_rat(x)
    return str(x)


def _rat_text(num: int, den: int) -> str:
    """num/den, den > 0, as ``format_rat`` prints it: in lowest terms, ``p`` or ``p/q``, no Fraction built."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
