"""The rational text format on integer parts: ``p`` or ``p/q`` with q >= 1.

``_rat_parts`` parses such text into its parts (num, den) in lowest terms,
and ``_rat_text`` prints parts the same way.  Decimals are refused, as they
cannot represent the dilation factors exactly.  The module uses only ``re``
and ``math``, so the CLI parses and prints rationals without loading
``fractions``; ``exact.parse_rat`` builds its ``Fraction`` from
``_rat_parts``, and ``_plot`` prints its coordinates through ``_rat_text``.
"""

from __future__ import annotations

import re
from math import gcd

_RAT_PATTERN = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _rat_parts(text: str) -> tuple[int, int]:
    """The parts (num, den), den >= 1, of ``p`` or ``p/q`` text (q >= 1), in lowest terms.

    ValueError for any other str, and for a part of more digits than
    ``sys.get_int_max_str_digits()`` allows.
    """
    match = _RAT_PATTERN.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational in p or p/q form: {text!r}")
    num, den = match.groups()
    if den is None:
        return int(num), 1
    num, den = int(num), int(den)
    g = gcd(num, den)
    return num // g, den // g


def _rat_text(num: int, den: int) -> str:
    """num/den, den > 0, as ``format_rat`` prints it: in lowest terms, ``p`` or ``p/q``, no Fraction built."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
