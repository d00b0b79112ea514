"""The nonnegative-commutator preorder on a grid, on integer parts, in plain ints and lists.

A grid is a sequence of distinct nonzero values, each given by its parts
(num, den) in lowest terms with den > 0.  The relation on it is a tuple of
bitmask rows: bit j of row i is set iff value i precedes value j, that is,
iff ``_decide._witness`` finds a witness for the pair (value i, value j).
``Preorder`` wraps these functions for its records; the CLI's ``preorder``
calls them on the grid's parts.
"""

from __future__ import annotations

from typing import Sequence

from ._decide import _witness

Parts = Sequence[tuple[int, int]]


def _rows(parts: Parts) -> tuple[int, ...]:
    """The relation's bitmask rows, one ``_witness`` call per ordered pair."""
    return tuple(sum(1 << j for j, (c, d) in enumerate(parts) if _witness(a, b, c, d) is not None) for a, b in parts)


def _matrix(rows: Sequence[int], size: int) -> list[list[bool]]:
    return [[bool(row >> j & 1) for j in range(size)] for row in rows]


def _violation(rows: Sequence[int]) -> tuple[int, int, int] | None:
    """The indices of the first (a, b, c) in grid order with a ~ b ~ c, not a ~ c: row b is not inside row a."""
    for a, row in enumerate(rows):
        for b, row_b in enumerate(rows):
            if missing := row >> b & 1 and row_b & ~row:
                return a, b, (missing & -missing).bit_length() - 1
    return None


def _classes(parts: Parts, rows: Sequence[int]) -> list[list[int]]:
    """The indices of each class of mutual precedence, canonical representative (least
    denominator, then numerator) first; classes are ordered by their representatives."""

    def canonical(i: int) -> tuple[int, int]:
        num, den = parts[i]
        return den, num

    classes: list[list[int]] = []
    assigned = 0
    for i, row in enumerate(rows):
        if not assigned >> i & 1:
            mutual = [j for j, row_j in enumerate(rows) if row >> j & 1 and row_j >> i & 1]
            assigned |= sum(1 << j for j in mutual)
            classes.append(sorted(mutual, key=canonical))
    classes.sort(key=lambda cls: canonical(cls[0]))
    return classes
