"""The nonnegative-commutator relation as a queryable preorder on nonzero rationals.

alpha precedes beta iff the commutator of their dilated floor functions is
everywhere nonnegative.  The relation is reflexive and transitive; restricted
to positive integers it is divisibility, and restricted to negatives it is
already a partial order.  This module offers pairwise queries, equivalence,
and the relation on a finite grid built once, from which the transitivity
audit and grid equivalence classes under a canonical representative are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .classify import is_member
from .exact import Rat, as_rat
from .floorfn import DilationPair


def precedes(alpha: Rat, beta: Rat) -> bool:
    """True iff the commutator of (alpha, beta) is nonnegative everywhere.

    Each factor is a nonzero int or Fraction; float and bool raise TypeError.
    """
    pair = DilationPair(alpha, beta)
    if pair.alpha.numerator == 0 or pair.beta.numerator == 0:
        raise ValueError("the preorder is defined on nonzero dilations")
    return is_member(pair)


def equivalent(alpha: Rat, beta: Rat) -> bool:
    """True iff each of alpha, beta precedes the other."""
    return precedes(alpha, beta) and precedes(beta, alpha)


@dataclass(frozen=True)
class Preorder:
    """The relation on distinct values as bitmask rows: bit j of rows[i] is set iff
    values[i] precedes values[j].  ``on`` calls precedes once per ordered pair."""

    values: tuple[Rat, ...]
    rows: tuple[int, ...]

    @classmethod
    def on(cls, grid: Iterable[Rat]) -> Preorder:
        values = tuple(dict.fromkeys(map(as_rat, grid)))
        rows = tuple(sum(1 << j for j, b in enumerate(values) if precedes(a, b)) for a in values)
        return cls(values, rows)

    def matrix(self) -> list[list[bool]]:
        return [[bool(row >> j & 1) for j in range(len(self.values))] for row in self.rows]

    def violation(self) -> tuple[Rat, Rat, Rat] | None:
        """First (a, b, c) in grid order with a ~ b ~ c, not a ~ c: row b is not inside row a."""
        for a, row in enumerate(self.rows):
            for b, row_b in enumerate(self.rows):
                if missing := row >> b & 1 and row_b & ~row:
                    c = (missing & -missing).bit_length() - 1
                    return self.values[a], self.values[b], self.values[c]
        return None

    def classes(self) -> list[list[Rat]]:
        """Classes of mutual precedence, canonical representative (least denominator, then
        numerator) first; classes are ordered by their representatives."""
        classes: list[list[Rat]] = []
        assigned = 0
        for i, row in enumerate(self.rows):
            if not assigned >> i & 1:
                mutual = [j for j, row_j in enumerate(self.rows) if row >> j & 1 and row_j >> i & 1]
                assigned |= sum(1 << j for j in mutual)
                cls = sorted((self.values[j] for j in mutual), key=lambda v: (v.denominator, v.numerator))
                classes.append(cls)
        classes.sort(key=lambda cls: (cls[0].denominator, cls[0].numerator))
        return classes


def audit_transitivity(grid: Iterable[Rat]) -> tuple[Rat, Rat, Rat] | None:
    """The first transitivity violation (a, b, c) in grid order; None if sound."""
    return Preorder.on(grid).violation()


def equivalence_classes(grid: Iterable[Rat]) -> list[list[Rat]]:
    """Partition a grid by mutual precedence; see ``Preorder.classes``."""
    return Preorder.on(grid).classes()
