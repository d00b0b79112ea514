"""The nonnegative-commutator relation as a queryable preorder on nonzero rationals.

alpha precedes beta iff the commutator of their dilated floor functions is
everywhere nonnegative.  The relation is reflexive and transitive; restricted
to positive integers it is divisibility, and restricted to negatives it is
already a partial order.  This module offers pairwise queries, equivalence,
and the relation on a finite grid built once, from which the transitivity
audit and grid equivalence classes under a canonical representative are read.
``Preorder`` is a thin record over ``_preorder``, which builds the relation,
reads its violation and classes on the values' integer parts, and which the
CLI's ``preorder`` calls without building a record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ._preorder import _classes, _matrix, _rows, _violation
from .classify import is_member
from .exact import Rat, as_rat
from .floorfn import DilationPair

_NONZERO = "the preorder is defined on nonzero dilations"


def precedes(alpha: Rat, beta: Rat) -> bool:
    """True iff the commutator of (alpha, beta) is nonnegative everywhere.

    Each factor is a nonzero int or Fraction; float and bool raise TypeError.
    """
    pair = DilationPair(alpha, beta)
    if pair.alpha.numerator == 0 or pair.beta.numerator == 0:
        raise ValueError(_NONZERO)
    return is_member(pair)


def equivalent(alpha: Rat, beta: Rat) -> bool:
    """True iff each of alpha, beta precedes the other."""
    return precedes(alpha, beta) and precedes(beta, alpha)


@dataclass(frozen=True)
class Preorder:
    """The relation on distinct values as bitmask rows: bit j of rows[i] is set iff
    values[i] precedes values[j].  ``on`` decides each ordered pair once, by
    ``_decide._witness`` on the two values' integer parts (``_preorder._rows``)."""

    values: tuple[Rat, ...]
    rows: tuple[int, ...]

    @classmethod
    def on(cls, grid: Iterable[Rat]) -> Preorder:
        values = tuple(dict.fromkeys(map(as_rat, grid)))
        if any(value.numerator == 0 for value in values):
            raise ValueError(_NONZERO)
        return cls(values, _rows([(value.numerator, value.denominator) for value in values]))

    def matrix(self) -> list[list[bool]]:
        return _matrix(self.rows, len(self.values))

    def violation(self) -> tuple[Rat, Rat, Rat] | None:
        """First (a, b, c) in grid order with a ~ b ~ c, not a ~ c: row b is not inside row a."""
        triple = _violation(self.rows)
        return None if triple is None else tuple(self.values[i] for i in triple)

    def classes(self) -> list[list[Rat]]:
        """Classes of mutual precedence, canonical representative (least denominator, then
        numerator) first; classes are ordered by their representatives."""
        parts = [(value.numerator, value.denominator) for value in self.values]
        return [[self.values[i] for i in cls] for cls in _classes(parts, self.rows)]


def audit_transitivity(grid: Iterable[Rat]) -> tuple[Rat, Rat, Rat] | None:
    """The first transitivity violation (a, b, c) in grid order; None if sound."""
    return Preorder.on(grid).violation()


def equivalence_classes(grid: Iterable[Rat]) -> list[list[Rat]]:
    """Partition a grid by mutual precedence; see ``Preorder.classes``."""
    return Preorder.on(grid).classes()
