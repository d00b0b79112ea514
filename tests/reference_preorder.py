"""Reference transitivity audit: the lexicographic triple scan.

This is the audit floorcomm shipped before ``floorcomm.preorder.Preorder``
read transitivity off successor rows.  It memoizes the relation in a dict and
walks every ordered triple in grid order, so its first hit defines the triple
the row-inclusion audit must report.  It takes the relation as a predicate,
so the tests can run it on arbitrary relations, not only on ``precedes``.
"""

from typing import Callable, Hashable, Iterable, Sequence


def reference_audit_transitivity(
    grid: Iterable[Hashable], relation: Callable[[Hashable, Hashable], bool]
) -> tuple | None:
    """The first (a, b, c) in grid order with a ~ b, b ~ c and not a ~ c; None if transitive."""
    values: Sequence = list(grid)
    rel = {(x, y): relation(x, y) for x in values for y in values}
    for a in values:
        for b in values:
            if not rel[a, b]:
                continue
            for c in values:
                if rel[b, c] and not rel[a, c]:
                    return a, b, c
    return None
