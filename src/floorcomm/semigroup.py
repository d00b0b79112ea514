"""Two-generator numerical semigroups: membership, Frobenius number, duality.

S(a, b) = a*N + b*N for coprime a, b >= 1.  Membership is O(log): one call
of ``_kernels._least_representation``, the package's one solver of
i*x + j*y = n in i, j >= 0 (one gcd, one modular inverse), shared with the
classifier's positive line and the Beatty witness.  The gap list sweeps all
of [0, F] with F = a*b - a - b, and the duality check the pairs {n, F - n},
each once; both take O(a*b) steps, test each n with the same modular inverse
(``_gap_flags``) and serve as ground truth for the torus necessity argument.

Every public function refuses an ``sg`` that is not a SemigroupPair with a
TypeError naming the class (``exact.require_type``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import ne

from ._kernels import _least_representation
from .exact import require_int, require_type


@dataclass(frozen=True)
class SemigroupPair:
    """Coprime generators a, b >= 1 of the semigroup a*N + b*N."""

    a: int
    b: int

    def __post_init__(self) -> None:
        require_int(self.a, "a")
        require_int(self.b, "b")
        if self.a < 1 or self.b < 1:
            raise ValueError("generators must be >= 1")
        if gcd(self.a, self.b) != 1:
            raise ValueError(f"generators must be coprime, got gcd = {gcd(self.a, self.b)}")


def sg_contains(sg: SemigroupPair, n: int) -> bool:
    """True iff n = i*a + j*b for some integers i, j >= 0; n must be an int."""
    require_type(sg, SemigroupPair)
    require_int(n, "n")
    if n < 0:
        raise ValueError("membership is defined on nonnegative integers")
    return _least_representation(sg.a, sg.b, n) is not None


def frobenius_number(sg: SemigroupPair) -> int:
    """Largest integer not in the semigroup: a*b - a - b for coprime a, b >= 2."""
    require_type(sg, SemigroupPair)
    if sg.a == 1 or sg.b == 1:
        raise ValueError("semigroup is all of N; no gaps exist")
    return sg.a * sg.b - sg.a - sg.b


def _gap_flags(sg: SemigroupPair, ns: range) -> Iterator[bool]:
    """For each n of ns (all >= 0), whether n is a gap of the semigroup.

    The least j >= 0 with a | n - j*b is n*binv mod a, binv = b^-1 mod a, so
    n is a gap iff n < b*(n*binv % a): one modular inverse for all of ns.
    """
    a, b = sg.a, sg.b
    binv = pow(b, -1, a)
    return (n < b * (n * binv % a) for n in ns)


def nonrealizing_set(sg: SemigroupPair) -> list[int]:
    """All nonnegative integers outside the semigroup, ascending; none exceeds the Frobenius number."""
    ns = range(frobenius_number(sg) + 1)
    return list(compress(ns, _gap_flags(sg, ns)))


def sylvester_duality_holds(sg: SemigroupPair) -> bool:
    """Check n in S  <=>  F - n not in S, for every n in [0, F], F = a*b - a - b.

    F = (a - 1)*(b - 1) - 1 is odd, since coprime a, b are not both even, so
    n <= F // 2 meets each pair {n, F - n} once.
    """
    top = frobenius_number(sg)
    half = top // 2
    low, high = range(half + 1), range(top, top - half - 1, -1)  # n and F - n
    return all(map(ne, _gap_flags(sg, low), _gap_flags(sg, high)))
