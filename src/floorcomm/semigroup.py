"""Two-generator numerical semigroups: membership, Frobenius number, duality.

S(a, b) = a*N + b*N for coprime a, b >= 1.  Membership is O(1): n is in
S(a, b) iff the least multiple of b congruent to n mod a is at most n, one
modular inverse.  The gap list and the duality check sweep all of
[0, a*b - a - b], O(a*b) steps; they serve as ground truth for the torus
necessity argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import require_int


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
    if type(n) is not int:
        require_int(n, "n")
    if n < 0:
        raise ValueError("membership is defined on nonnegative integers")
    if sg.a == 1 or sg.b == 1:
        return True
    # b*((n/b) mod a) is the least multiple of b congruent to n mod a
    return sg.b * (n * pow(sg.b, -1, sg.a) % sg.a) <= n


def _require_proper(sg: SemigroupPair) -> None:
    if sg.a == 1 or sg.b == 1:
        raise ValueError("semigroup is all of N; no gaps exist")


def frobenius_number(sg: SemigroupPair) -> int:
    """Largest integer not in the semigroup: a*b - a - b for coprime a, b >= 2."""
    _require_proper(sg)
    return sg.a * sg.b - sg.a - sg.b


def nonrealizing_set(sg: SemigroupPair) -> list[int]:
    """All nonnegative integers outside the semigroup, ascending.

    Complete because nothing above the Frobenius number is missing.
    """
    _require_proper(sg)
    top = frobenius_number(sg)
    return [n for n in range(top + 1) if not sg_contains(sg, n)]


def sylvester_duality_holds(sg: SemigroupPair) -> bool:
    """Check n in S  <=>  a*b - a - b - n not in S, for every n in [0, a*b-a-b]."""
    _require_proper(sg)
    top = frobenius_number(sg)
    return all(sg_contains(sg, n) != sg_contains(sg, top - n) for n in range(top + 1))
