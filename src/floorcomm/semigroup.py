"""Two-generator numerical semigroups: membership, Frobenius number, duality.

S(a, b) = a*N + b*N for coprime a, b >= 1.  Membership is O(1): one call of
``_least_representation``, the package's one solver of i*x + j*y = n in
i, j >= 0 (one gcd, one modular inverse), shared with the classifier's
positive line and the Beatty witness.  The gap list sweeps all of [0, F] with
F = a*b - a - b, and the duality check the pairs {n, F - n}, each once; both
take O(a*b) steps and serve as ground truth for the torus necessity argument.
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


def _least_representation(x: int, y: int, n: int) -> tuple[int, int] | None:
    """Least-i solution (i, j) of i*x + j*y = n with i, j >= 0, or None; x, y >= 1.

    It needs g = gcd(x, y) to divide n.  The least i >= 0 with y | n - i*x is
    then (n/g) * (x/g)^-1 mod (y/g); j decreases in i, so if j < 0 there, no
    i works.
    """
    g = gcd(x, y)
    if n % g:
        return None
    mod = y // g
    i = n // g * pow(x // g, -1, mod) % mod
    return (i, (n - i * x) // y) if i * x <= n else None


def sg_contains(sg: SemigroupPair, n: int) -> bool:
    """True iff n = i*a + j*b for some integers i, j >= 0; n must be an int."""
    if type(n) is not int:
        require_int(n, "n")
    if n < 0:
        raise ValueError("membership is defined on nonnegative integers")
    return _least_representation(sg.a, sg.b, n) is not None


def frobenius_number(sg: SemigroupPair) -> int:
    """Largest integer not in the semigroup: a*b - a - b for coprime a, b >= 2."""
    if sg.a == 1 or sg.b == 1:
        raise ValueError("semigroup is all of N; no gaps exist")
    return sg.a * sg.b - sg.a - sg.b


def nonrealizing_set(sg: SemigroupPair) -> list[int]:
    """All nonnegative integers outside the semigroup, ascending; none exceeds the Frobenius number."""
    top = frobenius_number(sg)
    return [n for n in range(top + 1) if not sg_contains(sg, n)]


def sylvester_duality_holds(sg: SemigroupPair) -> bool:
    """Check n in S  <=>  F - n not in S, for every n in [0, F], F = a*b - a - b.

    F = (a - 1)*(b - 1) - 1 is odd, since coprime a, b are not both even, so
    n <= F // 2 meets each pair {n, F - n} once.
    """
    top = frobenius_number(sg)
    return all(sg_contains(sg, n) != sg_contains(sg, top - n) for n in range(top // 2 + 1))
