"""Reference semigroup membership: the divisibility scan floorcomm shipped
before ``floorcomm.semigroup.sg_contains`` became one modular inverse."""

from floorcomm.semigroup import SemigroupPair


def reference_sg_contains(sg: SemigroupPair, n: int) -> bool:
    """True iff n - i*a is a nonnegative multiple of b for some i in [0, n/a]."""
    if n < 0:
        raise ValueError("membership is defined on nonnegative integers")
    if sg.a == 1 or sg.b == 1:
        return True
    return any((n - i * sg.a) % sg.b == 0 for i in range(n // sg.a + 1))
