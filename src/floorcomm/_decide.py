"""The membership decision on the four integer parts of a pair, in plain tuples.

alpha = a/b and beta = c/d are in lowest terms, the sign on the numerator.
A member's witness is a tuple (kind, params): the kind is the ``kind`` of its
``classify`` record and params are that record's fields, in the order of
``WITNESS_FIELDS``.  A non-member's violating point x = N/M is the tuple
(N, M).  ``classify``, ``positive_witness`` and ``negative_witness`` wrap
these tuples in records, ``is_member`` only tests a witness for None, and the
CLI formats them as they are.

    _witness         the sign dispatch: the member families' witness, or None
    _positive        the positive line, one modular inverse
    _negative        hyperbola, vertical segment and sporadic points
    _certificate     a non-member's least violating breakpoint
    _counterexample  the checked point: the certificate, or a point given,
                     where one ``_oracle._commutator`` call must be negative

The integer searches are in ``_kernels``.
"""

from __future__ import annotations

from ._kernels import _least_k, _least_representation, _sporadic
from ._oracle import _commutator

# the params of each witness kind, in tuple order; a test pins them to the record fields
WITNESS_FIELDS = {
    "axis_zero": (),
    "mixed_neg_pos": (),
    "positive_linear": ("m", "n"),
    "neg_hyperbola": ("m", "n"),
    "neg_vertical": ("p", "q"),
    "neg_sporadic": ("p", "q", "m", "n", "r"),
}

WitnessTuple = tuple[str, tuple[int, ...]]  # (kind, params)

_AXIS, _MIXED = ("axis_zero", ()), ("mixed_neg_pos", ())


def _positive(a: int, b: int, c: int, d: int) -> WitnessTuple | None:
    """Least-m solution of m*alpha*beta + n*alpha = beta with m, n >= 0, at alpha = a/b, beta = c/d > 0.

    Times b*d, the equation reads m*(a*c) + n*(a*d) = b*c: the two-generator
    equation, whose least-m solution ``_kernels._least_representation`` finds
    with one modular inverse.  n is unique given m and (0, 0) never solves, so
    this is the smallest-m solution of a scan over m = 0, ..., floor(1/alpha),
    found in O(log) steps.  Neither a/b nor c/d need be in lowest terms.
    """
    mn = _least_representation(a * c, a * d, b * c)
    return None if mn is None else ("positive_linear", mn)


def _negative(q: int, p: int, c: int, d: int) -> WitnessTuple | None:
    """The three negative-quadrant families in a fixed order, at alpha = -q/p, beta = -c/d in lowest terms.

    Hyperbola: m*alpha*beta - n*beta = -alpha is m*(c/d)*(q/p) + n*(c/d) =
    q/p, the positive line at (c/d, q/p) = (-beta, -alpha).  n decreases in
    m, so the line's least-m solution is a witness iff its n is >= 1, and
    then it is the smallest-m one.  O(log) steps.
    Vertical: alpha = -q/p is forced by lowest terms, leaving -1/p <= beta,
    that is c*p <= d.
    Sporadic: the least (m, n, r) of ``_kernels._sporadic``.
    """
    mn = _least_representation(c * q, c * p, d * q)
    if mn is not None and mn[1] >= 1:
        return "neg_hyperbola", mn
    if c * p <= d:
        return "neg_vertical", (p, q)
    mnr = _sporadic(p, q, c, d)
    return None if mnr is None else ("neg_sporadic", (p, q, *mnr))


def _witness(a: int, b: int, c: int, d: int) -> WitnessTuple | None:
    """The sign dispatch: the member's witness, or None for a non-member."""
    if a > 0 and c > 0:
        return _positive(a, b, c, d)
    if a < 0 and c < 0:
        return _negative(-a, b, -c, d)
    if a > 0 > c:
        return None
    return _AXIS if a == 0 or c == 0 else _MIXED


def _certificate(a: int, b: int, c: int, d: int) -> tuple[int, int] | None:
    """The least violating breakpoint x = N/M > 0 of a non-member as (N, M), M >= 1, or None for a member.

    alpha > 0 > beta: x = 1/(2*max(alpha, -beta)) gives floor(alpha*x) = 0
    and floor(beta*x) = -1, so the commutator is -ceil(alpha).

    alpha = a/b, beta = c/d, both positive: on floor(alpha*x) = n the
    commutator is least at the left end x = n/alpha.  Grouping n by
    k = floor(n*beta), the least n of a group, ceil(k/beta), is its best, and
    it violates iff beta*ceil(k/beta) < alpha*ceil(k/alpha), that is
    b*((-k*d) % c) < d*((-k*b) % a).  The least such k gives the least
    violating n.

    alpha = -q/p, beta = -c/d: on ceil(|beta|*x) = j the commutator is least
    at the right end x = j/|beta|, where it is negative iff
    j*|alpha| > (ceil(k/|beta|) - 1)*|beta| with k = floor(j*|alpha|) + 1.
    Some j of the group k - 1 <= j*|alpha| < k passes iff its largest j does,
    that is d*(q - (-k*p) % q) < p*(c - (-k*d) % c): the test of ``_least_k``
    with bar d*q - p*c.  The least k gives the least violating j, the least
    j above the bound, by one floor.

    N/M need not be in lowest terms.
    """
    if a > 0 > c:
        return (b, 2 * a) if a * d >= -c * b else (d, -2 * c)
    if a > 0 and c > 0:
        k = _least_k(a, b, c, d, 0)
        return None if k is None else (-(-k * d // c) * b, a)
    if a < 0 and c < 0:
        q, p, c = -a, b, -c
        k = _least_k(q, p, c, d, d * q - p * c)
        if k is None:
            return None
        j = (-(-k * d // c) - 1) * c * p // (d * q) + 1
        return j * d, c
    return None


def _counterexample(a: int, b: int, c: int, d: int, x: tuple[int, int] | None = None) -> tuple[int, int]:
    """A non-member's violating point (N, M): x if given, else ``_certificate``, checked in one ``_commutator`` call.

    The witness search and the point decide membership independently, so a
    non-member without a certificate, or a point where the commutator is not
    negative, is a bug and raises RuntimeError.
    """
    if x is None:
        x = _certificate(a, b, c, d)
    if x is None or _commutator(a, b, c, d, *x) >= 0:
        raise RuntimeError(f"witness search found nothing but no certificate checks out for ({a}/{b}, {c}/{d})")
    return x
