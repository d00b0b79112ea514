"""The decision path's integer searches: pure functions of ints, importing nothing from the package.

    _least_representation   the solver of i*x + j*y = n behind semigroup
                            membership, the positive line and hyperbola,
                            and the Beatty witness
    _sporadic               the sporadic congruence scan of ``_decide._negative``
    _least_k                the residue scan of the non-member certificate
                            and of ``integer_rounding_check``

No independent check (the oracle, the Beatty window scan, the torus
enumeration) reaches this module; ``tests/test_criteria_reference.py`` reads
that from the source.
"""

from __future__ import annotations

from math import gcd, lcm


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


def _sporadic(p: int, q: int, c: int, d: int) -> tuple[int, int, int] | None:
    """Lexicographically least sporadic (m, n, r) for alpha = -q/p, beta = -c/d < -1/p.

    Put K = p*c - d > 0 and t = p*q - m*q - n*p, so that share = m/p + n/q < 1
    means t >= 1 and the defining equation gives r = t*c/(q*K).  r is an
    integer exactly when L = q*K/gcd(q*K, c) divides t, and r >= 2 exactly
    when t >= t_min = ceil(2*q*K/c).  n >= 1 gives t <= q*(p - m) - p, so only
    m <= m_top = (p*(q - 1) - t_min) // q can reach t_min, and m_top < 0
    returns None before any inverse.  The band lemma is one case: beta <= -2/p
    gives t_min >= p*q and so m_top < 0; q = 1 is another, m_top = -t_min.

    The congruence n*p = q*(p - m) (mod L) is solvable iff G = gcd(p, L)
    divides m (p and q are coprime), and then its least n >= 1 comes from one
    precomputed inverse; t decreases in n, so that n gives the largest t for
    its m.  The scan over m = 0, G, 2G, ..., m_top keeps the lexicographic
    (m, n) order in O(m_top/G) integer steps; a polynomial bound here is a
    two-dimensional lattice-point problem left open.
    """
    qk = q * (p * c - d)
    t_min = -(-2 * qk // c)  # >= 1, since q*K >= 1
    m_top = (p * (q - 1) - t_min) // q
    if m_top < 0:
        return None
    ell = qk // gcd(qk, c)  # L
    g = gcd(p, ell)
    mod = ell // g
    inv = pow(p // g, -1, mod)
    for m in range(0, m_top + 1, g):
        top = q * (p - m)
        n = top // g * inv % mod or mod
        t = top - n * p
        if t >= t_min:
            return m, n, t * c // qk
    return None


def _least_k(a: int, b: int, c: int, d: int, bar: int) -> int | None:
    """Least k in [1, lcm(a, c)] with d*((-k*b) % a) - b*((-k*d) % c) > bar, or None.

    The bar is 0 for a positive pair a/b, c/d and for ``integer_rounding_check``,
    and d*q - p*c for a negative pair -q/p, -c/d, called as (q, p, c, d).
    Both residues depend only on k mod a and k mod c, so one period of k is
    exhaustive: O(lcm(a, c)) integer steps.
    """
    for k in range(1, lcm(a, c) + 1):
        if d * (-k * b % a) - b * (-k * d % c) > bar:
            return k
    return None
