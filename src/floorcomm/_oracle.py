"""The commutator and the oracle's period walk on integer parts, importing nothing from the package.

    _commutator     the commutator at one point, four integer floor divisions
    _oracle_min     the walk over one period: least value, argmin, breakpoints
    _report         the walk with the axis case: an ``OracleReport`` in ints

``floorfn.oracle_verify`` wraps ``_report`` in its record, and the CLI
formats straight from it.  The oracle is an independent check of the
decision path, so nothing here reaches ``_kernels``;
``tests/test_criteria_reference.py`` reads that from the source.

The walk stops early at the commutator's floor, -ceil(max(alpha, 0) +
max(-beta, 0)), which rests on floor arithmetic alone.  With alpha*x =
floor(alpha*x) + t and beta*x = floor(beta*x) + s, 0 <= s, t < 1, and
y - 1 < floor(y) <= y on both compositions, the commutator exceeds
alpha*floor(beta*x) - beta*floor(alpha*x) - 1 = beta*t - alpha*s - 1 >=
-max(alpha, 0) - max(-beta, 0) - 1, and it is an integer.  The floor is 0
at most, and the walk stops only on a new least value, so only after a
negative one: the sign, and with it the member answer, never depends on it.
"""

from __future__ import annotations

from math import gcd


def _commutator(a: int, b: int, c: int, d: int, n: int, m: int) -> int:
    """The commutator at alpha = a/b, beta = c/d and x = n/m; b, d, m >= 1, no part need be in lowest terms."""
    return (a * ((c * n) // (d * m))) // b - (c * ((a * n) // (b * m))) // d


def _oracle_min(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """The oracle's walk for alpha = a/b and beta = c/d in lowest terms, a and c nonzero.

    Returns the commutator's least value, the argmin's numerator over
    2*|a*c|, and the number of breakpoints in one period.

    Breakpoints are scaled by |a*c|, so the progressions are k*step_a and
    j*step_b in integers, and a period holds step_b alpha points and step_a
    beta points.  The scan walks at most the step_i = min(step_a, step_b)
    gaps of the sparser, outer progression: O(1) work per gap, two running
    sums in place of products, and O(1) extra memory.  It ends at the first
    gap whose value is the floor of the module docstring, which no value
    lies below, so the least value, the argmin and the breakpoint count are
    those of the whole period.

    On outer gap j, (j*step_o, (j+1)*step_o), the outer progression's inner
    floor is j for a positive factor and -j-1 for a negative one; on the
    sub-gap after the k-th point of the denser progression, its inner floor
    is k or -k-1 likewise.  So the commutator there is (p*j + q)//r -
    (u*k + w)//v.  Walking beta gaps, the two terms are
    floor(alpha*floor(beta*x)) and floor(beta*floor(alpha*x)); walking alpha
    gaps, both are negated by -(z//v) = (v - 1 - z)//v and swap places.  The
    second term is monotone in k, so the gap's least value lies on its last
    sub-gap if u > 0 and on its first otherwise, at k = (step_o*j + e)//step_i:
    three floor divisions per gap.  No breakpoint needs a sample of its own
    (see the ``floorfn`` docstring): each has a neighbouring gap's value, or 0
    where the progressions meet.

    The argmin is the first sample that reaches the minimum in increasing
    order, a breakpoint before the gap after it.  It lies in the first outer
    gap that reaches the minimum, on the first sub-gap that does, which one
    ceiling division finds.  That sub-gap (lo, hi) is reported as its left
    end 2*lo when every factor whose progression passes through lo is
    positive, since that point has the gap's value, and as its midpoint
    lo + hi otherwise.
    """
    step_a = b * abs(c)  # |1/alpha|, scaled; the number of beta points in [0, T)
    step_b = d * abs(a)  # |1/beta|, scaled; the number of alpha points in [0, T)
    neg_a, neg_b = a < 0, c < 0
    if step_a <= step_b:  # walk the beta gaps: fb = j or -j-1, fa = k or -k-1
        step_o, step_i = step_b, step_a
        p, q = (-a, -a) if neg_b else (a, 0)  # floor(a*fb/b)
        u, w = (-c, -c) if neg_a else (c, 0)  # floor(c*fa/d)
        r, v = b, d
    else:  # walk the alpha gaps: fa = j or -j-1, fb = k or -k-1
        step_o, step_i = step_a, step_b
        p, q = (c, d - 1 + c) if neg_a else (-c, d - 1)  # -floor(c*fa/d)
        u, w = (a, b - 1 + a) if neg_b else (-a, b - 1)  # -floor(a*fb/b)
        r, v = d, b
    # where the second term grows with k (u > 0) the least value is on the last sub-gap
    e = step_o - 1 if u > 0 else 0
    floor = ((-a if a > 0 else 0) * d + (c if c < 0 else 0) * b) // (b * d)  # no value lies below it
    best = 0  # x = 0 is the first sample and the commutator vanishes there
    top, num = q, e  # p*j + q and step_o*j + e, as running sums
    for j in range(step_i):
        value = top // r - (u * (num // step_i) + w) // v
        if value < best:
            best, best_j = value, j
            if value == floor:
                break
        top += p
        num += step_o
    best_num = 0
    if best < 0:
        lo = best_j * step_o
        if u > 0:  # the first k whose second term reaches the last sub-gap's
            reach = (p * best_j + q) // r - best
            lo = max(lo, -((w - reach * v) // u) * step_i)
        off_a, off_b = lo % step_a, lo % step_b
        hi = lo + min(step_a - off_a, step_b - off_b)
        at_point = not (neg_a and off_a == 0 or neg_b and off_b == 0)
        best_num = 2 * lo if at_point else lo + hi
    return best, best_num, step_a + step_b - gcd(step_a, step_b)


def _report(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int, int]:
    """The oracle at alpha = a/b, beta = c/d in lowest terms: (period, least value, argmin N, argmin M, breakpoints).

    The argmin is N/M, not in lowest terms, and N is 0 for a member.  On an
    axis, a = 0 or c = 0, both compositions vanish identically and nothing
    is walked: period 1, least value 0 at 0, no breakpoints.
    """
    if a == 0 or c == 0:
        return 1, 0, 0, 1, 0
    best, best_num, breakpoints = _oracle_min(a, b, c, d)
    return b * d, best, best_num, 2 * abs(a * c), breakpoints  # samples live over 2*|a*c|
