"""Reference period oracles: the breakpoint sets materialised, and the merged walk.

``reference_oracle_verify`` is the oracle floorcomm shipped first.  It builds
both progressions as sets, sorts their union and evaluates every sample with
four big-integer products and four divisions, so it is obviously exhaustive
but needs memory linear in the breakpoint count; the differential tests only
call it on small periods.

``reference_walk_verify`` is the oracle floorcomm shipped next: one
two-pointer walk over the merged progressions, a step per breakpoint and O(1)
extra memory, so it checks periods the sorted sets cannot hold.  It samples
every gap, and a meet point of a negative and a positive factor on its own.
"""

from fractions import Fraction
from math import gcd

from floorcomm.floorfn import DilationPair, OracleReport


def reference_oracle_verify(pair: DilationPair) -> OracleReport:
    """Breakpoint first, then gap midpoint, over the sorted union of both progressions."""
    alpha, beta = pair.alpha, pair.beta
    if alpha == 0 or beta == 0:
        return OracleReport(Fraction(1), 0, Fraction(0), 0, 0)
    a, b = alpha.numerator, alpha.denominator
    c, d = beta.numerator, beta.denominator
    scale = abs(a) * abs(c)  # common denominator of all breakpoints
    span = b * d * scale  # period T = b*d, scaled by `scale`
    step_a = b * abs(c)  # |1/alpha|, scaled
    step_b = d * abs(a)  # |1/beta|, scaled
    points = sorted(set(range(0, span + 1, step_a)) | set(range(0, span + 1, step_b)))
    den2 = 2 * scale  # samples (breakpoints and midpoints) live over 2*scale
    div_a = b * den2
    div_b = d * den2
    best: int | None = None
    best_num = 0
    for i in range(len(points) - 1):
        lo, hi = points[i], points[i + 1]
        for num in (2 * lo, lo + hi):  # breakpoint, then gap midpoint
            value = (a * ((c * num) // div_b)) // b - (c * ((a * num) // div_a)) // d
            if best is None or value < best:
                best, best_num = value, num
    breakpoints = len(points) - 1
    assert best is not None
    return OracleReport(
        period=Fraction(b * d),
        min_value=best,
        argmin=Fraction(best_num, den2),
        breakpoints_checked=breakpoints,
        samples_checked=2 * breakpoints,
    )


def reference_walk_verify(pair: DilationPair) -> OracleReport:
    """Every gap of the merged progressions in increasing order, two pointers, no stored points."""
    alpha, beta = pair.alpha, pair.beta
    a, b = alpha.numerator, alpha.denominator
    c, d = beta.numerator, beta.denominator
    if a == 0 or c == 0:
        # both compositions vanish identically; nothing to enumerate
        return OracleReport(Fraction(1), 0, Fraction(0), 0, 0)
    scale = abs(a) * abs(c)  # common denominator of all breakpoints
    span = b * d * scale  # period T = b*d, scaled by `scale`
    step_a = b * abs(c)  # |1/alpha|, scaled
    step_b = d * abs(a)  # |1/beta|, scaled
    neg_a, neg_b = a < 0, c < 0
    inc_a, inc_b = (-1 if neg_a else 1), (-1 if neg_b else 1)
    # floor(alpha*x), floor(beta*x) on the gap before x = 0; the walk starts
    # at the meet point 0 and bumps both to their values on the gap after it
    fa, fb = neg_a - 1, neg_b - 1
    left = right = 0  # floor(alpha*fb), floor(beta*fa) on the current gap
    next_a = next_b = 0
    # x = 0 is the first sample and the commutator vanishes there
    best = best_num = 0
    while True:
        if next_a < next_b:  # a point of the alpha progression only
            next_a += step_a
            fa += inc_a
            right = (c * fa) // d
            if left - right < best:
                best = left - right
                lo = next_a - step_a
                best_num = lo + min(next_a, next_b) if neg_a else 2 * lo
        elif next_b < next_a:  # a point of the beta progression only
            next_b += step_b
            fb += inc_b
            left = (a * fb) // b
            if left - right < best:
                best = left - right
                lo = next_b - step_b
                best_num = lo + min(next_a, next_b) if neg_b else 2 * lo
        else:  # the progressions meet
            lo = next_a
            if lo == span:
                break
            next_a += step_a
            next_b += step_b
            fa += inc_a
            fb += inc_b
            left, right = (a * fb) // b, (c * fa) // d
            if neg_a != neg_b:
                # the negative factor's inner floor is one higher at the point
                point = (a * (fb + neg_b)) // b - (c * (fa + neg_a)) // d
                if point < best:
                    best, best_num = point, 2 * lo
            if left - right < best:
                best = left - right
                best_num = lo + min(next_a, next_b) if neg_a or neg_b else 2 * lo
    on_a, on_b = abs(a) * d, abs(c) * b  # points of each progression in [0, T)
    breakpoints = on_a + on_b - gcd(on_a, on_b)
    return OracleReport(
        period=Fraction(b * d),
        min_value=best,
        argmin=Fraction(best_num, 2 * scale),  # samples live over 2*scale
        breakpoints_checked=breakpoints,
        samples_checked=2 * breakpoints,
    )
