"""Reference period oracle: the breakpoint sets materialised, merged and sorted.

This is the oracle floorcomm shipped before the streaming walk in
``floorcomm.floorfn``.  It builds both progressions as sets, sorts their
union and evaluates every sample with four big-integer products and four
divisions, so it is obviously exhaustive but needs memory linear in the
breakpoint count; the differential tests only call it on small periods.
"""

from fractions import Fraction

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
