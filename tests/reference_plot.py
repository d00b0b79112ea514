"""Reference plot pipeline: every sample, clip and pixel in Fraction arithmetic.

This is the plot floorcomm shipped before ``floorcomm.plot`` moved curve
sampling, box clipping and the pixel maps onto integer numerators and
denominators.  Every sample is a ``Fraction``, every clip compares
``Fraction``s and every coordinate goes through ``float(Fraction)``, so it is
slow but plainly exact; the differential tests check that the fast pipeline
yields equal models and byte-identical SVG.
"""

from fractions import Fraction
from math import gcd

from floorcomm.exact import Rat, format_rat
from floorcomm.plot import Curve, PlotModel, PlotSpec, SporadicPoint, VerticalSegment


def _steps(lo: Rat, hi: Rat, count: int) -> list[Rat]:
    span = hi - lo
    return [lo + span * j / count for j in range(count + 1)]


def _in_box(spec: PlotSpec, point: tuple[Rat, Rat]) -> bool:
    a, b = point
    return spec.alpha_min <= a <= spec.alpha_max and spec.beta_min <= b <= spec.beta_max


def _runs_in_box(spec: PlotSpec, points: list[tuple[Rat, Rat]]) -> list[tuple[tuple[Rat, Rat], ...]]:
    """Maximal in-box runs of at least two points, in sampling order."""
    runs: list[tuple[tuple[Rat, Rat], ...]] = []
    current: list[tuple[Rat, Rat]] = []
    for point in points:
        if _in_box(spec, point):
            current.append(point)
        else:
            if len(current) >= 2:
                runs.append(tuple(current))
            current = []
    if len(current) >= 2:
        runs.append(tuple(current))
    return runs


def reference_build_plot_model(spec: PlotSpec) -> PlotModel:
    """Enumerate every family element of the member set visible in the box."""
    curves: list[Curve] = []

    # Mixed-sign quadrant (alpha <= 0, beta >= 0): a full 2-D member region.
    a0, a1 = spec.alpha_min, min(spec.alpha_max, Fraction(0))
    b0, b1 = max(spec.beta_min, Fraction(0)), spec.beta_max
    mixed = (a0, a1, b0, b1) if a0 < a1 and b0 < b1 else None

    bound = spec.curve_bound

    # Vertical member lines alpha = 1/m, beta > 0.
    for m in range(1, bound + 1):
        alpha = Fraction(1, m)
        b_lo, b_hi = max(spec.beta_min, Fraction(0)), spec.beta_max
        if spec.alpha_min <= alpha <= spec.alpha_max and b_lo < b_hi:
            curves.append(Curve("vertical", m, 0, ((alpha, b_lo), (alpha, b_hi))))

    # Oblique member lines beta = n*alpha through the origin, alpha > 0.
    for n in range(1, bound + 1):
        a_lo = max(Fraction(0), spec.alpha_min, spec.beta_min / n)
        a_hi = min(spec.alpha_max, spec.beta_max / n)
        if a_lo < a_hi:
            curves.append(Curve("oblique", 0, n, ((a_lo, n * a_lo), (a_hi, n * a_hi))))

    # Positive-quadrant hyperbolas m*alpha*beta + n*alpha = beta, sampled in
    # beta (single-valued, avoids the vertical asymptote at alpha = 1/m).
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            b_lo, b_hi = max(spec.beta_min, Fraction(0)), spec.beta_max
            if b_lo >= b_hi:
                continue
            pts = [(b / (n + m * b), b) for b in _steps(b_lo, b_hi, spec.samples)]
            for run in _runs_in_box(spec, pts):
                curves.append(Curve("pos_hyperbola", m, n, run))

    # Negative-quadrant curves m*alpha*beta - n*beta = -alpha, i.e.
    # beta = alpha/(n - m*alpha); m = 0 degenerates to the lines beta = alpha/n.
    for m in range(0, bound + 1):
        for n in range(1, bound + 1):
            a_lo, a_hi = spec.alpha_min, min(spec.alpha_max, Fraction(0))
            if a_lo >= a_hi:
                continue
            pts = [(a, a / (n - m * a)) for a in _steps(a_lo, a_hi, spec.samples)]
            kind = "neg_line" if m == 0 else "neg_hyperbola"
            for run in _runs_in_box(spec, pts):
                curves.append(Curve(kind, m, n, run))

    # Vertical member segments alpha = -q/p, beta in [-1/p, 0); p bounded by
    # den_bound, q only by the view box.
    segments: list[VerticalSegment] = []
    for p in range(1, spec.den_bound + 1):
        q = 1
        while True:
            alpha = Fraction(-q, p)
            if alpha < spec.alpha_min:
                break
            if gcd(p, q) == 1 and alpha <= spec.alpha_max:
                beta_lo = max(spec.beta_min, Fraction(-1, p))
                beta_hi = min(spec.beta_max, Fraction(0))
                if beta_lo < beta_hi:
                    segments.append(VerticalSegment(p, q, alpha, beta_lo, beta_hi))
            q += 1

    # Sporadic member points; p, q and r all bounded by the spec.
    sporadics: list[SporadicPoint] = []
    for p in range(1, spec.den_bound + 1):
        for q in range(1, spec.den_bound + 1):
            if gcd(p, q) != 1:
                continue
            alpha = Fraction(-q, p)
            for m in range(p):
                for n in range(1, q + 1):
                    share = Fraction(m, p) + Fraction(n, q)
                    if not 0 < share < 1:
                        continue
                    for r in range(2, spec.sporadic_r_bound + 1):
                        beta = Fraction(-1, p) / (1 + Fraction(1, r) * (share - 1))
                        if _in_box(spec, (alpha, beta)):
                            sporadics.append(SporadicPoint(p, q, m, n, r, alpha, beta))

    return PlotModel(spec, mixed, tuple(curves), tuple(segments), tuple(sporadics))


_CURVE_STYLE = {
    "vertical": ("positive-lines", "#d62728"),
    "oblique": ("positive-lines", "#1f77b4"),
    "pos_hyperbola": ("positive-hyperbolas", "#2ca02c"),
    "neg_line": ("negative-curves", "#1f77b4"),
    "neg_hyperbola": ("negative-curves", "#2ca02c"),
}

_GROUP_ORDER = (
    "mixed-sign-region",
    "positive-lines",
    "positive-hyperbolas",
    "negative-curves",
    "vertical-segments",
    "sporadic-points",
)


def _fmt(value: Rat) -> str:
    return f"{float(value):.6f}"


def reference_render_svg(model: PlotModel, width: int = 640) -> str:
    """Serialize a plot model as standalone SVG 1.1 text."""
    spec = model.spec
    a_span = spec.alpha_max - spec.alpha_min
    b_span = spec.beta_max - spec.beta_min
    height = max(1, round(Fraction(width) * b_span / a_span))

    def sx(a: Rat) -> str:
        return _fmt((a - spec.alpha_min) / a_span * width)

    def sy(b: Rat) -> str:
        return _fmt((spec.beta_max - b) / b_span * height)

    groups: dict[str, list[str]] = {name: [] for name in _GROUP_ORDER}

    if model.mixed_region is not None:
        a0, a1, b0, b1 = model.mixed_region
        groups["mixed-sign-region"].append(
            f'<rect x="{sx(a0)}" y="{sy(b1)}"'
            f' width="{_fmt((a1 - a0) / a_span * width)}"'
            f' height="{_fmt((b1 - b0) / b_span * height)}"'
            f' fill="#bbbbbb" fill-opacity="0.35" stroke="none"/>'
        )

    for curve in model.curves:
        group, color = _CURVE_STYLE[curve.kind]
        meta = f'class="{curve.kind}" data-m="{curve.m}" data-n="{curve.n}"'
        if len(curve.points) == 2:
            (xa, ya), (xb, yb) = curve.points
            groups[group].append(
                f'<line {meta} x1="{sx(xa)}" y1="{sy(ya)}" x2="{sx(xb)}" y2="{sy(yb)}"'
                f' stroke="{color}" stroke-width="1.2" fill="none"/>'
            )
        else:
            coords = " ".join(f"{sx(a)},{sy(b)}" for a, b in curve.points)
            groups[group].append(
                f'<polyline {meta} points="{coords}" stroke="{color}"'
                f' stroke-width="1.2" fill="none"/>'
            )

    for seg in model.segments:
        groups["vertical-segments"].append(
            f'<line class="segment" data-p="{seg.p}" data-q="{seg.q}"'
            f' data-alpha="{format_rat(seg.alpha)}"'
            f' x1="{sx(seg.alpha)}" y1="{sy(seg.beta_lo)}"'
            f' x2="{sx(seg.alpha)}" y2="{sy(seg.beta_hi)}"'
            f' stroke="#d62728" stroke-width="1.6" fill="none"/>'
        )

    for pt in model.sporadics:
        groups["sporadic-points"].append(
            f'<circle class="sporadic" data-p="{pt.p}" data-q="{pt.q}" data-m="{pt.m}"'
            f' data-n="{pt.n}" data-r="{pt.r}" data-alpha="{format_rat(pt.alpha)}"'
            f' data-beta="{format_rat(pt.beta)}"'
            f' cx="{sx(pt.alpha)}" cy="{sy(pt.beta)}" r="3" fill="#d62728"/>'
        )

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<g id="axes">',
    ]
    if spec.alpha_min <= 0 <= spec.alpha_max:
        x0 = sx(Fraction(0))
        lines.append(f'<line x1="{x0}" y1="0.000000" x2="{x0}" y2="{_fmt(Fraction(height))}" stroke="#888888" stroke-width="1"/>')
    if spec.beta_min <= 0 <= spec.beta_max:
        y0 = sy(Fraction(0))
        lines.append(f'<line x1="0.000000" y1="{y0}" x2="{_fmt(Fraction(width))}" y2="{y0}" stroke="#888888" stroke-width="1"/>')
    lines.append("</g>")
    for name in _GROUP_ORDER:
        lines.append(f'<g id="{name}">')
        lines.extend(groups[name])
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
