"""Deterministic SVG maps of the member set in the dilation plane.

``build_plot_model`` enumerates the member families inside a view box as
exact rational geometry, every element keeping the integer parameters that
produced it: curve samples are clipped to the box as integer numerator/
denominator pairs, and segments and sporadic points, each point once, come
from their integer formulas.  ``render_svg`` prints every number through one
of two pixel maps whose integer factors are fixed per render, so each costs
one correctly rounded ``int / int`` division, printed to 6 decimals.
Identical specs yield byte-identical documents, and tests can audit plotted
elements without parsing coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import Rat, as_rat, format_rat, rat_ceil, rat_floor, require_int


@dataclass(frozen=True)
class PlotSpec:
    """View box and family bounds for one figure."""

    alpha_min: Rat
    alpha_max: Rat
    beta_min: Rat
    beta_max: Rat
    curve_bound: int = 2  # max m, n of the line and hyperbola families
    sporadic_r_bound: int = 2  # max r of the sporadic family
    den_bound: int = 2  # max p for vertical segments and sporadic points
    samples: int = 64  # polyline resolution per curve

    def __post_init__(self) -> None:
        for bound in ("alpha_min", "alpha_max", "beta_min", "beta_max"):
            object.__setattr__(self, bound, as_rat(getattr(self, bound)))
        for count in ("curve_bound", "sporadic_r_bound", "den_bound", "samples"):
            require_int(getattr(self, count), count)
        if self.alpha_min >= self.alpha_max or self.beta_min >= self.beta_max:
            raise ValueError("empty view box")
        if self.curve_bound < 0 or self.sporadic_r_bound < 1 or self.den_bound < 1:
            raise ValueError("family bounds out of range")
        if self.samples < 2:
            raise ValueError("need at least 2 samples per curve")


@dataclass(frozen=True)
class Curve:
    """One polyline-sampled family member; points are exact rationals."""

    kind: str
    m: int
    n: int
    points: tuple[tuple[Rat, Rat], ...]


@dataclass(frozen=True)
class VerticalSegment:
    """Member segment alpha = -q/p, beta in [-1/p, 0), clipped to the box."""

    p: int
    q: int
    alpha: Rat
    beta_lo: Rat
    beta_hi: Rat


@dataclass(frozen=True)
class SporadicPoint:
    """Isolated member point in the negative quadrant, one per (alpha, beta)."""

    p: int
    q: int
    m: int  # the least (m, n, r) with r <= sporadic_r_bound that reaches the
    n: int  # point; classify's witness for the same pair can differ
    r: int
    alpha: Rat
    beta: Rat


@dataclass(frozen=True)
class PlotModel:
    spec: PlotSpec
    mixed_region: tuple[Rat, Rat, Rat, Rat] | None  # (a0, a1, b0, b1)
    curves: tuple[Curve, ...]
    segments: tuple[VerticalSegment, ...]
    sporadics: tuple[SporadicPoint, ...]


class _Samples:
    """count + 1 equally spaced samples of [lo, hi], kept as integer numerators.

    Sample j is t = lo + (hi - lo)*j/count = (start + step*j)/den with den > 0.
    Its ``Fraction`` is built the first time a curve keeps it and shared by
    every curve of the family after that.
    """

    def __init__(self, lo: Rat, hi: Rat, count: int) -> None:
        self.den = lo.denominator * hi.denominator * count
        self.start = lo.numerator * hi.denominator * count
        self.step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
        self.count = count
        self.values: list[Rat | None] = [None] * (count + 1)

    def runs(self, n: int, c: int, other_min: Rat, other_max: Rat) -> list[tuple[tuple[Rat, Rat], ...]]:
        """Maximal runs of two points or more of t -> (t, t/(n + c*t)) inside the box.

        The other coordinate of sample j is num_j/(n*den + c*num_j).  The
        caller keeps c*t >= 0, so that denominator is positive and the clip
        against [other_min, other_max] is two integer cross-multiplications;
        t itself stays in [lo, hi], which lies inside the box.  Fractions are
        built only for the points of the runs returned, in sampling order.
        """
        den, start, step = self.den, self.start, self.step
        min_num, min_den = other_min.numerator, other_min.denominator
        max_num, max_den = other_max.numerator, other_max.denominator
        runs: list[list[tuple[int, int, int]]] = []
        current: list[tuple[int, int, int]] = []
        for j in range(self.count + 1):
            num = start + step * j
            other_den = n * den + c * num
            if min_num * other_den <= num * min_den and num * max_den <= max_num * other_den:
                current.append((j, num, other_den))
            else:
                if len(current) >= 2:
                    runs.append(current)
                current = []
        if len(current) >= 2:
            runs.append(current)
        values = self.values
        for run in runs:
            for j, num, _ in run:
                if values[j] is None:
                    values[j] = Fraction(num, den)
        return [tuple((values[j], Fraction(num, other_den)) for j, num, other_den in run) for run in runs]


def build_plot_model(spec: PlotSpec) -> PlotModel:
    """Enumerate every family element of the member set visible in the box."""
    # The box's alpha <= 0 and beta >= 0 ranges, shared by the families below;
    # together they bound the mixed-sign quadrant, a full 2-D member region.
    a_lo, a_hi = spec.alpha_min, min(spec.alpha_max, Fraction(0))
    b_lo, b_hi = max(spec.beta_min, Fraction(0)), spec.beta_max
    mixed = (a_lo, a_hi, b_lo, b_hi) if a_lo < a_hi and b_lo < b_hi else None

    bound = spec.curve_bound
    curves: list[Curve] = []

    # Vertical member lines alpha = 1/m, beta > 0.
    if b_lo < b_hi:
        for m in range(1, bound + 1):
            alpha = Fraction(1, m)
            if spec.alpha_min <= alpha <= spec.alpha_max:
                curves.append(Curve("vertical", m, 0, ((alpha, b_lo), (alpha, b_hi))))

    # Oblique member lines beta = n*alpha through the origin, alpha > 0.
    for n in range(1, bound + 1):
        lo = max(Fraction(0), spec.alpha_min, spec.beta_min / n)
        hi = min(spec.alpha_max, spec.beta_max / n)
        if lo < hi:
            curves.append(Curve("oblique", 0, n, ((lo, n * lo), (hi, n * hi))))

    # Positive-quadrant hyperbolas m*alpha*beta + n*alpha = beta, sampled in
    # beta (single-valued, avoids the vertical asymptote at alpha = 1/m).
    if b_lo < b_hi:
        samples = _Samples(b_lo, b_hi, spec.samples)
        for m in range(1, bound + 1):
            for n in range(1, bound + 1):
                for run in samples.runs(n, m, spec.alpha_min, spec.alpha_max):
                    curves.append(Curve("pos_hyperbola", m, n, tuple((a, b) for b, a in run)))

    # Negative-quadrant curves m*alpha*beta - n*beta = -alpha, i.e.
    # beta = alpha/(n - m*alpha); m = 0 degenerates to the lines beta = alpha/n.
    if a_lo < a_hi:
        samples = _Samples(a_lo, a_hi, spec.samples)
        for m in range(0, bound + 1):
            kind = "neg_line" if m == 0 else "neg_hyperbola"
            for n in range(1, bound + 1):
                for run in samples.runs(n, -m, spec.beta_min, spec.beta_max):
                    curves.append(Curve(kind, m, n, run))

    # One walk over the coprime (p, q) with p <= den_bound and -q/p in the box: the
    # segment alpha = -q/p, beta in [-1/p, 0), and, for q <= den_bound, the sporadic
    # points alpha = -q/p, beta = -(1/p) / (1 + (m/p + n/q - 1)/r) with r bounded by
    # the spec.  The n range keeps t = p*q - m*q - n*p in (0, p*q), and beta is
    # -r*q / (r*p*q - t), a function of t/r, kept once at its least (m, n, r).
    segments: list[VerticalSegment] = []
    sporadics: list[SporadicPoint] = []
    beta_hi = min(spec.beta_max, Fraction(0))
    for p in range(1, spec.den_bound + 1):
        beta_lo = max(spec.beta_min, Fraction(-1, p))
        for q in range(max(1, rat_ceil(-spec.alpha_max * p)), rat_floor(-spec.alpha_min * p) + 1):
            if gcd(p, q) != 1:
                continue
            alpha = Fraction(-q, p)
            if beta_lo < beta_hi:
                segments.append(VerticalSegment(p, q, alpha, beta_lo, beta_hi))
            if q > spec.den_bound:
                continue
            pq = p * q
            seen: set[Rat] = set()
            for m in range(p):
                for n in range(1, (pq - m * q - 1) // p + 1):
                    for r in range(2, spec.sporadic_r_bound + 1):
                        beta = Fraction(-r * q, (r - 1) * pq + m * q + n * p)
                        if spec.beta_min <= beta <= spec.beta_max and beta not in seen:
                            seen.add(beta)
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


def _pixel_map(origin: Rat, span: Rat, pixels: int):
    """The function v -> (v - origin) / span * pixels as 6-decimal text, its factors fixed once.

    (x/d - p/q) / span * pixels is (x*q*k - d*p*k) / (d*q*num(span)) with
    k = pixels*den(span).  The denominator is positive, so a zero prints as
    0.000000 and never as -0.000000.  Python rounds the one ``int / int``
    division correctly, so the text is that of the exact rational rounded
    to the nearest float.
    """
    scale = pixels * span.denominator
    x_factor, d_factor = origin.denominator * scale, origin.numerator * scale
    den_factor = origin.denominator * span.numerator

    def to_text(value: Rat) -> str:
        d = value.denominator
        return f"{(value.numerator * x_factor - d * d_factor) / (d * den_factor):.6f}"

    return to_text


def render_svg(model: PlotModel, width: int = 640) -> str:
    """Serialize a plot model as standalone SVG 1.1 text; width is an int >= 1."""
    require_int(width, "width")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    spec = model.spec
    a_span = spec.alpha_max - spec.alpha_min
    b_span = spec.beta_max - spec.beta_min
    height = max(1, round(Fraction(width) * b_span / a_span))

    sx = _pixel_map(spec.alpha_min, a_span, width)
    # (beta_max - b) / b_span * height, the y axis pointing down
    sy = _pixel_map(spec.beta_max, b_span, -height)

    groups: dict[str, list[str]] = {name: [] for name in _GROUP_ORDER}

    if model.mixed_region is not None:
        a0, a1, b0, b1 = model.mixed_region
        groups["mixed-sign-region"].append(
            f'<rect x="{sx(a0)}" y="{sy(b1)}"'
            # a0 is alpha_min and b1 is beta_max, so these are a1 - a0 and b1 - b0 in pixels
            f' width="{sx(a1)}" height="{sy(b0)}"'
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
        lines.append(f'<line x1="{x0}" y1="{sy(spec.beta_max)}" x2="{x0}" y2="{sy(spec.beta_min)}" stroke="#888888" stroke-width="1"/>')
    if spec.beta_min <= 0 <= spec.beta_max:
        y0 = sy(Fraction(0))
        lines.append(f'<line x1="{sx(spec.alpha_min)}" y1="{y0}" x2="{sx(spec.alpha_max)}" y2="{y0}" stroke="#888888" stroke-width="1"/>')
    lines.append("</g>")
    for name in _GROUP_ORDER:
        lines.append(f'<g id="{name}">')
        lines.extend(groups[name])
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
