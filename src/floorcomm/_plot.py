"""The figure of the member set on integer numerator and denominator parts, in plain tuples.

A coordinate is a pair (num, den) with den > 0, not always in lowest terms.
``_check_spec`` checks a view box and the family bounds, ``_model``
enumerates the figure's elements inside the box and ``_render`` prints them
as SVG.  ``_model`` returns four parts:

    mixed      None, or the mixed-sign quadrant's corners (a0, a1, b0, b1)
    curves     (kind, m, n, grid, points).  With grid None, points are
               (alpha, beta) coordinate pairs.  Otherwise grid is the
               family's sample grid (start, step, den), shared by its
               curves, whose sample j is (start + step*j)/den, and points is
               one run of (j, num, den): the sampled coordinate is sample j
               and the other is num/den.  ``pos_hyperbola`` samples beta and
               the negative curves sample alpha.
    segments   (p, q, alpha, beta_lo, beta_hi)
    sporadics  (p, q, m, n, r, alpha, beta)

The records of ``plot`` hold the same fields with ``Fraction`` coordinates:
``build_plot_model`` wraps these tuples and ``render_svg`` unwraps a model
for ``_render``.  The CLI calls the three functions and builds no record.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import Rat, _rat_text, as_rat, require_int

Pair = tuple[int, int]  # num, den with den > 0

# the family bounds and the polyline resolution that a PlotSpec and the CLI default to
COUNT_DEFAULTS = {"curve_bound": 2, "sporadic_r_bound": 2, "den_bound": 2, "samples": 64}

_ZERO = (0, 1)


def _check_spec(
    alpha_min: Rat | int,
    alpha_max: Rat | int,
    beta_min: Rat | int,
    beta_max: Rat | int,
    curve_bound: int,
    sporadic_r_bound: int,
    den_bound: int,
    samples: int,
) -> tuple[Rat, Rat, Rat, Rat]:
    """The view box (alpha_min, alpha_max, beta_min, beta_max) as Rats, after the checks of a PlotSpec, in this order.

    TypeError for a bound that ``as_rat`` refuses, then for a count that is
    not an int; ValueError for an empty box, then for family bounds out of
    range, then for fewer than 2 samples.
    """
    box = tuple(map(as_rat, (alpha_min, alpha_max, beta_min, beta_max)))
    counts = (curve_bound, sporadic_r_bound, den_bound, samples)
    for name, count in zip(COUNT_DEFAULTS, counts):
        require_int(count, name)
    if box[0] >= box[1] or box[2] >= box[3]:
        raise ValueError("empty view box")
    if curve_bound < 0 or sporadic_r_bound < 1 or den_bound < 1:
        raise ValueError("family bounds out of range")
    if samples < 2:
        raise ValueError("need at least 2 samples per curve")
    return box


def _lt(x: Pair, y: Pair) -> bool:
    return x[0] * y[1] < y[0] * x[1]


def _min(x: Pair, y: Pair) -> Pair:
    return y if _lt(y, x) else x


def _max(x: Pair, y: Pair) -> Pair:
    return y if _lt(x, y) else x


def _grid(lo: Pair, hi: Pair, count: int) -> tuple[int, int, int]:
    """count + 1 equally spaced samples of [lo, hi]: sample j is (start + step*j)/den, den > 0."""
    return lo[0] * hi[1] * count, hi[0] * lo[1] - lo[0] * hi[1], lo[1] * hi[1] * count


def _runs(grid: tuple[int, int, int], count: int, n: int, c: int, lo: Pair, hi: Pair) -> list[tuple]:
    """Maximal runs of two points or more of t -> (t, t/(n + c*t)) whose other coordinate is in [lo, hi].

    Sample j is t = num/den, and the other coordinate is num/(n*den + c*num).
    The caller keeps c*t >= 0, so that denominator is positive and the clip
    is two integer cross-multiplications; t itself stays in the grid's
    range, which lies inside the box.
    """
    start, step, den = grid
    lo_num, lo_den = lo
    hi_num, hi_den = hi
    n_den = n * den
    runs: list[tuple] = []
    current: list[tuple[int, int, int]] = []
    num = start
    for j in range(count + 1):
        other_den = n_den + c * num
        if lo_num * other_den <= num * lo_den and num * hi_den <= hi_num * other_den:
            current.append((j, num, other_den))
        elif current:
            if len(current) >= 2:
                runs.append(tuple(current))
            current = []
        num += step
    if len(current) >= 2:
        runs.append(tuple(current))
    return runs


def _model(
    box: tuple[Rat, Rat, Rat, Rat], curve_bound: int, sporadic_r_bound: int, den_bound: int, samples: int
) -> tuple[tuple[Pair, Pair, Pair, Pair] | None, list[tuple], list[tuple], list[tuple]]:
    """Every family element of the member set visible in a checked box, as (mixed, curves, segments, sporadics)."""
    a_min, a_max, b_min, b_max = (v.as_integer_ratio() for v in box)
    # The box's alpha <= 0 and beta >= 0 ranges, shared by the families below;
    # together they bound the mixed-sign quadrant, a full 2-D member region.
    a_lo, a_hi = a_min, _min(a_max, _ZERO)
    b_lo, b_hi = _max(b_min, _ZERO), b_max
    negative_alpha, positive_beta = _lt(a_lo, a_hi), _lt(b_lo, b_hi)
    mixed = (a_lo, a_hi, b_lo, b_hi) if negative_alpha and positive_beta else None

    curves: list[tuple] = []

    # Vertical member lines alpha = 1/m, beta > 0.
    if positive_beta:
        for m in range(1, curve_bound + 1):
            alpha = (1, m)
            if not _lt(alpha, a_min) and not _lt(a_max, alpha):
                curves.append(("vertical", m, 0, None, ((alpha, b_lo), (alpha, b_hi))))

    # Oblique member lines beta = n*alpha through the origin, alpha > 0.
    for n in range(1, curve_bound + 1):
        lo = _max(_max(_ZERO, a_min), (b_min[0], b_min[1] * n))
        hi = _min(a_max, (b_max[0], b_max[1] * n))
        if _lt(lo, hi):
            curves.append(("oblique", 0, n, None, ((lo, (n * lo[0], lo[1])), (hi, (n * hi[0], hi[1])))))

    # Positive-quadrant hyperbolas m*alpha*beta + n*alpha = beta, sampled in
    # beta (single-valued, avoids the vertical asymptote at alpha = 1/m).
    if positive_beta:
        grid = _grid(b_lo, b_hi, samples)
        for m in range(1, curve_bound + 1):
            for n in range(1, curve_bound + 1):
                for run in _runs(grid, samples, n, m, a_min, a_max):
                    curves.append(("pos_hyperbola", m, n, grid, run))

    # Negative-quadrant curves m*alpha*beta - n*beta = -alpha, i.e.
    # beta = alpha/(n - m*alpha); m = 0 degenerates to the lines beta = alpha/n.
    if negative_alpha:
        grid = _grid(a_lo, a_hi, samples)
        for m in range(0, curve_bound + 1):
            kind = "neg_line" if m == 0 else "neg_hyperbola"
            for n in range(1, curve_bound + 1):
                for run in _runs(grid, samples, n, -m, b_min, b_max):
                    curves.append((kind, m, n, grid, run))

    # One walk over the coprime (p, q) with p <= den_bound and -q/p in the box: the
    # segment alpha = -q/p, beta in [-1/p, 0), and, for q <= den_bound, the sporadic
    # points alpha = -q/p, beta = -(1/p) / (1 + (m/p + n/q - 1)/r) with r bounded by
    # the spec.  The n range keeps t = p*q - m*q - n*p in (0, p*q), and beta is
    # -r*q / (r*p*q - t), a function of t/r: a point is kept once, at its least
    # (m, n, r), by its reduced (t, r).
    segments: list[tuple] = []
    sporadics: list[tuple] = []
    beta_hi = _min(b_max, _ZERO)
    min_num, min_den = b_min
    max_num, max_den = b_max
    for p in range(1, den_bound + 1):
        beta_lo = _max(b_min, (-1, p))
        has_segment = _lt(beta_lo, beta_hi)
        # q from ceil(-alpha_max*p) to floor(-alpha_min*p)
        for q in range(max(1, -(a_max[0] * p // a_max[1])), -a_min[0] * p // a_min[1] + 1):
            if gcd(p, q) != 1:
                continue
            alpha = (-q, p)
            if has_segment:
                segments.append((p, q, alpha, beta_lo, beta_hi))
            if q > den_bound:
                continue
            pq = p * q
            seen: set[tuple[int, int]] = set()
            for m in range(p):
                for n in range(1, (pq - m * q - 1) // p + 1):
                    t = pq - m * q - n * p
                    for r in range(2, sporadic_r_bound + 1):
                        num, den = -r * q, r * pq - t
                        if min_num * den <= num * min_den and num * max_den <= max_num * den:
                            g = gcd(t, r)
                            key = (t // g, r // g)
                            if key not in seen:
                                seen.add(key)
                                sporadics.append((p, q, m, n, r, alpha, (num, den)))

    return mixed, curves, segments, sporadics


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


def _pixel_map(origin: Pair, span: Pair, pixels: int):
    """The function (x, d) -> (x/d - origin) / span * pixels as 6-decimal text, its factors fixed once.

    (x/d - p/q) / (s/u) * pixels is (x*q*k - d*p*k) / (d*q*s) with
    k = pixels*u.  The denominator is positive, so a zero prints as 0.000000
    and never as -0.000000.  Python rounds the one ``int / int`` division
    correctly, so the text is that of the exact rational rounded to the
    nearest float, whether or not any pair is in lowest terms.
    """
    scale = pixels * span[1]
    x_factor, d_factor = origin[1] * scale, origin[0] * scale
    den_factor = origin[1] * span[0]

    def to_text(x: int, d: int) -> str:
        return f"{(x * x_factor - d * d_factor) / (d * den_factor):.6f}"

    return to_text


def _render(
    box: tuple[Rat, Rat, Rat, Rat],
    mixed: tuple[Pair, Pair, Pair, Pair] | None,
    curves: list[tuple],
    segments: list[tuple],
    sporadics: list[tuple],
    width: int,
) -> str:
    """The parts of ``_model`` in a checked box as standalone SVG 1.1 text; width is an int >= 1."""
    require_int(width, "width")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    a_min, a_max, b_min, b_max = (v.as_integer_ratio() for v in box)
    a_span = (a_max[0] * a_min[1] - a_min[0] * a_max[1], a_min[1] * a_max[1])
    b_span = (b_max[0] * b_min[1] - b_min[0] * b_max[1], b_min[1] * b_max[1])
    height = max(1, round(Fraction(width * b_span[0] * a_span[1], b_span[1] * a_span[0])))

    sx = _pixel_map(a_min, a_span, width)
    # (beta_max - b) / b_span * height, the y axis pointing down
    sy = _pixel_map(b_max, b_span, -height)

    groups: dict[str, list[str]] = {name: [] for name in _GROUP_ORDER}

    if mixed is not None:
        a0, a1, b0, b1 = mixed
        groups["mixed-sign-region"].append(
            f'<rect x="{sx(*a0)}" y="{sy(*b1)}"'
            # a0 is alpha_min and b1 is beta_max, so these are a1 - a0 and b1 - b0 in pixels
            f' width="{sx(*a1)}" height="{sy(*b0)}"'
            f' fill="#bbbbbb" fill-opacity="0.35" stroke="none"/>'
        )

    # the pixel texts of a sample grid's samples 0, 1, ..., by sampled axis and grid:
    # a sampled coordinate's text depends only on j, so it is printed once per family
    sampled_texts: dict[tuple[bool, tuple[int, int, int]], list[str]] = {}
    for kind, m, n, grid, points in curves:
        group, color = _CURVE_STYLE[kind]
        meta = f'class="{kind}" data-m="{m}" data-n="{n}"'
        if grid is None:
            coords = [(sx(*a), sy(*b)) for a, b in points]
        else:
            beta_sampled = kind == "pos_hyperbola"
            texts = sampled_texts.setdefault((beta_sampled, grid), [])
            start, step, den = grid
            to_text = sy if beta_sampled else sx
            texts.extend(to_text(start + step * j, den) for j in range(len(texts), points[-1][0] + 1))
            if beta_sampled:
                coords = [(sx(num, d), texts[j]) for j, num, d in points]
            else:
                coords = [(texts[j], sy(num, d)) for j, num, d in points]
        if len(coords) == 2:
            (xa, ya), (xb, yb) = coords
            groups[group].append(
                f'<line {meta} x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}"'
                f' stroke="{color}" stroke-width="1.2" fill="none"/>'
            )
        else:
            groups[group].append(
                f'<polyline {meta} points="{" ".join(map(",".join, coords))}" stroke="{color}"'
                f' stroke-width="1.2" fill="none"/>'
            )

    for p, q, alpha, beta_lo, beta_hi in segments:
        x = sx(*alpha)
        groups["vertical-segments"].append(
            f'<line class="segment" data-p="{p}" data-q="{q}"'
            f' data-alpha="{_rat_text(*alpha)}"'
            f' x1="{x}" y1="{sy(*beta_lo)}"'
            f' x2="{x}" y2="{sy(*beta_hi)}"'
            f' stroke="#d62728" stroke-width="1.6" fill="none"/>'
        )

    # the points of one alpha are consecutive, so its texts are printed once
    last_alpha = None
    for p, q, m, n, r, alpha, beta in sporadics:
        if alpha != last_alpha:
            last_alpha, alpha_text, x = alpha, _rat_text(*alpha), sx(*alpha)
        groups["sporadic-points"].append(
            f'<circle class="sporadic" data-p="{p}" data-q="{q}" data-m="{m}"'
            f' data-n="{n}" data-r="{r}" data-alpha="{alpha_text}"'
            f' data-beta="{_rat_text(*beta)}"'
            f' cx="{x}" cy="{sy(*beta)}" r="3" fill="#d62728"/>'
        )

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<g id="axes">',
    ]
    if a_min[0] <= 0 <= a_max[0]:
        x0 = sx(*_ZERO)
        lines.append(f'<line x1="{x0}" y1="{sy(*b_max)}" x2="{x0}" y2="{sy(*b_min)}" stroke="#888888" stroke-width="1"/>')
    if b_min[0] <= 0 <= b_max[0]:
        y0 = sy(*_ZERO)
        lines.append(f'<line x1="{sx(*a_min)}" y1="{y0}" x2="{sx(*a_max)}" y2="{y0}" stroke="#888888" stroke-width="1"/>')
    lines.append("</g>")
    for name in _GROUP_ORDER:
        lines.append(f'<g id="{name}">')
        lines.extend(groups[name])
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
