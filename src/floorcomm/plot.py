"""Deterministic SVG maps of the member set in the dilation plane, as records.

``build_plot_model`` enumerates the member families inside a view box as
exact rational geometry, every element keeping the integer parameters that
produced it: curve samples clipped to the box, and segments and sporadic
points, each point once, from their integer formulas.  ``render_svg`` prints
every number through one of two pixel maps whose integer factors are fixed
per render, so each costs one correctly rounded ``int / int`` division,
printed to 6 decimals.  Identical specs yield byte-identical documents, and
tests can audit plotted elements without parsing coordinates.

The records are thin wrappers: ``PlotSpec`` checks its fields with
``_plot._check_spec``, ``build_plot_model`` wraps the tuples of
``_plot._model`` in records with ``Fraction`` coordinates, and
``render_svg`` passes a model's fields to ``_plot._render`` as integer
parts.  The CLI runs the same three functions without building a record.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._plot import COUNT_DEFAULTS, _check_spec, _model, _render
from .exact import Rat, require_type


@dataclass(frozen=True)
class PlotSpec:
    """View box and family bounds for one figure."""

    alpha_min: Rat
    alpha_max: Rat
    beta_min: Rat
    beta_max: Rat
    curve_bound: int = COUNT_DEFAULTS["curve_bound"]  # max m, n of the line and hyperbola families
    sporadic_r_bound: int = COUNT_DEFAULTS["sporadic_r_bound"]  # max r of the sporadic family
    den_bound: int = COUNT_DEFAULTS["den_bound"]  # max p for vertical segments and sporadic points
    samples: int = COUNT_DEFAULTS["samples"]  # polyline resolution per curve

    def __post_init__(self) -> None:
        box = _check_spec(
            self.alpha_min,
            self.alpha_max,
            self.beta_min,
            self.beta_max,
            self.curve_bound,
            self.sporadic_r_bound,
            self.den_bound,
            self.samples,
        )
        for name, bound in zip(("alpha_min", "alpha_max", "beta_min", "beta_max"), box):
            object.__setattr__(self, name, bound)


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


def _box(spec: PlotSpec) -> tuple[Rat, Rat, Rat, Rat]:
    return spec.alpha_min, spec.alpha_max, spec.beta_min, spec.beta_max


def build_plot_model(spec: PlotSpec) -> PlotModel:
    """Enumerate every family element of the member set visible in the box."""
    require_type(spec, PlotSpec)
    mixed, curves, segments, sporadics = _model(
        _box(spec), spec.curve_bound, spec.sporadic_r_bound, spec.den_bound, spec.samples
    )
    records = []
    for kind, m, n, grid, points in curves:
        if grid is not None:  # a run on the family's sample grid, (j, num, d) per point
            start, step, den = grid
            if kind == "pos_hyperbola":
                points = [((num, d), (start + step * j, den)) for j, num, d in points]
            else:
                points = [((start + step * j, den), (num, d)) for j, num, d in points]
        records.append(Curve(kind, m, n, tuple((Fraction(*a), Fraction(*b)) for a, b in points)))
    return PlotModel(
        spec,
        None if mixed is None else tuple(Fraction(*v) for v in mixed),
        tuple(records),
        tuple(VerticalSegment(p, q, Fraction(*a), Fraction(*lo), Fraction(*hi)) for p, q, a, lo, hi in segments),
        tuple(SporadicPoint(p, q, m, n, r, Fraction(*a), Fraction(*b)) for p, q, m, n, r, a, b in sporadics),
    )


def render_svg(model: PlotModel, width: int = 640) -> str:
    """Serialize a plot model as standalone SVG 1.1 text; width is an int >= 1."""
    require_type(model, PlotModel)
    # each coordinate as its (numerator, denominator); an int's denominator is 1
    region = None if model.mixed_region is None else tuple(v.as_integer_ratio() for v in model.mixed_region)
    curves = [
        (c.kind, c.m, c.n, None, [(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in c.points])
        for c in model.curves
    ]
    segments = [
        (s.p, s.q, s.alpha.as_integer_ratio(), s.beta_lo.as_integer_ratio(), s.beta_hi.as_integer_ratio())
        for s in model.segments
    ]
    sporadics = [
        (s.p, s.q, s.m, s.n, s.r, s.alpha.as_integer_ratio(), s.beta.as_integer_ratio()) for s in model.sporadics
    ]
    return _render(_box(model.spec), region, curves, segments, sporadics, width)
