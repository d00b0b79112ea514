"""Plot model enumeration and SVG rendering."""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from floorcomm.classify import NegSporadic, is_member, negative_witness
from floorcomm.floorfn import DilationPair
from floorcomm.plot import PlotSpec, SporadicPoint, build_plot_model, render_svg


def _spec(**overrides):
    base = dict(
        alpha_min=Fraction(-2),
        alpha_max=Fraction(2),
        beta_min=Fraction(-2),
        beta_max=Fraction(2),
    )
    base.update(overrides)
    return PlotSpec(**base)


def test_default_model_element_counts():
    model = build_plot_model(_spec())
    kinds = Counter(curve.kind for curve in model.curves)
    assert kinds == {
        "vertical": 2,
        "oblique": 2,
        "pos_hyperbola": 4,
        "neg_line": 2,
        "neg_hyperbola": 4,
    }
    assert [(seg.p, seg.q) for seg in model.segments] == [(1, 1), (1, 2), (2, 1), (2, 3)]
    assert model.sporadics == (
        SporadicPoint(1, 2, 0, 1, 2, Fraction(-2), Fraction(-4, 3)),
    )
    assert model.mixed_region == (Fraction(-2), Fraction(0), Fraction(0), Fraction(2))


def test_rendering_is_deterministic():
    spec = _spec()
    first = render_svg(build_plot_model(spec))
    second = render_svg(build_plot_model(spec))
    assert first == second


def test_no_curves_when_bound_is_zero():
    model = build_plot_model(_spec(curve_bound=0))
    assert model.curves == ()


def test_first_quadrant_viewbox_drops_negative_layers():
    model = build_plot_model(_spec(alpha_min=Fraction(0), beta_min=Fraction(0)))
    assert model.mixed_region is None
    assert model.segments == () and model.sporadics == ()
    assert all(curve.kind in ("vertical", "oblique", "pos_hyperbola") for curve in model.curves)


def test_curve_points_stay_inside_viewbox():
    spec = _spec(curve_bound=3, den_bound=3, sporadic_r_bound=3)
    model = build_plot_model(spec)
    for curve in model.curves:
        assert len(curve.points) >= 2
        for a, b in curve.points:
            assert spec.alpha_min <= a <= spec.alpha_max
            assert spec.beta_min <= b <= spec.beta_max


def test_plotted_families_reclassify_as_members():
    model = build_plot_model(_spec(curve_bound=3, den_bound=3, sporadic_r_bound=4))
    assert model.sporadics
    for point in model.sporadics:
        assert is_member(DilationPair(point.alpha, point.beta)), point
    for seg in model.segments:
        midpoint = (seg.beta_lo + seg.beta_hi) / 2
        assert is_member(DilationPair(seg.alpha, midpoint)), seg
        assert is_member(DilationPair(seg.alpha, Fraction(-1, seg.p)))


def test_each_sporadic_point_is_plotted_once():
    model = build_plot_model(_spec(den_bound=12, sporadic_r_bound=4))
    points = {(point.alpha, point.beta) for point in model.sporadics}
    assert len(model.sporadics) == len(points) == 3164


def test_every_sporadic_witness_within_the_bounds_is_plotted():
    spec = _spec(den_bound=6, sporadic_r_bound=4)
    plotted = {(point.alpha, point.beta) for point in build_plot_model(spec).sporadics}
    witnessed = 0
    for p in range(1, 7):
        for q in range(1, min(2 * p, 6) + 1):  # alpha = -q/p >= -2, q <= den_bound
            if gcd(p, q) != 1:
                continue
            alpha = Fraction(-q, p)
            # beta = -c/d strictly between -2/p and -1/p, the sporadic band
            for d in range(1, 241):
                for c in range(d // p + 1, (2 * d - 1) // p + 1):
                    if gcd(c, d) != 1:
                        continue
                    beta = Fraction(-c, d)
                    witness = negative_witness(alpha, beta)
                    if isinstance(witness, NegSporadic) and witness.r <= spec.sporadic_r_bound:
                        witnessed += 1
                        assert (alpha, beta) in plotted, witness
    assert witnessed == 75


def test_hyperbola_samples_lie_on_their_curves():
    model = build_plot_model(_spec())
    for curve in model.curves:
        for a, b in curve.points:
            if curve.kind == "pos_hyperbola":
                assert curve.m * a * b + curve.n * a == b
            elif curve.kind in ("neg_hyperbola", "neg_line"):
                assert curve.m * a * b - curve.n * b == -a


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(alpha_min=Fraction(2))  # empty box
    with pytest.raises(ValueError):
        _spec(curve_bound=-1)
    with pytest.raises(ValueError):
        _spec(sporadic_r_bound=0)
    with pytest.raises(ValueError):
        _spec(samples=1)


def test_spec_int_bounds_become_fractions():
    spec = PlotSpec(-2, 2, -2, 2)
    bounds = (spec.alpha_min, spec.alpha_max, spec.beta_min, spec.beta_max)
    assert all(type(bound) is Fraction for bound in bounds)
    assert spec == _spec()
    assert render_svg(build_plot_model(spec)) == render_svg(build_plot_model(_spec()))
    assert all(type(bound) is Fraction for bound in build_plot_model(spec).mixed_region)


@pytest.mark.parametrize("bad", [-2.0, 0.5, True, "1/2", None])
def test_spec_rejects_non_exact_bounds(bad):
    for bound in ("alpha_min", "alpha_max", "beta_min", "beta_max"):
        with pytest.raises(TypeError):
            _spec(**{bound: bad})
    with pytest.raises(TypeError):
        PlotSpec(-2.0, 2.0, -2.0, 2.0)


def test_svg_structure():
    svg = render_svg(build_plot_model(_spec()))
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    for group in (
        "axes",
        "mixed-sign-region",
        "positive-lines",
        "positive-hyperbolas",
        "negative-curves",
        "vertical-segments",
        "sporadic-points",
    ):
        assert f'<g id="{group}">' in svg
    assert 'data-alpha="-2" data-beta="-4/3"' in svg


@pytest.mark.parametrize("bad", [True, False, 2.0, 64.0, 2.5, "2", None, Fraction(2)])
def test_spec_rejects_non_int_counts(bad):
    for count in ("curve_bound", "sporadic_r_bound", "den_bound", "samples"):
        with pytest.raises(TypeError, match=count):
            _spec(**{count: bad})


def test_render_svg_refuses_widths_that_are_not_ints_of_at_least_one():
    model = build_plot_model(_spec(curve_bound=0))
    for bad in (0, -5):
        with pytest.raises(ValueError, match="width"):
            render_svg(model, width=bad)
    for bad in (True, 640.0, "640", Fraction(640)):
        with pytest.raises(TypeError, match="width"):
            render_svg(model, width=bad)
    assert 'width="1"' in render_svg(model, width=1)
