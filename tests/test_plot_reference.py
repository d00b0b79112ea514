"""The integer plot pipeline against the Fraction reference pipeline.

The model must be equal element by element, exact ``Fraction``s included,
and the SVG text byte-identical, on fixed specs and on random rational view
boxes.  The reference appends a sporadic point once per (m, n, r) that
reaches it; ``floorcomm.plot`` keeps each point once, with the first triple
of that walk, so the reference's sporadics are cut to the first element per
(alpha, beta) before both comparisons.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorcomm.plot import PlotModel, PlotSpec, build_plot_model, render_svg
from reference_plot import reference_build_plot_model, reference_render_svg

FIXED_SPECS = {
    "default": PlotSpec(-2, 2, -2, 2),
    "cli_workload": PlotSpec(-2, 2, -2, 2, curve_bound=6, den_bound=6, sporadic_r_bound=4, samples=256),
    "first_quadrant": PlotSpec(0, 2, 0, 2, curve_bound=3),
    "zero_excluded": PlotSpec(Fraction(1, 3), Fraction(5, 2), Fraction(1, 4), 3, curve_bound=3, samples=37),
    "negative_quadrant_without_zero": PlotSpec(-3, Fraction(-1, 2), -2, Fraction(-1, 5), den_bound=4, sporadic_r_bound=3),
    # curves through the origin, which sits on the box's edge: pixel coordinates of exactly 0
    "origin_corner_negative": PlotSpec(-1, 0, -1, 0, curve_bound=3, samples=9),
    "origin_corner_positive": PlotSpec(0, 1, 0, 1, curve_bound=3, samples=9),
    "viewbox_cli": PlotSpec(-3, 3, -3, 3, curve_bound=3, den_bound=3, sporadic_r_bound=3),
    "skewed": PlotSpec(Fraction(-7, 3), Fraction(5, 2), Fraction(-1, 3), Fraction(9, 4), samples=17),
    # 3 164 sporadic points that the reference lists as 4 200 (m, n, r) elements
    "den_bound_12": PlotSpec(-2, 2, -2, 2, den_bound=12, sporadic_r_bound=4),
    # segments at p = 1, 2 with q up to 9, past den_bound; sporadic points at p <= 4, all with q >= 2
    "negative_box_q_above_one": PlotSpec(-5, Fraction(-3, 4), Fraction(-3, 2), Fraction(-1, 3), den_bound=5, sporadic_r_bound=3),
}


def first_triple_per_point(model: PlotModel) -> PlotModel:
    firsts = {}
    for point in model.sporadics:
        firsts.setdefault((point.alpha, point.beta), point)
    return replace(model, sporadics=tuple(firsts.values()))


def assert_same_plot(spec: PlotSpec, width: int) -> None:
    model = build_plot_model(spec)
    reference = first_triple_per_point(reference_build_plot_model(spec))
    assert model == reference
    for curve in model.curves:
        assert all(type(v) is Fraction for point in curve.points for v in point)
    svg = render_svg(model, width=width)
    assert svg == reference_render_svg(reference, width=width)
    assert "-0.000000" not in svg


@pytest.mark.parametrize("width", [640, 333])
@pytest.mark.parametrize("name", sorted(FIXED_SPECS))
def test_fixed_specs_match_reference(name, width):
    assert_same_plot(FIXED_SPECS[name], width)


def test_zero_pixel_coordinates_are_plotted():
    svg = render_svg(build_plot_model(FIXED_SPECS["origin_corner_negative"]))
    assert 'y2="0.000000"' in svg or ",0.000000" in svg


bounds = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=100)
@given(
    alpha=st.lists(bounds, min_size=2, max_size=2, unique=True).map(sorted),
    beta=st.lists(bounds, min_size=2, max_size=2, unique=True).map(sorted),
    curve_bound=st.integers(0, 4),
    sporadic_r_bound=st.integers(1, 4),
    den_bound=st.integers(1, 4),
    samples=st.integers(2, 80),
    width=st.sampled_from([640, 333, 1, 97]),
)
def test_random_view_boxes_match_reference(alpha, beta, curve_bound, sporadic_r_bound, den_bound, samples, width):
    spec = PlotSpec(
        alpha[0],
        alpha[1],
        beta[0],
        beta[1],
        curve_bound=curve_bound,
        sporadic_r_bound=sporadic_r_bound,
        den_bound=den_bound,
        samples=samples,
    )
    assert_same_plot(spec, width)
