"""Exact classification of dilated floor function pairs by commutator sign.

Decides, for rational dilation factors (alpha, beta), whether

    floor(alpha * floor(beta * x)) >= floor(beta * floor(alpha * x))

holds for every real x, producing a certifying integer witness for members
and an explicit violating point for non-members, with every verdict
cross-checkable against an exhaustive exact oracle over one period.  Also
ships the equivalent criteria the classification rests on: integer rounding
comparisons, reduced Beatty sequence disjointness, lattice avoidance of the
enlarged diagonal, torus corner-rectangle avoidance, and two-generator
numerical semigroup membership.
"""

from .beatty import (
    beatty_contains,
    beatty_pos_contains,
    disjointness_witness,
    reduced_contains,
    reduced_disjoint,
)
from .classify import (
    AxisZero,
    MixedNegPos,
    MuNu,
    NegHyperbola,
    NegSporadic,
    NegVertical,
    PositiveLinear,
    SigmaTau,
    Verdict,
    Witness,
    birational,
    classify,
    from_munu,
    from_sigmatau,
    is_member,
    negative_witness,
    positive_witness,
    symmetry_scale_second,
    symmetry_shrink,
    to_munu,
    to_sigmatau,
)
from .exact import Rat, as_rat, format_rat, parse_rat, rat, rat_ceil, rat_floor
from .floorfn import (
    DilationPair,
    OracleReport,
    commutator,
    dilated_floor,
    integer_rounding_check,
    lower_round,
    oracle_verify,
    rounding_order,
    upper_round,
)
from .geometry import (
    CornerRect,
    LatticeParams,
    circle_arc_contains,
    frac_part,
    in_enlarged_diagonal,
    lattice_diag_disjoint,
    torus_point_in_corner,
    torus_subgroup_avoids,
)
from .plot import PlotModel, PlotSpec, build_plot_model, render_svg
from .preorder import Preorder, audit_transitivity, equivalence_classes, equivalent, precedes
from .semigroup import SemigroupPair, frobenius_number, nonrealizing_set, sg_contains, sylvester_duality_holds

__version__ = "0.1.0"

__all__ = [
    "AxisZero",
    "CornerRect",
    "DilationPair",
    "LatticeParams",
    "MixedNegPos",
    "MuNu",
    "NegHyperbola",
    "NegSporadic",
    "NegVertical",
    "OracleReport",
    "PlotModel",
    "PlotSpec",
    "PositiveLinear",
    "Preorder",
    "Rat",
    "SemigroupPair",
    "SigmaTau",
    "Verdict",
    "Witness",
    "as_rat",
    "audit_transitivity",
    "beatty_contains",
    "beatty_pos_contains",
    "birational",
    "build_plot_model",
    "circle_arc_contains",
    "classify",
    "commutator",
    "dilated_floor",
    "disjointness_witness",
    "equivalence_classes",
    "equivalent",
    "format_rat",
    "frac_part",
    "from_munu",
    "from_sigmatau",
    "frobenius_number",
    "in_enlarged_diagonal",
    "integer_rounding_check",
    "is_member",
    "lattice_diag_disjoint",
    "lower_round",
    "negative_witness",
    "nonrealizing_set",
    "oracle_verify",
    "parse_rat",
    "positive_witness",
    "precedes",
    "rat",
    "rat_ceil",
    "rat_floor",
    "reduced_contains",
    "reduced_disjoint",
    "render_svg",
    "rounding_order",
    "sg_contains",
    "sylvester_duality_holds",
    "symmetry_scale_second",
    "symmetry_shrink",
    "to_munu",
    "to_sigmatau",
    "torus_point_in_corner",
    "torus_subgroup_avoids",
    "upper_round",
]
