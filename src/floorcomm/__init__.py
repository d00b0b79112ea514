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

``import floorcomm`` loads no submodule.  Every name of ``__all__`` is
imported from its module on first use (PEP 562 module ``__getattr__``) and
then kept here, so a module loads only when one of its names is read or it
is imported itself.  The CLI's ``classify``, ``verify`` and ``sweep`` run on
the private integer modules ``_decide``, ``_kernels`` and ``_oracle``, and
``preorder`` and ``plot`` on ``_preorder`` and ``_plot`` besides; none of them
loads ``dataclasses`` or the record modules ``classify``, ``floorfn``,
``preorder`` and ``plot``.

The package's own class keeps ``floorcomm.classify`` the function: importing
the submodule of that name sets the package attribute to the module, and
``_Package.__setattr__`` binds the module's ``classify`` instead.
"""

import sys
from importlib import import_module
from types import ModuleType


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        if name == "classify" and isinstance(value, ModuleType):
            value = value.classify
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

_EXPORTS = {
    "beatty": (
        "beatty_contains",
        "beatty_pos_contains",
        "disjointness_witness",
        "reduced_contains",
        "reduced_disjoint",
    ),
    "classify": (
        "AxisZero",
        "MixedNegPos",
        "MuNu",
        "NegHyperbola",
        "NegSporadic",
        "NegVertical",
        "PositiveLinear",
        "SigmaTau",
        "Verdict",
        "Witness",
        "birational",
        "classify",
        "from_munu",
        "from_sigmatau",
        "is_member",
        "negative_witness",
        "positive_witness",
        "symmetry_scale_second",
        "symmetry_shrink",
        "to_munu",
        "to_sigmatau",
    ),
    "exact": ("Rat", "as_rat", "format_rat", "parse_rat", "rat", "rat_ceil", "rat_floor"),
    "floorfn": (
        "DilationPair",
        "OracleReport",
        "commutator",
        "dilated_floor",
        "integer_rounding_check",
        "lower_round",
        "oracle_verify",
        "rounding_order",
        "upper_round",
    ),
    "geometry": (
        "CornerRect",
        "LatticeParams",
        "circle_arc_contains",
        "frac_part",
        "in_enlarged_diagonal",
        "lattice_diag_disjoint",
        "torus_point_in_corner",
        "torus_subgroup_avoids",
    ),
    "plot": ("PlotModel", "PlotSpec", "build_plot_model", "render_svg"),
    "preorder": ("Preorder", "audit_transitivity", "equivalence_classes", "equivalent", "precedes"),
    "semigroup": ("SemigroupPair", "frobenius_number", "nonrealizing_set", "sg_contains", "sylvester_duality_holds"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import the module that defines ``name``, keep the name here, and return it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
