"""The integer criteria deciders against the reference loops they replaced.

The independent checks must stay independent of the decision path's integer
searches, which all live in ``floorcomm._kernels``.  A walk over the package
source follows every name a function loads and must not reach that module from
an independent check; at run time every kernel is refused and their answers
must not change.  Neither check lists the kernels by name.
"""

import ast
import functools
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floorcomm
import floorcomm._kernels as _kernels
from conftest import positive_grid, signed_grid
from floorcomm.beatty import disjointness_witness, reduced_disjoint
from floorcomm.classify import MuNu, SigmaTau, from_munu, from_sigmatau, is_member
from floorcomm.floorfn import DilationPair, integer_rounding_check, oracle_verify
from floorcomm.geometry import CornerRect, LatticeParams, lattice_diag_disjoint, torus_subgroup_avoids
from floorcomm.semigroup import SemigroupPair, sg_contains
from reference_search import (
    reference_lattice_diag_disjoint,
    reference_reduced_disjoint,
    reference_torus_subgroup_avoids,
)

# parts up to 300/40: integers (denominator 1) and values below 1 come up often
criteria_params = st.one_of(
    st.builds(Fraction, st.integers(1, 300), st.integers(1, 40)),
    st.integers(1, 300),
    st.builds(Fraction, st.integers(1, 20), st.integers(21, 40)),
)


def assert_criteria_match_reference(x, y):
    assert reduced_disjoint(x, y) == reference_reduced_disjoint(Fraction(x), Fraction(y)), (x, y)
    params = LatticeParams(x, y)
    assert lattice_diag_disjoint(params) == reference_lattice_diag_disjoint(params), (x, y)
    rect = CornerRect(x, y)
    assert torus_subgroup_avoids(rect) == reference_torus_subgroup_avoids(rect), (x, y)


def test_criteria_match_reference_loops_on_grid():
    grid = positive_grid(12, 12)
    for x in grid:
        for y in grid:
            assert_criteria_match_reference(x, y)


@settings(max_examples=200)
@given(criteria_params, criteria_params)
def test_criteria_match_reference_loops(x, y):
    assert_criteria_match_reference(x, y)


SOURCE = Path(floorcomm.__file__).parent


def relative_imports(node: ast.AST) -> list[tuple[str, str]]:
    """(module, name) of every ``from .module import name`` in ``node``.

    Any other import of the package, such as ``from . import m``,
    ``import floorcomm.m`` or a star import, fails the assertion.
    """
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            assert all(alias.name.split(".")[0] != "floorcomm" for alias in sub.names), ast.unparse(sub)
        elif isinstance(sub, ast.ImportFrom) and sub.level == 0:
            assert (sub.module or "").split(".")[0] != "floorcomm", ast.unparse(sub)
        elif isinstance(sub, ast.ImportFrom):
            assert sub.level == 1 and sub.module and all(a.name != "*" for a in sub.names), ast.unparse(sub)
            found += [(sub.module, alias.name) for alias in sub.names]
    return found


def top_level_bindings(tree: ast.Module) -> dict[str, ast.stmt | tuple[str, str]]:
    """Each module-level name: its def, class or statement, or the (module, name) it imports."""
    relative_imports(tree)  # refuse an unresolved import anywhere in the module
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level:
            bound |= {alias.asname or alias.name: (stmt.module, alias.name) for alias in stmt.names}
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            bound[stmt.name] = stmt
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Expr)):
            # an assignment such as `CornerRect = SigmaTau`, or an `if`: each name it binds leads to all of it
            for sub in ast.walk(stmt):
                name = sub.id if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) else getattr(sub, "name", None)
                if isinstance(name, str):
                    bound[name] = stmt
    return bound


@functools.cache
def package_bindings() -> dict[str, dict]:
    return {path.stem: top_level_bindings(ast.parse(path.read_text())) for path in SOURCE.glob("*.py")}


def reaches(module: str, name: str, target: str = "_kernels", bindings: dict | None = None) -> bool:
    """Whether ``module.name`` reaches module ``target`` through the names its source loads."""
    bindings = package_bindings() if bindings is None else bindings
    seen, todo = set(), [(module, name)]
    while todo:
        module, name = todo.pop()
        if module == target:
            return True
        if (module, name) in seen:
            continue
        seen.add((module, name))
        node = bindings[module][name]
        if isinstance(node, tuple):
            todo.append(node)
            continue
        todo += relative_imports(node)  # imports inside functions too
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                assert sub.id not in ("__import__", "import_module"), f"{module}.{name} imports at run time"
                if sub.id in bindings[module]:
                    todo.append((module, sub.id))
    return False


INDEPENDENT = [
    "floorfn.oracle_verify",
    "_oracle._oracle_min",
    "beatty.reduced_disjoint",
    "beatty._least_common_reduced",
    "geometry.lattice_diag_disjoint",
    "geometry.torus_subgroup_avoids",
]
ON_THE_DECISION_PATH = [
    "classify.classify",
    "semigroup.sg_contains",
    "beatty.disjointness_witness",
    "floorfn.integer_rounding_check",
]


@pytest.mark.parametrize("qualified", INDEPENDENT)
def test_independent_check_does_not_reach_the_kernels(qualified):
    assert not reaches(*qualified.split("."))


@pytest.mark.parametrize("qualified", ON_THE_DECISION_PATH)
def test_decision_path_reaches_the_kernels(qualified):
    assert reaches(*qualified.split("."))


def test_the_walk_follows_aliases_and_local_imports_and_refuses_other_imports():
    def bindings(**sources):
        return {module: top_level_bindings(ast.parse(source)) for module, source in sources.items()}

    walked = bindings(
        k="def kernel(): pass",
        a="from .k import kernel\nAlias = kernel\ndef f():\n    return Alias()\ndef g():\n    return 1",
        b="from .a import g\ndef h():\n    from .a import f\n    return f()\ndef i():\n    return g()",
    )
    assert reaches("a", "f", "k", walked) and reaches("b", "h", "k", walked)
    assert not reaches("a", "g", "k", walked) and not reaches("b", "i", "k", walked)
    for source in ("from . import k", "import floorcomm.k", "from floorcomm import k", "def f():\n    from .k import *"):
        with pytest.raises(AssertionError):
            bindings(m=source)
    with pytest.raises(AssertionError, match="imports at run time"):
        reaches("d", "f", "k", bindings(d="def f():\n    return __import__('floorcomm.k')", k=""))


def test_criteria_are_decided_without_the_positive_line(monkeypatch):
    """The oracle and the three criteria deciders give the same answers with every kernel refused."""
    grid = positive_grid(6, 6)
    pairs = [(x, y) for x in grid for y in grid]
    members = [is_member(DilationPair(1 / x, y / x)) for x, y in pairs]
    tori = [is_member(DilationPair(x, x / y)) for x, y in pairs]
    signed = signed_grid(6, 6, include_zero=True)

    def answers():
        return (
            [oracle_verify(DilationPair(a, b)) for a in signed for b in signed],
            [reduced_disjoint(x, y) for x, y in pairs],
            [lattice_diag_disjoint(LatticeParams(x, y)) for x, y in pairs],
            [torus_subgroup_avoids(CornerRect(x, y)) for x, y in pairs],
        )

    before = answers()
    assert before[1] == members
    assert [decided for decided, _ in before[2]] == members
    assert [avoided for avoided, _ in before[3]] == tori

    def refuse(*args):
        raise RuntimeError("a kernel was called")

    kernels = {id(f): f for f in vars(_kernels).values() if inspect.isfunction(f) and f.__module__ == _kernels.__name__}
    bound_outside = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("floorcomm."):
            for attr, value in list(vars(module).items()):
                if id(value) in kernels:
                    monkeypatch.setattr(module, attr, refuse)
                    if module is not _kernels:
                        bound_outside.add(id(value))
    assert bound_outside == kernels.keys()
    for call in (
        lambda: disjointness_witness(Fraction(5, 2), Fraction(5, 3)),
        lambda: sg_contains(SemigroupPair(3, 5), 7),
        lambda: integer_rounding_check(Fraction(5, 3), Fraction(7, 2)),
        lambda: is_member(DilationPair(Fraction(1, 3), Fraction(1, 2))),
    ):
        with pytest.raises(RuntimeError, match="a kernel was called"):
            call()
    assert answers() == before


big_params = st.one_of(
    st.builds(Fraction, st.integers(1, 10**18), st.integers(1, 10**18)),
    st.integers(1, 10**18),
)


@given(big_params, big_params)
def test_coordinate_maps_match_fraction_operators(x, y):
    x, y = Fraction(x), Fraction(y)
    assert from_munu(MuNu(x, y)) == DilationPair(1 / x, y / x)
    assert from_sigmatau(SigmaTau(x, y)) == DilationPair(x, x / y)
