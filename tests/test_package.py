"""Package contract: the lazy ``floorcomm`` namespace, the import footprint of a
command, and the TypeError every ``DilationPair`` and ``SemigroupPair``
parameter raises for another type.

The namespace and footprint tests each run in a fresh interpreter, because a
name resolved or a module imported by an earlier test would hide a fault.
"""

import inspect
import json
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import floorcomm
from floorcomm.floorfn import DilationPair
from floorcomm.semigroup import SemigroupPair

# `python -c` run from here imports the package under test
IMPORT_ROOT = Path(floorcomm.__file__).parents[1]


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=IMPORT_ROOT, timeout=60
    )


NAMESPACE_CONTRACT = {
    "every-name-is-its-modules": """
import importlib, pkgutil, floorcomm
resolved = {name: getattr(floorcomm, name) for name in floorcomm.__all__}
modules = [importlib.import_module(f"floorcomm.{info.name}") for info in pkgutil.iter_modules(floorcomm.__path__)]
for name, value in resolved.items():
    homes = [module for module in modules if name in vars(module)]
    assert homes, f"no module defines {name}"
    for module in homes:
        assert vars(module)[name] is value, f"floorcomm.{name} is not {module.__name__}.{name}"
""",
    "star-import-binds-all": """
import floorcomm
namespace = {}
exec("from floorcomm import *", namespace)
del namespace["__builtins__"]
assert len(floorcomm.__all__) == 64 and set(namespace) == set(floorcomm.__all__), sorted(namespace)
assert all(value is getattr(floorcomm, name) for name, value in namespace.items())
""",
    "classify-after-import-classify": """
import inspect
import floorcomm.classify
import floorcomm
assert inspect.isfunction(floorcomm.classify), floorcomm.classify
""",
    "classify-after-import-cli": """
import inspect
import floorcomm.cli
import floorcomm
assert inspect.isfunction(floorcomm.classify), floorcomm.classify
""",
    "unknown-name-is-attribute-error": """
import floorcomm
assert not hasattr(floorcomm, "no_such_name")
try:
    floorcomm.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
""",
    "dir-lists-all": """
import floorcomm
assert set(floorcomm.__all__) <= set(dir(floorcomm)), set(floorcomm.__all__) - set(dir(floorcomm))
""",
}


@pytest.mark.parametrize("code", NAMESPACE_CONTRACT.values(), ids=NAMESPACE_CONTRACT.keys())
def test_namespace_contract_in_a_fresh_interpreter(code):
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


# runs `python -m floorcomm ARGS` in this interpreter and prints its exit code and sys.modules
FOOTPRINT_WRAPPER = """
import contextlib, io, json, runpy, sys
sys.argv = ["floorcomm", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("floorcomm", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

UNUSED_BY_DECISIONS = {"floorcomm.plot", "floorcomm.preorder", "floorcomm.geometry", "floorcomm.beatty", "csv"}


@pytest.mark.parametrize(
    "argv, code, unused",
    [
        (["classify", "1/3", "1/2"], 0, UNUSED_BY_DECISIONS),
        (["verify", "2/3", "1/2"], 1, UNUSED_BY_DECISIONS),
        (["plot"], 0, {"floorcomm.preorder", "floorcomm.geometry", "floorcomm.beatty"}),
    ],
    ids=["classify", "verify", "plot"],
)
def test_a_command_imports_only_what_it_runs(argv, code, unused):
    result = run_fresh(FOOTPRINT_WRAPPER, *argv)
    assert result.returncode == 0, result.stderr
    child = json.loads(result.stdout)
    assert child["code"] == code
    assert "floorcomm.cli" in child["modules"]
    assert unused.isdisjoint(child["modules"]), unused.intersection(child["modules"])


def refusing_functions(record: type) -> set[str]:
    """Names in ``floorcomm.__all__`` with a ``record`` parameter, each checked to refuse other types.

    The parameters are found from the annotations of the functions in
    ``floorcomm.__all__``; every one must raise TypeError naming ``record``
    for a float, a bool and a tuple.  The result records (``Verdict`` and the
    like) are outputs and are not checked.
    """
    guarded = set()
    for name in floorcomm.__all__:
        function = getattr(floorcomm, name)
        if not inspect.isfunction(function):
            continue
        hints = typing.get_type_hints(function)
        parameters = list(inspect.signature(function).parameters)
        for target in (p for p in parameters if hints.get(p) is record):
            guarded.add(name)
            for bad in (1.5, True, (Fraction(1, 3), Fraction(1, 2))):
                # the other parameters get a valid int or rational by annotation
                args = [bad if p == target else 2 if hints[p] is int else Fraction(1, 2) for p in parameters]
                with pytest.raises(TypeError, match=record.__name__):
                    function(*args)
    return guarded


def test_dilation_pair_parameters_refuse_other_types():
    assert refusing_functions(DilationPair) >= {
        "classify",
        "is_member",
        "oracle_verify",
        "commutator",
        "birational",
        "symmetry_scale_second",
        "symmetry_shrink",
    }


def test_semigroup_pair_parameters_refuse_other_types():
    assert refusing_functions(SemigroupPair) == {
        "sg_contains",
        "frobenius_number",
        "nonrealizing_set",
        "sylvester_duality_holds",
    }
