"""Package contract: the lazy ``floorcomm`` namespace, the import footprint of a
command, and the type contract that every name of ``__all__`` keeps.

The type contract is read from the annotations of ``__all__``: a parameter
typed as a library dataclass refuses any other type with a TypeError naming
the class and accepts a subclass instance, and an ``int``, ``Rat`` or
``Rat | int`` parameter refuses float and bool.  Every public dataclass is
declared an input record, whose constructor is probed like a function, or an
output record, which is not validated.  The records that a workload builds
on a large share of its ops write their fields in a hand-written
``__init__``; the tests pin which records those are, and that every record
with fields keeps the dataclass contract (signature, instance dict, frozen
fields, ``replace`` running the checks, pickle, deepcopy), whichever
``__init__`` it has.

The namespace and footprint tests each run in a fresh interpreter, because a
name resolved or a module imported by an earlier test would hide a fault.
"""

import ast
import copy
import dataclasses
import inspect
import json
import pickle
import subprocess
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import floorcomm
from conftest import run_python
from floorcomm import DilationPair, MuNu, PlotModel, PlotSpec, Rat, SemigroupPair, SigmaTau, build_plot_model


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return run_python("-c", code, *args, capture_output=True, text=True)


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
    "classify-through-submodule-imports": """
import inspect, sys
import floorcomm
assert not [name for name in sys.modules if name.startswith("floorcomm.")] and "dataclasses" not in sys.modules
function = floorcomm.classify
import floorcomm.classify
from floorcomm.classify import Verdict
assert floorcomm.classify is function and inspect.isfunction(function)
floorcomm.classify = print  # any other value is bound as given
assert floorcomm.classify is print
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


# runs `python -m floorcomm ARGS` in this interpreter and prints its exit code and sys.modules,
# read before the wrapper imports json to print them
FOOTPRINT_WRAPPER = """
import contextlib, io, runpy, sys
sys.argv = ["floorcomm", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("floorcomm", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""

# every command loads the CLI, the integer decision path and the rational text format that it imports
CLI = {"floorcomm.cli", "floorcomm._decide", "floorcomm._kernels", "floorcomm._oracle", "floorcomm._rattext"}
# the modules that only beatty and frobenius load
OTHER_COMMANDS = {"floorcomm.geometry", "floorcomm.beatty", "floorcomm.semigroup", "csv"}
# the record modules and json, which no command loads: cli._json and the hand-laid writers encode every payload
RECORDS = {"floorcomm.classify", "floorcomm.floorfn", "floorcomm.plot", "floorcomm.preorder"}
NEVER = RECORDS | {"json"}
# the Fraction layer, which only the commands that build a Fraction load: beatty, frobenius and plot
FRACTIONS = {"floorcomm.exact", "fractions", "decimal"}


def by_ints(*private: str, fractions: bool = False) -> tuple[set[str], set[str]]:
    """A command on integer parts, with the private modules it adds to the CLI's: no record, so no dataclasses.

    ``classify``, ``verify``, ``sweep`` and ``preorder`` parse and print on
    integer parts alone, so they load no ``fractions`` (nor ``decimal``);
    ``plot`` builds its view box as Fractions.
    """
    loaded = CLI | {f"floorcomm.{module}" for module in private}
    unused = OTHER_COMMANDS | NEVER | {"dataclasses"}
    return (loaded | {"fractions"}, unused) if fractions else (loaded, unused | FRACTIONS)


def running(module: str) -> tuple[set[str], set[str]]:
    """A command that loads floorcomm.MODULE beside the CLI, and with it the Fraction layer, but no record module."""
    loaded = CLI | {f"floorcomm.{module}", "floorcomm.exact", "fractions"}
    return loaded, (OTHER_COMMANDS - loaded) | NEVER


@pytest.mark.parametrize(
    "argv, code, loaded, unused",
    [
        (["classify", "1/3", "1/2"], 0, *by_ints()),
        (["classify", "2/3", "1/2", "--plain"], 1, *by_ints()),
        (["classify", "-2", "-5/3", "--no-oracle"], 1, *by_ints()),
        (["verify", "2/3", "1/2"], 1, *by_ints()),
        (["verify", "2/3", "1/2", "--plain"], 1, *by_ints()),
        (["frobenius", "3", "5"], 0, *running("semigroup")),
        (["frobenius", "3", "5", "--plain"], 0, *running("semigroup")),
        (["sweep", "-P", "2", "-Q", "2"], 0, *by_ints()),
        (["sweep", "-P", "2", "-Q", "2", "--json"], 0, *by_ints()),
        (["beatty", "5/2", "5/3"], 0, *running("beatty")),
        (["beatty", "5/2", "5/3", "--plain"], 0, *running("beatty")),
        (["preorder", "-P", "2", "-Q", "2"], 0, *by_ints("_preorder")),
        (["preorder", "-P", "2", "-Q", "2", "--csv"], 0, *by_ints("_preorder")),
        (["plot"], 0, *by_ints("_plot", fractions=True)),
        (
            ["plot", "-M", "6", "-D", "6", "-R", "4", "--samples", "256", "--viewbox", "-3", "3", "-3", "3"],
            0,
            *by_ints("_plot", fractions=True),
        ),
    ],
    ids=[
        "classify",
        "classify-plain",
        "classify-no-oracle",
        "verify",
        "verify-plain",
        "frobenius",
        "frobenius-plain",
        "sweep",
        "sweep-json",
        "beatty",
        "beatty-plain",
        "preorder",
        "preorder-csv",
        "plot",
        "plot-bounds-viewbox",
    ],
)
def test_a_command_imports_only_what_it_runs(argv, code, loaded, unused):
    result = run_fresh(FOOTPRINT_WRAPPER, *argv)
    assert result.returncode == 0, result.stderr
    child = json.loads(result.stdout)
    assert child["code"] == code
    assert loaded <= set(child["modules"]), loaded - set(child["modules"])
    assert unused.isdisjoint(child["modules"]), unused.intersection(child["modules"])


# Every public dataclass is one of two kinds, by decision.  An input record
# refuses in its constructor what its field annotations do not promise, and is
# probed like a function.  An output record is built by the package from
# values it has checked, so its fields are not validated; a parameter of its
# type (``render_svg``'s PlotModel) is still guarded.
INPUT_RECORDS = {
    "AxisZero",
    "CornerRect",
    "DilationPair",
    "LatticeParams",
    "MixedNegPos",
    "MuNu",
    "NegHyperbola",
    "NegSporadic",
    "NegVertical",
    "PlotSpec",
    "PositiveLinear",
    "SemigroupPair",
    "SigmaTau",
}
OUTPUT_RECORDS = {"OracleReport", "PlotModel", "Preorder", "Verdict"}

SCALARS = (int, Rat, Rat | int)

# one valid instance of each record type that a public parameter takes
VALID_RECORDS = {
    DilationPair: lambda: DilationPair(Fraction(2, 3), Fraction(1, 2)),
    MuNu: lambda: MuNu(Fraction(3, 2), Fraction(3, 4)),
    SigmaTau: lambda: SigmaTau(Fraction(2, 3), Fraction(4, 3)),
    SemigroupPair: lambda: SemigroupPair(3, 5),
    PlotSpec: lambda: PlotSpec(-1, 1, -1, 1),
    PlotModel: lambda: build_plot_model(PlotSpec(-1, 1, -1, 1)),
}


def is_record(hint: object) -> bool:
    return isinstance(hint, type) and dataclasses.is_dataclass(hint)


def valid_argument(hint: object) -> object:
    """A value that every probed parameter annotated ``hint`` accepts; KeyError for an unknown record."""
    if hint is int:
        return 2
    if hint in SCALARS:
        return Fraction(1, 2)
    return VALID_RECORDS[hint]()


def as_subclass(record: object) -> object:
    """An instance of a fresh subclass of ``record``'s class with the same fields."""
    subclass = type(f"{type(record).__name__}Subclass", (type(record),), {})
    return subclass(**{field.name: getattr(record, field.name) for field in dataclasses.fields(record)})


@pytest.mark.parametrize("name", floorcomm.__all__)
def test_public_name_keeps_the_type_contract(name):
    value = getattr(floorcomm, name)
    if dataclasses.is_dataclass(value):
        assert (name in INPUT_RECORDS) != (name in OUTPUT_RECORDS), f"{name} must be an input or an output record"
        if name in OUTPUT_RECORDS:
            return
    elif not inspect.isfunction(value):
        return  # Rat and the Witness union: nothing to call
    hints = typing.get_type_hints(value)
    parameters = list(inspect.signature(value).parameters)
    if not any(is_record(hints[p]) or hints[p] in SCALARS for p in parameters):
        return  # only str or iterable parameters
    # the other parameters get a valid value by annotation
    valid = {p: valid_argument(hints[p]) for p in parameters}
    for target in parameters:
        hint = hints[target]
        if is_record(hint):
            for bad in (1.5, True, (Fraction(1, 3), Fraction(1, 2))):
                with pytest.raises(TypeError, match=f"expected a {hint.__name__}, got {type(bad).__name__}"):
                    value(**valid | {target: bad})
            value(**valid | {target: as_subclass(valid[target])})
        elif hint in SCALARS:
            for bad in (1.5, True):
                with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
                    value(**valid | {target: bad})


# One instance of each public record with fields, with every field set.
RECORDS_WITH_FIELDS = {
    "DilationPair": lambda: DilationPair(Fraction(2, 3), -1),
    "OracleReport": lambda: floorcomm.oracle_verify(DilationPair(Fraction(2, 3), Fraction(1, 2))),
    "Verdict": lambda: floorcomm.classify(DilationPair(Fraction(2, 3), Fraction(1, 2))),
    "PositiveLinear": lambda: floorcomm.PositiveLinear(1, 2),
    "NegHyperbola": lambda: floorcomm.NegHyperbola(0, 1),
    "NegVertical": lambda: floorcomm.NegVertical(3, 2),
    "NegSporadic": lambda: floorcomm.NegSporadic(5, 3, 1, 1, 2),
    "MuNu": lambda: MuNu(Fraction(3, 2), 3),
    "SigmaTau": lambda: SigmaTau(2, Fraction(4, 3)),
    "LatticeParams": lambda: floorcomm.LatticeParams(Fraction(3, 2), 3),
    "CornerRect": lambda: floorcomm.CornerRect(2, Fraction(4, 3)),
    "SemigroupPair": lambda: SemigroupPair(3, 5),
    "PlotSpec": lambda: PlotSpec(-1, 1, -1, 1),
    "PlotModel": lambda: build_plot_model(PlotSpec(-1, 1, -1, 1)),
    "Preorder": lambda: floorcomm.Preorder.on([Fraction(1, 2), 1, -2]),
}

# The records that a workload builds on a large share of its ops write their
# fields in a hand-written __init__ (README, "Shortcuts"); every other record
# keeps the generated one.
HAND_WRITTEN_INIT = {"DilationPair", "OracleReport", "Verdict", "MuNu", "SigmaTau", "PositiveLinear", "NegHyperbola"}


def test_every_public_record_with_fields_has_an_instance():
    records = {
        name
        for name in floorcomm.__all__
        if dataclasses.is_dataclass(value := getattr(floorcomm, name)) and dataclasses.fields(value)
    }
    assert records == set(RECORDS_WITH_FIELDS)


def test_only_the_benchmarked_records_write_their_fields_by_hand():
    hand_written = {
        name
        for name in floorcomm.__all__
        if dataclasses.is_dataclass(value := getattr(floorcomm, name))
        and value.__init__.__code__.co_filename == inspect.getsourcefile(value)
    }
    # LatticeParams and CornerRect are MuNu and SigmaTau under their geometry names
    assert hand_written == HAND_WRITTEN_INIT | {"LatticeParams", "CornerRect"}


@pytest.mark.parametrize("name", RECORDS_WITH_FIELDS)
def test_hand_written_init_keeps_the_dataclass_contract(name):
    # run on every record with fields, generated __init__ or not, so that
    # each keeps the contract by value whichever __init__ it has
    record = RECORDS_WITH_FIELDS[name]()
    cls = type(record)
    names = [field.name for field in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    assert list(vars(record)) == names
    for field in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
    assert dataclasses.replace(record) == record
    if name in INPUT_RECORDS:
        for field in names:
            with pytest.raises(TypeError, match="got float"):
                dataclasses.replace(record, **{field: 1.5})
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)


def test_replace_runs_the_checks_of_the_hand_written_init():
    with pytest.raises(ValueError, match="need m, n >= 0, not both zero"):
        dataclasses.replace(floorcomm.PositiveLinear(1, 0), m=-1)
    with pytest.raises(TypeError, match="got float"):
        dataclasses.replace(DilationPair(1, 2), alpha=0.5)
    with pytest.raises(ValueError, match="sigma, tau must be positive"):
        dataclasses.replace(SigmaTau(1, 2), tau=0)
    assert dataclasses.replace(MuNu(1, 2), nu=3) == MuNu(Fraction(1), Fraction(3))


FRACTION_SLOTS = {"_numerator", "_denominator"}


def slot_names(node: ast.AST) -> list[tuple[str, int]]:
    """Each place under node that names a Fraction slot, as an attribute or a string, with its line."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in FRACTION_SLOTS:
            found.append((sub.attr, sub.lineno))
        elif isinstance(sub, ast.Constant) and sub.value in FRACTION_SLOTS:
            found.append((sub.value, sub.lineno))
    return found


def test_only_the_private_constructor_names_the_fraction_slots():
    # exact._fraction fills a Fraction's slots without its constructor; no other code may touch them
    elsewhere = []
    for path in sorted(Path(floorcomm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "exact":
            (constructor,) = [node for node in tree.body if getattr(node, "name", None) == "_fraction"]
            assert {name for name, _ in slot_names(constructor)} == FRACTION_SLOTS
            tree.body.remove(constructor)
        elsewhere += [(path.name, name, line) for name, line in slot_names(tree)]
    assert elsewhere == []
