"""Command-line surface: classification, verification, sweeps, and figures.

Exit codes follow the verdict convention throughout: 0 for a member or
affirmative result, 1 for a non-member or negative result, 2 for usage,
parse, or output errors.  All numeric output is exact ``p/q`` text; floats
appear only inside SVG coordinates.

Each command builds its payload once and returns the one text asked for
(JSON, plain lines, CSV or SVG) with its exit code, and ``sweep`` and
``preorder`` a summary line after them; ``main`` is the only writer of
command output, and prints a summary only once the text is written.

This module imports the private integer modules ``_rattext``, ``_decide``
and ``_oracle`` (``_decide`` loads ``_kernels``), which ``classify``,
``verify`` and ``sweep`` run: every rational argument is read into its
integer parts by ``_rattext._rat_parts``, and each pair is decided and
verified on its four parts and formatted by ``_rat_text`` without building a
record or a ``Fraction``.  ``sweep`` and ``preorder`` take their grid from one
enumeration of integer parts, ``_sweep_parts``, sorted exactly by
cross-multiplication; the public ``sweep_values`` builds its Fractions from
it.  ``sweep`` prints only the oracle's least value, so it runs the walk
``_oracle_min`` and not ``_report``, which also locates the argmin, and it
writes each row through one fixed template, CSV or JSON.  ``preorder`` and
``plot`` import the private modules ``_preorder`` and ``_plot`` when they
run, and work on integer parts the same way: the relation's rows, its
violation and classes as indices into the grid, and the figure as tuples of
integer pairs.  So none of these five commands loads ``dataclasses`` or a
record module (``classify``, ``floorfn``, ``preorder``, ``plot``), and none
but ``plot`` loads ``fractions``.  The ``*_to_dict`` functions serialise the
records through the same payload builders, and ``verdict_from_dict`` checks a
payload's proof on its integer parts and imports the records only to build
the ``Verdict``.  ``beatty`` and ``frobenius`` import the module they use
when they run, and ``beatty`` and ``plot`` build their Fractions from the
parsed parts only then, so a start loads only what its command runs.  No
command loads ``csv`` or ``json``: ``_csv`` writes the CSV of ``preorder`` by
hand, ``_json`` encodes the small payloads of ``classify``, ``verify`` and
``beatty`` with the bytes of ``json.dumps(indent=2)``, and the JSON of
``sweep``, ``frobenius`` and ``preorder``, the large shapes, is laid out by
hand with the same bytes.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cmp_to_key
from math import gcd
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ._decide import WITNESS_FIELDS, _counterexample, _witness
from ._oracle import _commutator, _oracle_min, _report
from ._rattext import _rat_parts, _rat_text

if TYPE_CHECKING:
    from .classify import Verdict, Witness
    from .exact import Rat
    from .floorfn import OracleReport

_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


def _rat_arg(text: str) -> tuple[int, int]:
    """A rational argument's parts (num, den) in lowest terms, read by ``_rat_parts``."""
    return _rat_parts(text)


# argparse names the type in a usage error by its __name__, as in "invalid parse_rat value: '1/0'"
_rat_arg.__name__ = "parse_rat"


# The payload builders below serve the record API (``*_to_dict``) and the
# commands alike, which call them on the ints of ``_decide`` and ``_oracle``.


def _witness_payload(kind: str, params: Iterable[int]) -> dict[str, Any]:
    return dict(zip(("kind", *WITNESS_FIELDS[kind]), (kind, *params)))


def _verdict_payload(
    alpha: str, beta: str, member: bool, witness: dict[str, Any] | None, counterexample: str | None
) -> dict[str, Any]:
    return {"alpha": alpha, "beta": beta, "member": member, "witness": witness, "counterexample": counterexample}


def _report_payload(period: str, min_value: int, argmin: str, breakpoints: int, samples: int) -> dict[str, Any]:
    # the fields of OracleReport, in declaration order, with the two Rats as text
    keys = ("period", "min_value", "argmin", "breakpoints_checked", "samples_checked")
    return dict(zip(keys, (period, min_value, argmin, breakpoints, samples)))


def witness_to_dict(witness: Witness | None) -> dict[str, Any] | None:
    if witness is None:
        return None
    return _witness_payload(witness.kind, [getattr(witness, name) for name in WITNESS_FIELDS[witness.kind]])


def verdict_to_dict(verdict: Verdict) -> dict[str, Any]:
    from .exact import format_rat

    x = verdict.counterexample
    return _verdict_payload(
        format_rat(verdict.pair.alpha),
        format_rat(verdict.pair.beta),
        verdict.member,
        witness_to_dict(verdict.witness),
        None if x is None else format_rat(x),
    )


def verdict_from_dict(data: dict[str, Any]) -> Verdict:
    """Decode a ``verdict_to_dict`` payload by checking its proof on the pair's integer parts.

    ValueError unless ``data`` is such a payload and proves itself: a
    non-member by any point where one ``_commutator`` call is negative, kept
    as given so the oracle's argmin decodes, and no search runs; a member by
    the witness ``_witness`` finds, since only the search shows it is least,
    with every param an int (not a bool or a float equal to one).
    """
    from .classify import Verdict, _record
    from .exact import parse_rat
    from .floorfn import DilationPair

    try:
        alpha, beta = parse_rat(data["alpha"]), parse_rat(data["beta"])
        x = None if data.get("counterexample") is None else parse_rat(data["counterexample"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a verdict_to_dict payload: {exc!r}") from exc
    a, b, c, d = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    member = x is None
    witness = _witness(a, b, c, d) if member else None
    proved = witness is not None if member else _commutator(a, b, c, d, x.numerator, x.denominator) < 0
    claimed = None if witness is None else _witness_payload(*witness)
    given = data.get("witness")
    # == alone takes JSON true or 1.0 for a param 1, so each param's type is checked, as `is` checks the flag's
    exact = given == claimed and (witness is None or all(type(given[key]) is int for key in WITNESS_FIELDS[witness[0]]))
    if not (proved and data.get("member") is member and exact):
        raise ValueError(f"not the verdict of ({data['alpha']}, {data['beta']})")
    return Verdict(DilationPair(alpha, beta), member, _record(witness), x)


def report_to_dict(report: OracleReport) -> dict[str, Any]:
    from .exact import format_rat

    return _report_payload(
        format_rat(report.period),
        report.min_value,
        format_rat(report.argmin),
        report.breakpoints_checked,
        report.samples_checked,
    )


def _oracle_payload(report: tuple[int, int, int, int, int]) -> dict[str, Any]:
    """``report_to_dict`` of the ``OracleReport`` that ``oracle_verify`` builds from this ``_oracle._report``."""
    period, least, num, den, breakpoints = report
    return _report_payload(str(period), least, _rat_text(num, den), breakpoints, 2 * breakpoints)


def _witness_params(kind: str, params: Iterable[int]) -> list[str]:
    return [f"{key}={value}" for key, value in zip(WITNESS_FIELDS[kind], params)]


def _json(payload: Any) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` for dicts with str keys, lists, str, int, bool and None.

    The payloads of ``classify``, ``verify`` and ``beatty`` hold only these,
    their strings ``p/q`` text or identifiers, so no command loads ``json``;
    a str that would need escaping is written by ``json.dumps`` itself.
    """
    return _json_value(payload, "") + "\n"


def _json_value(value: Any, indent: str) -> str:
    """``json.dumps(value, indent=2)`` for a value nested at indent, a run of spaces."""
    if isinstance(value, str):
        # json.dumps writes printable ASCII as it is between quotes, but for '"' and '\'
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json  # only for a str that needs escaping, which no command prints

        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("_json takes only str keys")
        items = [f"{_json_value(key, inner)}: {_json_value(item, inner)}" for key, item in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        return _json_list([_json_value(item, inner) for item in value], indent)
    raise TypeError(f"_json cannot encode a {type(value).__name__}")


def _csv(rows: Iterable[Sequence[Any]]) -> str:
    """Rows, the header first, as CSV text, converted a column at a time for speed: ``preorder``'s matrix.

    A column holds one type: text, written as it is (``p/q``, an identifier or
    ``k=v;...``, none needing quotes), int, or bool, written ``true``/``false``
    (so an int 0 stays ``0``).
    """
    header, *body = rows
    columns = []
    for column in zip(*body):
        kind = column[0].__class__
        columns.append(column if kind is str else map(("false", "true").__getitem__ if kind is bool else str, column))
    return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])


def cmd_classify(args: argparse.Namespace) -> tuple[str, int]:
    (a, b), (c, d) = args.alpha, args.beta
    witness = _witness(a, b, c, d)
    member = witness is not None
    report = None if args.no_oracle else _report(a, b, c, d)
    x = None
    if not member:
        # with the oracle on, a non-member's counterexample is the oracle's argmin, checked like
        # the certificate; the certificate is searched only when the oracle finds no negative value
        x = _counterexample(a, b, c, d, report[2:4] if report is not None and report[1] < 0 else None)
    payload = _verdict_payload(
        _rat_text(a, b),
        _rat_text(c, d),
        member,
        None if witness is None else _witness_payload(*witness),
        None if x is None else _rat_text(*x),
    )
    if report is not None:
        payload["oracle"] = _oracle_payload(report) | {"agrees": (report[1] >= 0) == member}
    if args.fmt == "json":
        text = _json(payload)
    else:
        text = f"({payload['alpha']}, {payload['beta']}): {'member' if member else 'non-member'}\n"
        if witness is not None:
            text += " ".join([f"witness: {witness[0]}", *_witness_params(*witness)]) + "\n"
        if x is not None:
            text += f"counterexample: x = {payload['counterexample']}\n"
        if report is not None:
            oracle = payload["oracle"]
            agrees = "agrees" if oracle["agrees"] else "DISAGREES"
            text += f"oracle: period {oracle['period']}, min {oracle['min_value']}"
            text += f" at {oracle['argmin']} ({agrees})\n"
    return text, 0 if member else 1


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    (a, b), (c, d) = args.alpha, args.beta
    payload = {"alpha": _rat_text(a, b), "beta": _rat_text(c, d)}
    payload |= _oracle_payload(_report(a, b, c, d))
    member = payload["min_value"] >= 0
    payload["member"] = member
    text = _json(payload) if args.fmt == "json" else (
        "({alpha}, {beta}): {status}; min {min_value} at {argmin} over period {period}"
        " ({breakpoints_checked} breakpoints, {samples_checked} samples)\n"
    ).format_map(payload | {"status": "member" if member else "non-member"})
    return text, 0 if member else 1


# on the numerators, which carry the sign of a value
_QUADRANT_TESTS = {
    "all": lambda a, b: True,
    "++": lambda a, b: a > 0 and b > 0,
    "+-": lambda a, b: a > 0 and b < 0,
    "-+": lambda a, b: a < 0 and b > 0,
    "--": lambda a, b: a < 0 and b < 0,
}


def _sweep_parts(num_bound: int, den_bound: int) -> list[tuple[int, int]]:
    """The parts (p, q) of ``sweep_values(num_bound, den_bound)``, in its order, for int bounds.

    Each value once, in lowest terms: the coprime p, q in range, their
    negatives and 0, sorted exactly by cross-multiplication.
    """
    if num_bound < 1 or den_bound < 1:
        raise ValueError("sweep bounds must be >= 1")
    positive = [(p, q) for q in range(1, den_bound + 1) for p in range(1, num_bound + 1) if gcd(p, q) == 1]
    positive.sort(key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    return [(-p, q) for p, q in reversed(positive)] + [(0, 1)] + positive


def sweep_values(num_bound: int, den_bound: int) -> list[Rat]:
    """Distinct p/q with |p| <= num_bound, 1 <= q <= den_bound, plus 0; a bool or float bound raises TypeError."""
    from .exact import Rat, require_int

    require_int(num_bound, "num_bound")
    require_int(den_bound, "den_bound")
    return [Rat(p, q) for p, q in _sweep_parts(num_bound, den_bound)]


SWEEP_COLUMNS = ("alpha", "beta", "member", "witness_kind", "witness_params", "oracle_min", "agree")

_SweepRow = tuple[str, str, bool, str, str, int, bool]  # the cells of SWEEP_COLUMNS

# the sweep's witness_params cell: one template per kind, "m={};n={}" and the like, filled in tuple order
_PARAMS_TEXT = {kind: ";".join(f"{key}={{}}" for key in keys).format for kind, keys in WITNESS_FIELDS.items()}


def _json_list(items: Sequence[str], indent: str) -> str:
    """Encoded items as a ``json.dumps(indent=2)`` list whose closing bracket is indented by indent."""
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]" if items else "[]"


def _sweep_csv(rows: Sequence[_SweepRow]) -> str:
    """The sweep's rows under its header as CSV, one f-string per row.

    Every cell is ``p/q`` text, an identifier, ``k=v;...`` or an int, none
    needing quotes, or a bool, written ``true``/``false``.
    """
    return "".join([
        ",".join(SWEEP_COLUMNS) + "\n",
        *[
            f"{alpha},{beta},{'true' if member else 'false'},{kind},{params},{least},{'true' if agree else 'false'}\n"
            for alpha, beta, member, kind, params, least, agree in rows
        ],
    ])


def _sweep_json(rows: Sequence[_SweepRow], members: int, disagreements: int) -> str:
    """``_json`` of the sweep's payload, laid out by hand with one f-string per row.

    The text cells need no escaping (see ``_sweep_csv``), so these are the
    bytes of ``json.dumps(indent=2)`` without its pure-Python encoder.
    """
    listed = _json_list([
        f'{{\n      "alpha": "{alpha}",\n      "beta": "{beta}",\n'
        f'      "member": {"true" if member else "false"},\n      "witness_kind": "{kind}",\n'
        f'      "witness_params": "{params}",\n      "oracle_min": {least},\n'
        f'      "agree": {"true" if agree else "false"}\n    }}'
        for alpha, beta, member, kind, params, least, agree in rows
    ], "  ")
    return (
        f'{{\n  "rows": {listed},\n  "summary": {{\n    "pairs": {len(rows)},\n'
        f'    "members": {members},\n    "disagreements": {disagreements}\n  }}\n}}\n'
    )


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int, str]:
    # each value's integer parts and text, formatted once
    values = [(p, q, _rat_text(p, q)) for p, q in _sweep_parts(args.num_bound, args.den_bound)]
    # argparse drops the lone "--" of --quadrant=-- and leaves an empty list
    in_quadrant = _QUADRANT_TESTS[args.quadrant or "--"]
    rows = []
    members = disagreements = 0
    for a, b, alpha_text in values:
        for c, d, beta_text in values:
            if not in_quadrant(a, c):
                continue
            # the sweep prints the witness and the walk's least value, which is 0 on an axis
            witness = _witness(a, b, c, d)
            member = witness is not None
            least = _oracle_min(a, b, c, d)[0] if a and c else 0
            agree = member == (least >= 0)
            members += member
            disagreements += not agree
            kind, params = ("", "") if witness is None else (witness[0], _PARAMS_TEXT[witness[0]](*witness[1]))
            rows.append((alpha_text, beta_text, member, kind, params, least, agree))
    text = _sweep_json(rows, members, disagreements) if args.fmt == "json" else _sweep_csv(rows)
    code = 0 if disagreements == 0 else 1
    return text, code, f"sweep: {len(rows)} pairs, {members} members, {disagreements} disagreements"


def cmd_beatty(args: argparse.Namespace) -> tuple[str, int]:
    from .beatty import beatty_contains, beatty_pos_contains, disjointness_witness, reduced_contains, reduced_disjoint
    from .exact import Rat

    u, v = Rat(*args.u), Rat(*args.v)
    lo, hi = args.window
    if lo > hi:
        raise ValueError(f"empty window: LO = {lo} > HI = {hi}")
    window = range(lo, hi + 1)
    criterion = disjointness_witness(u, v)
    disjoint = reduced_disjoint(u, v)

    flavors = {"pos": beatty_pos_contains, "full": beatty_contains} if args.fmt == "json" else {}
    flavors["reduced"] = reduced_contains  # the only lists --plain prints

    def membership(value: Rat) -> dict[str, list[int]]:
        return {name: [m for m in window if contains(value, m)] for name, contains in flavors.items()}

    payload = {
        "u": _rat_text(*args.u),
        "v": _rat_text(*args.v),
        "criterion": None if criterion is None else {"m": criterion[0], "n": criterion[1]},
        "reduced_disjoint": disjoint,
        "agree": (criterion is not None) == disjoint,
        "window": {"lo": lo, "hi": hi, "u": membership(u), "v": membership(v)},
    }
    crit = "none" if criterion is None else f"m={criterion[0]} n={criterion[1]}"
    text = _json(payload) if args.fmt == "json" else (
        "u = {u}, v = {v}\n"
        "criterion witness: {crit}\n"
        "reduced sequences disjoint: {reduced_disjoint} (agree: {agree})\n"
        "reduced({u}) in [{window[lo]},{window[hi]}]: {window[u][reduced]}\n"
        "reduced({v}) in [{window[lo]},{window[hi]}]: {window[v][reduced]}\n"
    ).format_map(payload | {"crit": crit})
    return text, 0 if disjoint else 1


def _frobenius_json(payload: dict[str, Any]) -> str:
    """``_json`` of the ``frobenius`` payload, laid out by hand.

    The gap list is its own ``str``, written in C, with each ", " broken onto
    a new line: the bytes of ``json.dumps(indent=2)``, without a string per
    gap held at once.
    """
    gaps = payload["nonrealizing_set"]
    listed = "[\n    " + str(gaps)[1:-1].replace(", ", ",\n    ") + "\n  ]" if gaps else "[]"
    return (
        f'{{\n  "a": {payload["a"]},\n  "b": {payload["b"]},\n'
        f'  "frobenius_number": {payload["frobenius_number"]},\n  "nonrealizing_set": {listed},\n'
        f'  "gap_count": {payload["gap_count"]},\n'
        f'  "sylvester_duality": {"true" if payload["sylvester_duality"] else "false"}\n}}\n'
    )


def cmd_frobenius(args: argparse.Namespace) -> tuple[str, int]:
    from .semigroup import SemigroupPair, frobenius_number, nonrealizing_set, sylvester_duality_holds

    sg = SemigroupPair(args.a, args.b)
    gaps = nonrealizing_set(sg)
    payload = {
        "a": sg.a,
        "b": sg.b,
        "frobenius_number": frobenius_number(sg),
        "nonrealizing_set": gaps,
        "gap_count": len(gaps),
        "sylvester_duality": sylvester_duality_holds(sg),
    }
    text = _frobenius_json(payload) if args.fmt == "json" else (
        "S({a}, {b}): frobenius number {frobenius_number}\n"
        "non-realizing set: {nonrealizing_set}\n"
        "sylvester duality: {sylvester_duality}\n"
    ).format_map(payload)
    return text, 0


def _preorder_json(payload: dict[str, Any]) -> str:
    """``_json`` of the ``preorder`` payload, laid out by hand.

    Every cell is ``p/q`` text or a bool, none needing escaping, so these are
    the bytes of ``json.dumps(indent=2)`` without its pure-Python encoder.
    """

    def texts(labels: Sequence[str], indent: str) -> str:
        return _json_list([f'"{label}"' for label in labels], indent)

    cells = ("false", "true").__getitem__
    precedes = _json_list([_json_list(list(map(cells, row)), "    ") for row in payload["precedes"]], "  ")
    violation = payload["transitivity_counterexample"]
    classes = _json_list([texts(cls, "    ") for cls in payload["equivalence_classes"]], "  ")
    return (
        f'{{\n  "values": {texts(payload["values"], "  ")},\n  "precedes": {precedes},\n'
        f'  "transitivity_counterexample": {"null" if violation is None else texts(violation, "  ")},\n'
        f'  "equivalence_classes": {classes}\n}}\n'
    )


def cmd_preorder(args: argparse.Namespace) -> tuple[str, int, str]:
    from ._preorder import _classes, _matrix, _rows, _violation

    parts = [part for part in _sweep_parts(args.num_bound, args.den_bound) if part[0]]
    labels = [_rat_text(*part) for part in parts]
    rows = _rows(parts)
    matrix = _matrix(rows, len(rows))
    violation = _violation(rows)
    if args.fmt == "plain":
        text = _csv([["alpha\\beta", *labels], *([label, *row] for label, row in zip(labels, matrix))])
    else:
        text = _preorder_json({
            "values": labels,
            "precedes": matrix,
            "transitivity_counterexample": None if violation is None else [labels[i] for i in violation],
            "equivalence_classes": [[labels[i] for i in cls] for cls in _classes(parts, rows)],
        })
    status = "holds" if violation is None else f"violated: ({', '.join(labels[i] for i in violation)})"
    return text, 0 if violation is None else 1, f"preorder: {len(labels)} values, transitivity {status}"


def cmd_plot(args: argparse.Namespace) -> tuple[str, int]:
    from ._plot import COUNT_DEFAULTS, _check_spec, _model, _render
    from .exact import Rat

    # a count left off the command line is absent from args and takes its PlotSpec default
    counts = [getattr(args, name, default) for name, default in COUNT_DEFAULTS.items()]
    box = _check_spec(*(Rat(*part) for part in args.viewbox), *counts)
    return _render(box, *_model(box, *counts), args.width), 0


def _add_format_flags(parser: argparse.ArgumentParser, *, plain_name: str = "--plain") -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", dest="fmt", action="store_const", const="json", default="json")
    group.add_argument(plain_name, dest="fmt", action="store_const", const="plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorcomm",
        description="Exact classification of dilated floor function pairs by commutator sign.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="membership verdict with certifying witness")
    p.add_argument("alpha", type=_rat_arg, help="dilation factor, p or p/q")
    p.add_argument("beta", type=_rat_arg, help="dilation factor, p or p/q")
    p.add_argument("--no-oracle", action="store_true", help="skip the exhaustive cross-check")
    _add_format_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="exhaustive commutator minimum over one period")
    p.add_argument("alpha", type=_rat_arg)
    p.add_argument("beta", type=_rat_arg)
    _add_format_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="classify a rational grid and cross-check every verdict")
    p.add_argument("-P", "--num-bound", type=int, default=4, help="max |numerator| (default 4)")
    p.add_argument("-Q", "--den-bound", type=int, default=4, help="max denominator (default 4)")
    p.add_argument(
        "--quadrant",
        choices=sorted(_QUADRANT_TESTS),
        default="all",
        help="restrict the grid; write --quadrant=-- and --quadrant=-+ with '='",
    )
    p.add_argument("--out", help="output path (default stdout)")
    _add_format_flags(p, plain_name="--csv")
    p.set_defaults(func=cmd_sweep, fmt="plain")

    p = sub.add_parser("beatty", help="Beatty sequence windows and disjointness")
    p.add_argument("u", type=_rat_arg)
    p.add_argument("v", type=_rat_arg)
    p.add_argument("--window", type=int, nargs=2, default=(-10, 20), metavar=("LO", "HI"))
    _add_format_flags(p)
    p.set_defaults(func=cmd_beatty)

    p = sub.add_parser("frobenius", help="two-generator numerical semigroup report")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    _add_format_flags(p)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("preorder", help="pairwise precedence matrix over a rational grid")
    p.add_argument("-P", "--num-bound", type=int, default=3)
    p.add_argument("-Q", "--den-bound", type=int, default=3)
    p.add_argument("--out", help="output path (default stdout)")
    _add_format_flags(p, plain_name="--csv")
    p.set_defaults(func=cmd_preorder)

    p = sub.add_parser("plot", help="SVG map of the member set")
    p.add_argument(
        "--viewbox",
        type=_rat_arg,
        nargs=4,
        default=((-2, 1), (2, 1), (-2, 1), (2, 1)),
        metavar=("AMIN", "AMAX", "BMIN", "BMAX"),
    )
    p.add_argument("-M", "--curve-bound", type=int, default=argparse.SUPPRESS, help="max m, n of curve families")
    p.add_argument("-R", "--sporadic-r-bound", type=int, default=argparse.SUPPRESS, help="max r of sporadic points")
    p.add_argument("-D", "--den-bound", type=int, default=argparse.SUPPRESS, help="max p of segments and sporadics")
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS, help="polyline samples per curve")
    p.add_argument("--width", type=int, default=640, help="SVG width in pixels")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_plot)

    for p in (parser, *sub.choices.values()):
        # argparse only waves through option-like tokens that look like negative
        # numbers; widen that to negative p/q so `classify -3/2 -3/4` parses
        p._negative_number_matcher = _NEGATIVE_RATIONAL  # noqa: SLF001
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and write its output: the only writer of command output.

    The text goes to the file ``--out`` names, unless it is ``-``, or to
    stdout, flushed so that a closed pipe fails here and not at interpreter
    exit; only then is a summary line printed to stderr.

    The arguments are parsed under the interpreter's limit on the digits of
    an int read from or written as text (``sys.get_int_max_str_digits()``),
    which guards against quadratic ``int(str)`` on untrusted input;
    ``verdict_from_dict`` keeps it too.  The printed numbers are products of
    the input parts, such as the period ``b*d``, so the command runs and
    writes with the limit lifted, and ``main`` restores it on return.
    """
    args = build_parser().parse_args(argv)
    # int reads 0, no limit, on an interpreter that has none (CPython before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text, code, *summary = args.func(args)
        out = getattr(args, "out", None)  # only sweep, preorder and plot take --out
        if out is None or out == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        for line in summary:
            print(line, file=sys.stderr)
        return code
    except BrokenPipeError as exc:
        # a reader has gone: as in the Python docs' SIGPIPE note, point each stream
        # whose pipe is closed at devnull, so the final flush at exit cannot fail
        for stream, text in ((sys.stdout, ""), (sys.stderr, f"error: {exc}\n")):
            try:
                stream.write(text)
                stream.flush()
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
