"""Command-line surface: classification, verification, sweeps, and figures.

Exit codes follow the verdict convention throughout: 0 for a member or
affirmative result, 1 for a non-member or negative result, 2 for usage,
parse, or output errors.  All numeric output is exact ``p/q`` text; floats
appear only inside SVG coordinates.

Each command builds its payload once and returns the one text asked for
(JSON, plain lines, CSV or SVG) with its exit code, and ``sweep`` and
``preorder`` a summary line after them; ``main`` is the only writer of
command output, and prints a summary only once the text is written.

This module imports ``exact`` and the private integer modules ``_decide``,
``_kernels`` and ``_oracle``, which ``classify``, ``verify`` and ``sweep``
run: they decide and verify each pair on its four integer parts and format
the ints without building a record.  ``preorder`` and ``plot`` import the
private modules ``_preorder`` and ``_plot`` when they run, and work on
integer parts the same way: the relation's rows, its violation and classes
as indices into the grid, and the figure as tuples of integer pairs.  So
none of these five commands loads ``dataclasses`` or a record module
(``classify``, ``floorfn``, ``preorder``, ``plot``).  The ``*_to_dict``
functions serialise the records through the same payload builders, and
``verdict_from_dict`` checks a payload's proof on its integer parts and
imports the records only to build the ``Verdict``.  ``beatty`` and
``frobenius`` import the module they use when they run, so a start loads only
what its command runs.  No command loads ``csv``: ``_csv`` writes CSV by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ._decide import WITNESS_FIELDS, _counterexample, _witness
from ._oracle import _commutator, _report
from .exact import Rat, _rat_text, format_rat, parse_rat, require_int

if TYPE_CHECKING:
    from .classify import Verdict, Witness
    from .floorfn import OracleReport

_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


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
    return json.dumps(payload, indent=2) + "\n"


def _csv(rows: Iterable[Sequence[Any]]) -> str:
    """Rows, the header first, as CSV text, converted a column at a time for speed.

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
    alpha, beta = args.alpha, args.beta
    a, b, c, d = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    witness = _witness(a, b, c, d)
    member = witness is not None
    report = None if args.no_oracle else _report(a, b, c, d)
    x = None
    if not member:
        # with the oracle on, a non-member's counterexample is the oracle's argmin, checked like
        # the certificate; the certificate is searched only when the oracle finds no negative value
        x = _counterexample(a, b, c, d, report[2:4] if report is not None and report[1] < 0 else None)
    payload = _verdict_payload(
        format_rat(alpha),
        format_rat(beta),
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
    alpha, beta = args.alpha, args.beta
    payload = {"alpha": format_rat(alpha), "beta": format_rat(beta)}
    payload |= _oracle_payload(_report(alpha.numerator, alpha.denominator, beta.numerator, beta.denominator))
    member = payload["min_value"] >= 0
    payload["member"] = member
    text = _json(payload) if args.fmt == "json" else (
        "({alpha}, {beta}): {status}; min {min_value} at {argmin} over period {period}"
        " ({breakpoints_checked} breakpoints, {samples_checked} samples)\n"
    ).format_map(payload | {"status": "member" if member else "non-member"})
    return text, 0 if member else 1


# on the numerators, which carry the sign of a Fraction
_QUADRANT_TESTS = {
    "all": lambda a, b: True,
    "++": lambda a, b: a > 0 and b > 0,
    "+-": lambda a, b: a > 0 and b < 0,
    "-+": lambda a, b: a < 0 and b > 0,
    "--": lambda a, b: a < 0 and b < 0,
}


def sweep_values(num_bound: int, den_bound: int) -> list[Rat]:
    """Distinct p/q with |p| <= num_bound, 1 <= q <= den_bound, plus 0; a bool or float bound raises TypeError."""
    require_int(num_bound, "num_bound")
    require_int(den_bound, "den_bound")
    if num_bound < 1 or den_bound < 1:
        raise ValueError("sweep bounds must be >= 1")
    values = {Fraction(0)}
    for q in range(1, den_bound + 1):
        for p in range(1, num_bound + 1):
            values.add(Fraction(p, q))
            values.add(Fraction(-p, q))
    return sorted(values)


SWEEP_COLUMNS = ("alpha", "beta", "member", "witness_kind", "witness_params", "oracle_min", "agree")


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int, str]:
    # each value's integer parts and text, read and formatted once
    values = [
        (value.numerator, value.denominator, format_rat(value))
        for value in sweep_values(args.num_bound, args.den_bound)
    ]
    # argparse drops the lone "--" of --quadrant=-- and leaves an empty list
    in_quadrant = _QUADRANT_TESTS[args.quadrant or "--"]
    rows = []
    members = disagreements = 0
    for a, b, alpha_text in values:
        for c, d, beta_text in values:
            if not in_quadrant(a, c):
                continue
            # no counterexample column: the sweep needs the witness and the oracle's least value
            witness = _witness(a, b, c, d)
            member = witness is not None
            oracle_min = _report(a, b, c, d)[1]
            agree = member == (oracle_min >= 0)
            members += member
            disagreements += not agree
            kind, params = ("", "") if witness is None else (witness[0], ";".join(_witness_params(*witness)))
            rows.append((alpha_text, beta_text, member, kind, params, oracle_min, agree))
    if args.fmt == "json":
        summary = {"pairs": len(rows), "members": members, "disagreements": disagreements}
        text = _json({"rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows], "summary": summary})
    else:
        text = _csv([SWEEP_COLUMNS, *rows])
    code = 0 if disagreements == 0 else 1
    return text, code, f"sweep: {len(rows)} pairs, {members} members, {disagreements} disagreements"


def cmd_beatty(args: argparse.Namespace) -> tuple[str, int]:
    from .beatty import beatty_contains, beatty_pos_contains, disjointness_witness, reduced_contains, reduced_disjoint

    u, v = args.u, args.v
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
        "u": format_rat(u),
        "v": format_rat(v),
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
    text = _json(payload) if args.fmt == "json" else (
        "S({a}, {b}): frobenius number {frobenius_number}\n"
        "non-realizing set: {nonrealizing_set}\n"
        "sylvester duality: {sylvester_duality}\n"
    ).format_map(payload)
    return text, 0


def cmd_preorder(args: argparse.Namespace) -> tuple[str, int, str]:
    from ._preorder import _classes, _matrix, _rows, _violation

    values = [value for value in sweep_values(args.num_bound, args.den_bound) if value != 0]
    parts = [(value.numerator, value.denominator) for value in values]
    labels = [format_rat(value) for value in values]
    rows = _rows(parts)
    matrix = _matrix(rows, len(rows))
    violation = _violation(rows)
    if args.fmt == "plain":
        text = _csv([["alpha\\beta", *labels], *([label, *row] for label, row in zip(labels, matrix))])
    else:
        text = _json({
            "values": labels,
            "precedes": matrix,
            "transitivity_counterexample": None if violation is None else [labels[i] for i in violation],
            "equivalence_classes": [[labels[i] for i in cls] for cls in _classes(parts, rows)],
        })
    status = "holds" if violation is None else f"violated: ({', '.join(labels[i] for i in violation)})"
    return text, 0 if violation is None else 1, f"preorder: {len(labels)} values, transitivity {status}"


def cmd_plot(args: argparse.Namespace) -> tuple[str, int]:
    from ._plot import COUNT_DEFAULTS, _check_spec, _model, _render

    # a count left off the command line is absent from args and takes its PlotSpec default
    counts = [getattr(args, name, default) for name, default in COUNT_DEFAULTS.items()]
    box = _check_spec(*args.viewbox, *counts)
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
    p.add_argument("alpha", type=parse_rat, help="dilation factor, p or p/q")
    p.add_argument("beta", type=parse_rat, help="dilation factor, p or p/q")
    p.add_argument("--no-oracle", action="store_true", help="skip the exhaustive cross-check")
    _add_format_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="exhaustive commutator minimum over one period")
    p.add_argument("alpha", type=parse_rat)
    p.add_argument("beta", type=parse_rat)
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
    p.add_argument("u", type=parse_rat)
    p.add_argument("v", type=parse_rat)
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
        type=parse_rat,
        nargs=4,
        default=(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2)),
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
    """
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    raise SystemExit(main())
