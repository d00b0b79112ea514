"""Command-line surface: classification, verification, sweeps, and figures.

Exit codes follow the verdict convention throughout: 0 for a member or
affirmative result, 1 for a non-member or negative result, 2 for usage,
parse, or output errors.  All numeric output is exact ``p/q`` text; floats
appear only inside SVG coordinates.

Each command builds its payload once and hands the one text asked for (JSON,
plain lines, CSV or SVG) to ``_emit``, the only writer of command output.

This module imports ``classify``, ``exact`` and ``floorfn`` (and through
them ``_kernels``), which ``classify``, ``verify`` and ``sweep`` run.  The
commands ``beatty``, ``frobenius``, ``preorder`` and ``plot`` each import the
module they use when they run, and ``_csv``, which only ``preorder`` writes
through, imports ``csv``, so a start loads only what its command runs:
``classify`` and ``sweep`` load none of ``beatty``, ``geometry``,
``semigroup``, ``preorder``, ``plot`` or ``csv``.  ``sweep`` writes each CSV
row as one formatted line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .classify import Verdict, Witness, _witness, classify
from .exact import Rat, format_rat, parse_rat
from .floorfn import DilationPair, OracleReport, _oracle_min, commutator, oracle_verify

_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


def witness_to_dict(witness: Witness | None) -> dict[str, Any] | None:
    # the fields, in declaration order
    return None if witness is None else {"kind": witness.kind} | vars(witness)


def verdict_to_dict(verdict: Verdict) -> dict[str, Any]:
    return {
        "alpha": format_rat(verdict.pair.alpha),
        "beta": format_rat(verdict.pair.beta),
        "member": verdict.member,
        "witness": witness_to_dict(verdict.witness),
        "counterexample": None if verdict.counterexample is None else format_rat(verdict.counterexample),
    }


def verdict_from_dict(data: dict[str, Any]) -> Verdict:
    """Decode a ``verdict_to_dict`` payload by deciding its pair again with ``classify``.

    ValueError unless ``data`` is such a payload, its ``member`` and ``witness``
    are that verdict's, and the counterexample is None for a member and, for a
    non-member, any point where the commutator is negative (kept as given, so
    the oracle's argmin decodes).
    """
    try:
        alpha, beta = parse_rat(data["alpha"]), parse_rat(data["beta"])
        x = None if data.get("counterexample") is None else parse_rat(data["counterexample"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a verdict_to_dict payload: {exc!r}") from exc
    verdict = classify(DilationPair(alpha, beta))
    same = data.get("member") is verdict.member and data.get("witness") == witness_to_dict(verdict.witness)
    if not (same and (verdict.member if x is None else commutator(verdict.pair, x) < 0)):
        raise ValueError(f"not the verdict of ({data['alpha']}, {data['beta']})")
    return verdict if x is None else replace(verdict, counterexample=x)


def report_to_dict(report: OracleReport) -> dict[str, Any]:
    # the fields, in declaration order, with the two Rats as text
    return vars(report) | {"period": format_rat(report.period), "argmin": format_rat(report.argmin)}


def _witness_params(witness: Witness | None) -> list[str]:
    return [] if witness is None else [f"{key}={value}" for key, value in vars(witness).items()]


def _json(payload: Any) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv(rows: Iterable[Sequence[Any]]) -> str:
    """Rows, the header first, as CSV text with bools as ``true``/``false``."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in row] for row in rows)
    return buffer.getvalue()


def _emit(text: str, out: str | None = None) -> None:
    """Write a command's output: to stdout, or to the file ``out`` unless it is ``-``."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def cmd_classify(args: argparse.Namespace) -> int:
    pair = DilationPair(args.alpha, args.beta)
    verdict = classify(pair)
    report = None
    if not args.no_oracle:
        report = oracle_verify(pair)
        if not (verdict.member or report.member):
            # with the oracle on, a non-member's counterexample is its argmin
            verdict = replace(verdict, counterexample=report.argmin)
    payload = verdict_to_dict(verdict)
    if report is not None:
        payload["oracle"] = report_to_dict(report) | {"agrees": report.member == verdict.member}
    if args.fmt == "json":
        text = _json(payload)
    else:
        text = f"({payload['alpha']}, {payload['beta']}): {'member' if verdict.member else 'non-member'}\n"
        if verdict.witness is not None:
            text += " ".join([f"witness: {verdict.witness.kind}", *_witness_params(verdict.witness)]) + "\n"
        if payload["counterexample"] is not None:
            text += f"counterexample: x = {payload['counterexample']}\n"
        if report is not None:
            oracle = payload["oracle"]
            agrees = "agrees" if oracle["agrees"] else "DISAGREES"
            text += f"oracle: period {oracle['period']}, min {oracle['min_value']}"
            text += f" at {oracle['argmin']} ({agrees})\n"
    _emit(text)
    return 0 if verdict.member else 1


def cmd_verify(args: argparse.Namespace) -> int:
    pair = DilationPair(args.alpha, args.beta)
    report = oracle_verify(pair)
    payload = {"alpha": format_rat(pair.alpha), "beta": format_rat(pair.beta)}
    payload |= report_to_dict(report) | {"member": report.member}
    text = _json(payload) if args.fmt == "json" else (
        "({alpha}, {beta}): {status}; min {min_value} at {argmin} over period {period}"
        " ({breakpoints_checked} breakpoints, {samples_checked} samples)\n"
    ).format_map(payload | {"status": "member" if report.member else "non-member"})
    _emit(text)
    return 0 if report.member else 1


# on the numerators, which carry the sign of a Fraction
_QUADRANT_TESTS = {
    "all": lambda a, b: True,
    "++": lambda a, b: a > 0 and b > 0,
    "+-": lambda a, b: a > 0 and b < 0,
    "-+": lambda a, b: a < 0 and b > 0,
    "--": lambda a, b: a < 0 and b < 0,
}


def sweep_values(num_bound: int, den_bound: int) -> list[Rat]:
    """All distinct rationals p/q with |p| <= num_bound, 1 <= q <= den_bound, plus 0."""
    if num_bound < 1 or den_bound < 1:
        raise ValueError("sweep bounds must be >= 1")
    values = {Fraction(0)}
    for q in range(1, den_bound + 1):
        for p in range(1, num_bound + 1):
            values.add(Fraction(p, q))
            values.add(Fraction(-p, q))
    return sorted(values)


SWEEP_COLUMNS = ("alpha", "beta", "member", "witness_kind", "witness_params", "oracle_min", "agree")


def _sweep_csv(rows: list[tuple[Any, ...]]) -> str:
    """Sweep rows, the header first, as CSV text, one formatted line per row.

    Every field is ``p/q`` text, an identifier, ``k=v;...``, an int or a
    bool, so none needs quoting.  Only the two bool columns become
    ``true``/``false``: ``oracle_min`` stays an int where it is 0 (== False).
    """
    lines = [",".join(SWEEP_COLUMNS)]
    for alpha, beta, member, kind, params, oracle_min, agree in rows:
        member_text = "true" if member else "false"
        agree_text = "true" if agree else "false"
        lines.append(f"{alpha},{beta},{member_text},{kind},{params},{oracle_min},{agree_text}")
    lines.append("")
    return "\n".join(lines)


def cmd_sweep(args: argparse.Namespace) -> int:
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
            # no counterexample column, so the sweep needs the witness and not a Verdict,
            # and the oracle's least value and not its report
            witness = _witness(a, b, c, d)
            member = witness is not None
            oracle_min = _oracle_min(a, b, c, d)[0] if a and c else 0
            agree = member == (oracle_min >= 0)
            members += member
            disagreements += not agree
            kind = "" if witness is None else witness.kind
            params = ";".join(_witness_params(witness))
            rows.append((alpha_text, beta_text, member, kind, params, oracle_min, agree))
    if args.fmt == "json":
        summary = {"pairs": len(rows), "members": members, "disagreements": disagreements}
        text = _json({"rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows], "summary": summary})
    else:
        text = _sweep_csv(rows)
    _emit(text, args.out)
    print(f"sweep: {len(rows)} pairs, {members} members, {disagreements} disagreements", file=sys.stderr)
    return 0 if disagreements == 0 else 1


def cmd_beatty(args: argparse.Namespace) -> int:
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
    _emit(text)
    return 0 if disjoint else 1


def cmd_frobenius(args: argparse.Namespace) -> int:
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
    _emit(text)
    return 0


def cmd_preorder(args: argparse.Namespace) -> int:
    from .preorder import Preorder

    relation = Preorder.on(v for v in sweep_values(args.num_bound, args.den_bound) if v != 0)
    labels = [format_rat(v) for v in relation.values]
    violation = relation.violation()
    if args.fmt == "plain":
        rows = ([label, *row] for label, row in zip(labels, relation.matrix()))
        text = _csv([["alpha\\beta", *labels], *rows])
    else:
        text = _json({
            "values": labels,
            "precedes": relation.matrix(),
            "transitivity_counterexample": None
            if violation is None
            else [format_rat(v) for v in violation],
            "equivalence_classes": [
                [format_rat(v) for v in cls] for cls in relation.classes()
            ],
        })
    _emit(text, args.out)
    status = "holds" if violation is None else f"violated: ({', '.join(map(format_rat, violation))})"
    print(f"preorder: {len(labels)} values, transitivity {status}", file=sys.stderr)
    return 0 if violation is None else 1


def cmd_plot(args: argparse.Namespace) -> int:
    from .plot import PlotSpec, build_plot_model, render_svg

    # a count left off the command line is absent from args, so PlotSpec's own default applies
    counts = {name: getattr(args, name) for name in ("curve_bound", "sporadic_r_bound", "den_bound", "samples")
              if name in args}
    spec = PlotSpec(*args.viewbox, **counts)
    _emit(render_svg(build_plot_model(spec), width=args.width), args.out)
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here and not at interpreter exit
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
