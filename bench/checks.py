"""Independent output checkers.

Everything here is derived from the paper's mathematics with ``math.floor``
and ``math.ceil`` on ``Fraction``; nothing calls into floorcomm, so a fault
in the library cannot hide behind a check that shares its code.  Each
checker returns ``None`` when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Any

Q = Fraction


def commutator(alpha: Q, beta: Q, x: Q) -> int:
    """floor(alpha*floor(beta*x)) - floor(beta*floor(alpha*x))."""
    return floor(alpha * floor(beta * x)) - floor(beta * floor(alpha * x))


def fmt(x: Q) -> str:
    """The p or p/q text of a rational in lowest terms."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def witness_error(alpha: Q, beta: Q, kind: str, params: dict[str, int]) -> str | None:
    """Does the witness put (alpha, beta) on its member family, exactly?"""
    a, b = Q(alpha), Q(beta)
    try:
        if kind == "axis_zero":
            ok = not params and (a == 0 or b == 0)
        elif kind == "mixed_neg_pos":
            ok = not params and a < 0 < b
        elif kind == "positive_linear":
            m, n = params["m"], params["n"]
            ok = a > 0 and b > 0 and m >= 0 and n >= 0 and m + n > 0 and m * a * b + n * a == b
        elif kind == "neg_hyperbola":
            m, n = params["m"], params["n"]
            ok = a < 0 and b < 0 and m >= 0 and n >= 1 and m * a * b - n * b == -a
        elif kind == "neg_vertical":
            p, q = params["p"], params["q"]
            ok = p >= 1 and q >= 1 and gcd(p, q) == 1 and a == Q(-q, p) and Q(-1, p) <= b < 0
        elif kind == "neg_sporadic":
            p, q, m, n, r = (params[k] for k in ("p", "q", "m", "n", "r"))
            ok = p >= 1 and q >= 1 and gcd(p, q) == 1 and a == Q(-q, p)
            ok = ok and m >= 0 and n >= 1 and r >= 2
            share = Q(m, p) + Q(n, q)
            ok = ok and 0 < share < 1 and b == Q(-1, p) / (1 + (share - 1) / r)
        else:
            return f"unknown witness kind {kind!r}"
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed {kind} witness {params}: {exc!r}"
    return None if ok else f"{kind} {params} is not on its family at ({fmt(a)}, {fmt(b)})"


def verdict_error(
    alpha: Q,
    beta: Q,
    member: bool,
    kind: str | None,
    params: dict[str, int] | None,
    counterexample: Q | None,
) -> str | None:
    """A member needs a family witness; a non-member needs x with commutator < 0."""
    if member:
        if kind is None or counterexample is not None:
            return "member verdict without a witness, or with a counterexample"
        return witness_error(alpha, beta, kind, params or {})
    if kind is not None or counterexample is None:
        return "non-member verdict without a counterexample, or with a witness"
    value = commutator(Q(alpha), Q(beta), Q(counterexample))
    if value >= 0:
        return f"commutator at counterexample {fmt(counterexample)} is {value}, not < 0"
    return None


def api_verdict_error(alpha: Q, beta: Q, verdict: Any) -> str | None:
    """verdict_error for a floorcomm ``Verdict`` object."""
    witness = verdict.witness
    kind = None if witness is None else witness.kind
    params = None if witness is None else dict(vars(witness))
    return verdict_error(alpha, beta, verdict.member, kind, params, verdict.counterexample)


def oracle_error(alpha: Q, beta: Q, member: bool, min_value: int, argmin: Q) -> str | None:
    """The verdict agrees with the oracle, and the oracle's minimum is really attained."""
    if member != (min_value >= 0):
        return f"verdict member={member} but oracle min_value={min_value}"
    value = commutator(Q(alpha), Q(beta), Q(argmin))
    if value != min_value:
        return f"commutator at argmin {fmt(argmin)} is {value}, oracle says {min_value}"
    return None


# --- criteria -------------------------------------------------------------


def rounding_violation_error(alpha: Q, beta: Q, n: int | None) -> str | None:
    """The violating integer n has alpha*ceil(n/alpha) > beta*ceil(n/beta); None claims none."""
    if n is None or alpha * ceil(n / alpha) > beta * ceil(n / beta):
        return None
    return f"n={n} does not violate upper rounding order for ({fmt(alpha)}, {fmt(beta)})"


def lattice_hit_error(mu: Q, nu: Q, hit: tuple[int, int] | None) -> str | None:
    """hit = (k, l) puts (k*mu, l*nu) in an open diagonal unit square; None claims none."""
    if hit is None:
        return None
    k, ell = hit
    x, y = k * mu, ell * nu
    if x.denominator != 1 and y.denominator != 1 and floor(x) == floor(y):
        return None
    return f"({k}*{fmt(mu)}, {ell}*{fmt(nu)}) is not inside a diagonal unit square"


def beatty_witness_error(u: Q, v: Q, witness: tuple[int, int] | None) -> str | None:
    """witness = (m, n): integers >= 0, not both zero, with m/u + n/v = 1; None claims none."""
    if witness is None:
        return None
    m, n = witness
    if m >= 0 and n >= 0 and m + n > 0 and m / u + n / v == 1:
        return None
    return f"m={m}, n={n} do not solve m/u + n/v = 1 for ({fmt(u)}, {fmt(v)})"


def _in_arc(x: Q, side: Q) -> bool:
    return side > 1 or 0 < x - floor(x) < side


def torus_hit_error(sigma: Q, tau: Q, n: int | None) -> str | None:
    """n*(sigma, tau) mod Z^2 lies in the projected open corner box (0, sigma) x (0, tau).

    n = 0 is a hit exactly when both sides exceed 1, since the box then covers
    the torus.  None claims no hit.
    """
    if n is None or n >= 0 and _in_arc(n * sigma, sigma) and _in_arc(n * tau, tau):
        return None
    return f"N={n} does not put the subgroup of ({fmt(sigma)}, {fmt(tau)}) in the corner box"


def representable(n: int, a: int, b: int) -> bool:
    """n = i*a + j*b for integers i, j >= 0."""
    return any((n - i * a) % b == 0 for i in range(n // a + 1))


def gaps_error(a: int, b: int, gaps: list[int]) -> str | None:
    """Sylvester: (a-1)(b-1)/2 gaps, ascending, none representable."""
    if len(gaps) != (a - 1) * (b - 1) // 2:
        return f"S({a}, {b}) has {len(gaps)} gaps, Sylvester says {(a - 1) * (b - 1) // 2}"
    if gaps != sorted(set(gaps)) or any(representable(n, a, b) for n in gaps):
        return f"S({a}, {b}) gap list is not ascending or holds a representable number"
    return None


# --- cli ------------------------------------------------------------------


def exit_code_error(code: int, member: bool) -> str | None:
    return None if code == (0 if member else 1) else f"exit code {code} for member={member}"


def classify_json_error(alpha: Q, beta: Q, code: int, stdout: str) -> str | None:
    try:
        data = json.loads(stdout)
        witness = data["witness"]
        kind = None if witness is None else witness["kind"]
        params = None if witness is None else {k: v for k, v in witness.items() if k != "kind"}
        cex = data["counterexample"]
        oracle = data["oracle"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable classify JSON: {exc!r}"
    if (data["alpha"], data["beta"]) != (fmt(alpha), fmt(beta)):
        return f"classify echoed ({data['alpha']}, {data['beta']})"
    if oracle.get("agrees") is not True:
        return "oracle.agrees is not true"
    return exit_code_error(code, data["member"]) or verdict_error(
        alpha, beta, data["member"], kind, params, None if cex is None else Q(cex)
    )


_PLAIN_HEAD = re.compile(r"\((\S+), (\S+)\): (member|non-member)")
_PLAIN_WITNESS = re.compile(r"witness: (\w+)((?: \w+=-?\d+)*)")
_PLAIN_CEX = re.compile(r"counterexample: x = (\S+)")


def classify_plain_error(alpha: Q, beta: Q, code: int, stdout: str) -> str | None:
    lines = stdout.splitlines()
    head = _PLAIN_HEAD.fullmatch(lines[0]) if lines else None
    if head is None or (head[1], head[2]) != (fmt(alpha), fmt(beta)):
        return f"unreadable --plain head line {lines[:1]}"
    member = head[3] == "member"
    kind = params = cex = None
    for line in lines[1:]:
        if match := _PLAIN_WITNESS.fullmatch(line):
            kind = match[1]
            params = {k: int(v) for k, v in (p.split("=") for p in match[2].split())}
        elif match := _PLAIN_CEX.fullmatch(line):
            cex = Q(match[1])
    if not lines[-1].startswith("oracle:") or not lines[-1].endswith("(agrees)"):
        return f"--plain oracle line does not agree: {lines[-1]!r}"
    return exit_code_error(code, member) or verdict_error(alpha, beta, member, kind, params, cex)


def verify_json_error(alpha: Q, beta: Q, code: int, stdout: str) -> str | None:
    try:
        data = json.loads(stdout)
        member, min_value, argmin = data["member"], data["min_value"], Q(data["argmin"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify JSON: {exc!r}"
    return exit_code_error(code, member) or oracle_error(alpha, beta, member, min_value, argmin)


def svg_error(code: int, svg: str) -> str | None:
    import xml.etree.ElementTree as ET  # here, so that workloads without SVG do not import it at set-up

    if code != 0:
        return f"plot exit code {code}"
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"SVG does not parse as XML: {exc}"
    return None if root.tag.endswith("svg") else f"root element is {root.tag}, not svg"


def preorder_json_error(code: int, stdout: str) -> str | None:
    try:
        data = json.loads(stdout)
        values, matrix = data["values"], data["precedes"]
        classes = data["equivalence_classes"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable preorder JSON: {exc!r}"
    if code != 0 or data["transitivity_counterexample"] is not None:
        return f"preorder reports a transitivity violation (exit {code})"
    if len(matrix) != len(values) or any(len(row) != len(values) for row in matrix):
        return "precedence matrix is not square over the values"
    if not all(matrix[i][i] for i in range(len(values))):
        return "precedence is not reflexive"
    if sorted(v for cls in classes for v in cls) != sorted(values):
        return "equivalence classes do not partition the values"
    return None


SWEEP_HEADER = ["alpha", "beta", "member", "witness_kind", "witness_params", "oracle_min", "agree"]


def sweep_csv_error(code: int, text: str, values: list[Q]) -> str | None:
    """Every pair of the grid exactly once, member iff oracle_min >= 0, witnesses on their family."""
    rows = [line.split(",") for line in text.splitlines()]
    if code != 0 or not rows or rows[0] != SWEEP_HEADER:
        return f"sweep exit code {code} or header {rows[:1]}"
    expected = {(fmt(a), fmt(b)) for a in values for b in values}
    seen = set()
    for row in rows[1:]:
        if len(row) != len(SWEEP_HEADER):
            return f"malformed sweep row {row}"
        alpha, beta, member, kind, params, oracle_min, agree = row
        if member not in ("true", "false") or agree != "true":
            return f"row {row}: member/agree field"
        if (member == "true") != (int(oracle_min) >= 0):
            return f"row {row}: member disagrees with oracle_min"
        if member == "true":
            fields = {k: int(v) for k, v in (p.split("=") for p in params.split(";") if p)}
            reason = witness_error(Q(alpha), Q(beta), kind, fields)
            if reason:
                return f"row {row}: {reason}"
        seen.add((alpha, beta))
    if len(rows) - 1 != len(expected) or seen != expected:
        return f"sweep has {len(rows) - 1} rows, the grid has {len(expected)} pairs"
    return None
