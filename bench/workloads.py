"""Workload inputs, operations and the checks that judge each operation.

Every input is generated here from the seed; floorcomm only ever sees the
generated values.  An operation is a plain tuple of inputs: the workload's
``call`` turns it into a floorcomm call when it runs, and its ``label`` is
written only for an operation that fails.  Calls look floorcomm functions up
as module attributes at call time, so the traced run's wrappers are picked
up without touching the package.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from pathlib import Path
from typing import Any, Callable

import floorcomm as fc

import checks
from checks import fmt

ROOT = Path(__file__).resolve().parents[1]

# Denominator scale of the bits ladder, tenfold per rung.  The top rung keeps
# one pass over the ladder near 2 s, so a 25 s run times several passes.
BITS_RUNGS = (50, 500, 5_000, 50_000)

# Seconds one CLI invocation may take before it counts as failed.
CLI_TIMEOUT_S = 120


def _no_known_fault(_op: tuple, _raised: Any) -> bool:
    return False


@dataclass
class Workload:
    """The operations of one workload and how to run, judge and name them.

    ``check(op, output)`` returns None for a right output and a one-line
    reason otherwise.  It is called once per operation, in order, in the
    round that is checked.  ``known_fault(op, raised)`` tells whether an
    exception (the worker's ``Raised`` record: ``kind``, ``message``,
    ``where``) is the known fault that is counted as failed.
    """

    ops: list[tuple]
    call: Callable[[tuple], Any]
    check: Callable[[tuple, Any], str | None]
    label: Callable[[tuple], str]
    values: list[Q]  # the rationals the workload handles, for the exact.* timings
    known_fault: Callable[[tuple, Any], bool] = _no_known_fault
    rss_of_children: bool = False
    tmpdir: Path | None = None

    def close(self) -> None:
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.tmpdir.parent.rmdir()


def signed_grid(num_bound: int, den_bound: int, zero: bool) -> list[Q]:
    """Distinct p/q with 1 <= |p| <= num_bound, 1 <= q <= den_bound, optionally 0."""
    values = {Q(s * p, q) for q in range(1, den_bound + 1) for p in range(1, num_bound + 1) for s in (1, -1)}
    if zero:
        values.add(Q(0))
    return sorted(values)


def positive_grid(num_bound: int, den_bound: int) -> list[Q]:
    return [v for v in signed_grid(num_bound, den_bound, zero=False) if v > 0]


# --- grid -----------------------------------------------------------------

# Where the known int-pair fault is raised: classify, then one of its witness searches.
FAULT_SITES = {
    ("classify.classify", "classify.positive_witness"),
    ("classify.classify", "classify.negative_witness"),
}


def _grid_call(op: tuple) -> Any:
    pair = fc.DilationPair(op[0], op[1])
    return fc.classify(pair), fc.oracle_verify(pair)


def _grid_check(op: tuple, output: Any) -> str | None:
    alpha, beta = Q(op[0]), Q(op[1])
    verdict, report = output
    return checks.api_verdict_error(alpha, beta, verdict) or checks.oracle_error(
        alpha, beta, verdict.member, report.min_value, report.argmin
    )


def _grid_label(op: tuple) -> str:
    a, b, _ = op
    return f"int ({a}, {b})" if isinstance(a, int) else f"({fmt(a)}, {fmt(b)})"


def _int_pair_fault(op: tuple, raised: Any) -> bool:
    """The known fault: classify's witness search raises AttributeError on a nonzero same-sign int pair.

    ``1/alpha`` and ``alpha/beta`` are floats for ints, and the searches in
    floorcomm/classify.py read their ``.numerator`` and ``.denominator``.
    """
    return op[2] and raised.kind == "AttributeError" and raised.where[:2] in FAULT_SITES


def build_grid(rng: random.Random) -> Workload:
    """Ops (alpha, beta, hits_int_fault): every signed-grid pair, then the int points."""
    values = signed_grid(10, 10, zero=True)
    ops = [(a, b, False) for a in values for b in values]
    ops += [(a, b, a * b > 0) for a in range(-10, 11) for b in range(-10, 11)]
    rng.shuffle(ops)
    return Workload(ops, _grid_call, _grid_check, _grid_label, values, known_fault=_int_pair_fault)


# --- bits -----------------------------------------------------------------


def _above(rng: random.Random, base: int, *coprime_to: int) -> int:
    """A seeded integer just above base (within 1%), coprime to the given ones."""
    d = base + rng.randint(1, max(2, base // 100))
    while any(gcd(d, c) != 1 for c in coprime_to):
        d += 1
    return d


def positive_member(rng: random.Random, n: int) -> tuple[Q, Q]:
    """(a/(a*n + d), a/d) with d > n: on m*alpha*beta + alpha = beta at m = n.

    No m < n makes the family's n integral, so a scan over m runs n + 1 steps.
    """
    a = rng.randint(1, 5)
    d = _above(rng, n, a)
    return Q(a, a * n + d), Q(a, d)


def positive_nonmember(rng: random.Random, n: int) -> tuple[Q, Q]:
    """(a/b, c/d) with a >= 2 coprime to b and c: m*a*c + k*a*d = b*c has no solution.

    The numerator pair is drawn with a*c = 6, so the scan (about n/2 steps)
    and the oracle's breakpoint count (about 6n) do not depend on the draw.
    """
    a, c = rng.choice(((2, 3), (3, 2), (6, 1)))
    b = _above(rng, a * (n // 2), a)
    d = _above(rng, c * (n // 2), c, b)
    return Q(a, b), Q(c, d)


def negative_member(rng: random.Random, n: int) -> tuple[Q, Q]:
    """(-a/b, -a/(a*n + b)) with b > n: on the hyperbola at m = n, k = 1, reached after n + 1 steps."""
    a = rng.randint(1, 5)
    b = _above(rng, n, a)
    return Q(-a, b), Q(-a, a * n + b)


def negative_nonmember(rng: random.Random, n: int) -> tuple[Q, Q]:
    """(-2/p, -3/d) with p, d just above n.

    alpha/beta < 1 rules out the hyperbola, beta < -1/p the vertical segment
    and beta <= -2/p every sporadic point, so the sporadic scan over all
    m < p, k <= 2 runs to its end.  The numerators are fixed: any other pair
    changes the share of the scan that builds slopes.
    """
    p = _above(rng, n, 2)
    d = _above(rng, n, 3, p)
    return Q(-2, p), Q(-3, d)


def mixed_nonmember(rng: random.Random, n: int) -> tuple[Q, Q]:
    """(a/b, -c/d): alpha > 0 > beta is never a member; a*c = 6 fixes the oracle's work."""
    a, c = rng.choice(((1, 6), (2, 3), (3, 2), (6, 1)))
    b = _above(rng, a * (n // 2), a)
    d = _above(rng, c * (n // 2), c, b)
    return Q(a, b), Q(-c, d)


BITS_FAMILIES = (
    ("positive member", positive_member, True),
    ("positive non-member", positive_nonmember, False),
    ("negative hyperbola member", negative_member, True),
    ("negative non-member", negative_nonmember, False),
    ("+- non-member", mixed_nonmember, False),
)


def _bits_call(op: tuple) -> Any:
    return fc.classify(fc.DilationPair(op[2], op[3]))


def _bits_check(op: tuple, verdict: Any) -> str | None:
    _, _, alpha, beta, member = op
    if verdict.member != member:
        return f"verdict member={verdict.member}, the construction gives {member}"
    return checks.api_verdict_error(alpha, beta, verdict)


def _bits_label(op: tuple) -> str:
    n, family, alpha, beta, _ = op
    return f"rung {n} {family} ({fmt(alpha)}, {fmt(beta)})"


def build_bits(rng: random.Random) -> Workload:
    """Ops (rung, family, alpha, beta, member), five families per rung."""
    ops = []
    for n in BITS_RUNGS:
        for family, make, member in BITS_FAMILIES:
            ops.append((n, family, *make(rng, n), member))
    values = [v for op in ops for v in op[2:4]]
    return Workload(ops, _bits_call, _bits_check, _bits_label, values)


# --- criteria -------------------------------------------------------------

# One function per operation kind.  Each builds floorcomm's argument object
# and calls the library.  The three is_member kinds take the grid pair (x, y)
# as (alpha, beta), as (mu, nu) and as (sigma, tau), and map it to (alpha,
# beta) with floorcomm's own coordinate maps; the criteria after each decide
# the same pair in that coordinate system.
CRITERIA_CALLS: dict[str, Callable[..., Any]] = {
    "is_member": lambda alpha, beta: fc.is_member(fc.DilationPair(alpha, beta)),
    "is_member_munu": lambda mu, nu: fc.is_member(fc.from_munu(fc.MuNu(mu, nu))),
    "is_member_sigmatau": lambda sigma, tau: fc.is_member(fc.from_sigmatau(fc.SigmaTau(sigma, tau))),
    "integer_rounding_check": lambda alpha, beta: fc.integer_rounding_check(alpha, beta),
    "lattice_diag_disjoint": lambda mu, nu: fc.lattice_diag_disjoint(fc.LatticeParams(mu, nu)),
    "reduced_disjoint": lambda u, v: fc.reduced_disjoint(u, v),
    "disjointness_witness": lambda u, v: fc.disjointness_witness(u, v),
    "torus_subgroup_avoids": lambda sigma, tau: fc.torus_subgroup_avoids(fc.CornerRect(sigma, tau)),
    "sylvester_duality_holds": lambda a, b: fc.sylvester_duality_holds(fc.SemigroupPair(a, b)),
    "nonrealizing_set": lambda a, b: fc.nonrealizing_set(fc.SemigroupPair(a, b)),
    "audit_transitivity": lambda grid: fc.audit_transitivity(grid),
}


def _criteria_call(op: tuple) -> Any:
    return CRITERIA_CALLS[op[0]](*op[1:])


def _criteria_label(op: tuple) -> str:
    if op[0] == "audit_transitivity":
        return "audit_transitivity(|p|, q <= 6)"
    return f"{op[0]}({fmt(op[1])}, {fmt(op[2])})"


class CriteriaCheck:
    """Judges criteria ops in order: each criterion must equal the is_member decision before it."""

    def __init__(self) -> None:
        self.member: Any = None

    def __call__(self, op: tuple, output: Any) -> str | None:
        kind, *args = op
        if kind.startswith("is_member"):
            self.member = output
            return None if isinstance(output, bool) else f"is_member returned {output!r}"
        if kind == "sylvester_duality_holds":
            return None if output is True else "Sylvester duality reported false"
        if kind == "nonrealizing_set":
            return checks.gaps_error(*args, output)
        if kind == "audit_transitivity":
            return None if output is None else f"transitivity violated at {output}"
        if kind == "integer_rounding_check":
            decision, detail = output[0], checks.rounding_violation_error(*args, output[1])
        elif kind == "lattice_diag_disjoint":
            decision, detail = output[0], checks.lattice_hit_error(*args, output[1])
        elif kind == "reduced_disjoint":
            decision, detail = bool(output), None
        elif kind == "disjointness_witness":
            decision, detail = output is not None, checks.beatty_witness_error(*args, output)
        else:  # torus_subgroup_avoids
            decision, detail = output[0], checks.torus_hit_error(*args, output[1])
        if decision != self.member:
            return f"criterion says {decision}, is_member says {self.member}"
        return detail


def build_criteria(rng: random.Random) -> Workload:
    """Ops (kind, *args): eight decisions per pair of the positive grid, then semigroups and the audit."""
    grid = positive_grid(12, 12)
    pairs = [(x, y) for x in grid for y in grid]
    rng.shuffle(pairs)
    ops: list[tuple] = []
    for x, y in pairs:
        ops += [("is_member", x, y), ("integer_rounding_check", x, y)]
        ops += [("is_member_munu", x, y), ("lattice_diag_disjoint", x, y)]
        ops += [("reduced_disjoint", x, y), ("disjointness_witness", x, y)]
        ops += [("is_member_sigmatau", x, y), ("torus_subgroup_avoids", x, y)]
    for a in range(2, 13):
        for b in range(2, 13):
            if gcd(a, b) == 1:
                ops += [("sylvester_duality_holds", a, b), ("nonrealizing_set", a, b)]
    ops.append(("audit_transitivity", signed_grid(6, 6, zero=False)))
    return Workload(ops, _criteria_call, CriteriaCheck(), _criteria_label, grid)


# --- cli ------------------------------------------------------------------


def _subprocess_call(env: dict[str, str]) -> Callable[[tuple], Any]:
    def call(op: tuple) -> tuple[int, str, str | None]:
        argv, out, _ = op
        if out is not None:
            out.unlink(missing_ok=True)
        command = [sys.executable, "-m", "floorcomm", *argv]
        proc = subprocess.run(command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, None if out is None else out.read_text()

    return call


def _in_process_call(op: tuple) -> tuple[int, str, str | None]:
    argv, out, _ = op
    if out is not None:
        out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = sys.modules["floorcomm.cli"].main(list(argv))
    return code, stdout.getvalue(), None if out is None else out.read_text()


def _cli_check(op: tuple, output: Any) -> str | None:
    return op[2](*output)


def _cli_label(op: tuple) -> str:
    return "floorcomm " + " ".join(op[0])


def build_cli(rng: random.Random, in_process: bool) -> Workload:
    """Ops (argv, output file or None, checker of (exit code, stdout, file text))."""
    import floorcomm.cli  # noqa: F401  (the traced run calls its main in-process)

    member = positive_member(rng, rng.randint(2, 6))
    nonmember = positive_nonmember(rng, rng.randint(4, 8))
    tmpdir = ROOT / ".bench_tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    sweep_csv = tmpdir / "sweep.csv"
    sweep_grid = signed_grid(10, 10, zero=True)

    def classify_check(pair: tuple[Q, Q], plain: bool) -> Callable[..., str | None]:
        judge = checks.classify_plain_error if plain else checks.classify_json_error
        return lambda code, stdout, _file: judge(*pair, code, stdout)

    ops: list[tuple] = []
    for pair in (member, nonmember):
        args = ("classify", fmt(pair[0]), fmt(pair[1]))
        ops.append((args, None, classify_check(pair, plain=False)))
        ops.append((args + ("--plain",), None, classify_check(pair, plain=True)))
    ops += [
        (
            ("verify", fmt(nonmember[0]), fmt(nonmember[1])),
            None,
            lambda code, stdout, _file: checks.verify_json_error(*nonmember, code, stdout),
        ),
        (("plot",), None, lambda code, stdout, _file: checks.svg_error(code, stdout)),
        (
            ("plot", "-M", "6", "-D", "6", "-R", "4", "--samples", "256"),
            None,
            lambda code, stdout, _file: checks.svg_error(code, stdout),
        ),
        (("preorder", "-P", "3", "-Q", "3"), None, lambda code, stdout, _file: checks.preorder_json_error(code, stdout)),
        (
            ("sweep", "-P", "10", "-Q", "10", "--out", str(sweep_csv)),
            sweep_csv,
            lambda code, _stdout, text: checks.sweep_csv_error(code, text, sweep_grid),
        ),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    call = _in_process_call if in_process else _subprocess_call(env)
    values = [*member, *nonmember, Q(-2), Q(2)]
    return Workload(ops, call, _cli_check, _cli_label, values, rss_of_children=not in_process, tmpdir=tmpdir)


def build(name: str, seed: int, in_process: bool) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "grid":
        return build_grid(rng)
    if name == "bits":
        return build_bits(rng)
    if name == "criteria":
        return build_criteria(rng)
    if name == "cli":
        return build_cli(rng, in_process)
    raise ValueError(f"unknown workload {name!r}")
