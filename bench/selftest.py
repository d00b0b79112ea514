"""Fast self-test of the benchmark's output checkers: python3 bench/selftest.py

Each checker must accept a right answer and reject a tampered one.  The
inputs are written out by hand from the paper's families, so the test needs
no floorcomm and runs in well under a second.  It is not named test_*.py, so
the repository's pytest run does not collect it.
"""

from __future__ import annotations

import sys
from fractions import Fraction as Q

import checks

FAILURES: list[str] = []


def expect(accepts: bool, reason: str | None, what: str) -> None:
    if (reason is None) != accepts:
        FAILURES.append(f"{what}: expected {'accept' if accepts else 'reject'}, got {reason!r}")


# 3x3 sweep over {-1, 0, 1}; (1, -1) is the only non-member (min -1 off the integers).
SWEEP_CSV = """alpha,beta,member,witness_kind,witness_params,oracle_min,agree
-1,-1,true,neg_hyperbola,m=0;n=1,0,true
-1,0,true,axis_zero,,0,true
-1,1,true,mixed_neg_pos,,0,true
0,-1,true,axis_zero,,0,true
0,0,true,axis_zero,,0,true
0,1,true,axis_zero,,0,true
1,-1,false,,,-1,true
1,0,true,axis_zero,,0,true
1,1,true,positive_linear,m=0;n=1,0,true
"""


def main() -> int:
    third, half, two_thirds = Q(1, 3), Q(1, 2), Q(2, 3)

    # members: every family equation, and a tampered witness
    expect(True, checks.witness_error(third, half, "positive_linear", {"m": 1, "n": 1}), "positive line")
    expect(False, checks.witness_error(third, half, "positive_linear", {"m": 2, "n": 1}), "tampered m")
    expect(False, checks.witness_error(third, half, "positive_linear", {"m": 0, "n": 0}), "m = n = 0")
    expect(True, checks.witness_error(Q(-1), Q(-1), "neg_hyperbola", {"m": 0, "n": 1}), "hyperbola")
    expect(False, checks.witness_error(Q(-1), Q(-1), "neg_hyperbola", {"m": 1, "n": 1}), "tampered hyperbola")
    expect(True, checks.witness_error(Q(-3, 2), Q(-1, 3), "neg_vertical", {"p": 2, "q": 3}), "vertical")
    expect(False, checks.witness_error(Q(-3, 2), Q(-2, 3), "neg_vertical", {"p": 2, "q": 3}), "below vertical")
    # sporadic p=2, q=3, m=0, n=1, r=2: beta = -(1/2) / (1 + (1/3 - 1)/2) = -3/4
    sporadic = {"p": 2, "q": 3, "m": 0, "n": 1, "r": 2}
    expect(True, checks.witness_error(Q(-3, 2), Q(-3, 4), "neg_sporadic", sporadic), "sporadic")
    expect(False, checks.witness_error(Q(-3, 2), Q(-4, 5), "neg_sporadic", sporadic), "off sporadic")
    expect(False, checks.witness_error(third, half, "axis_zero", {}), "axis off axis")

    # non-members: commutator at x = 3 for (2/3, 1/2) is -1; moved to x = 0 it is 0
    expect(True, checks.verdict_error(two_thirds, half, False, None, None, Q(3)), "counterexample")
    expect(False, checks.verdict_error(two_thirds, half, False, None, None, Q(0)), "moved counterexample")
    expect(False, checks.oracle_error(two_thirds, half, False, -1, Q(0)), "oracle argmin moved")
    expect(True, checks.oracle_error(two_thirds, half, False, -1, Q(3)), "oracle argmin")

    # criteria certificates
    expect(True, checks.beatty_witness_error(Q(3), Q(3, 2), (1, 1)), "Beatty witness")
    expect(False, checks.beatty_witness_error(Q(3), Q(3, 2), (2, 1)), "tampered Beatty witness")
    expect(True, checks.lattice_hit_error(Q(3, 2), Q(5, 4), (1, 1)), "lattice hit")
    expect(False, checks.lattice_hit_error(Q(3, 2), Q(5, 4), (2, 1)), "lattice miss")
    expect(True, checks.torus_hit_error(Q(2, 3), Q(3, 4), 2), "torus hit")
    expect(False, checks.torus_hit_error(Q(4, 9), Q(1, 3), 3), "torus miss")
    expect(True, checks.rounding_violation_error(two_thirds, half, 1), "rounding violation")
    expect(False, checks.rounding_violation_error(third, half, 1), "no rounding violation")
    expect(True, checks.gaps_error(3, 5, [1, 2, 4, 7]), "gaps of S(3, 5)")
    expect(False, checks.gaps_error(3, 5, [1, 2, 4, 6]), "6 is representable")

    # cli outputs
    values = [Q(-1), Q(0), Q(1)]
    expect(True, checks.sweep_csv_error(0, SWEEP_CSV, values), "sweep CSV")
    flipped = SWEEP_CSV.replace("1,-1,false,,,-1,true", "1,-1,true,,,-1,true")
    expect(False, checks.sweep_csv_error(0, flipped, values), "flipped CSV member")
    expect(False, checks.sweep_csv_error(0, SWEEP_CSV.rsplit("\n", 2)[0] + "\n", values), "missing CSV row")
    plain = "(2/3, 1/2): non-member\ncounterexample: x = 3\noracle: period 6, min -1 at 3 (agrees)\n"
    expect(True, checks.classify_plain_error(two_thirds, half, 1, plain), "--plain non-member")
    expect(False, checks.classify_plain_error(two_thirds, half, 1, plain.replace("x = 3", "x = 0")), "--plain moved")
    expect(False, checks.classify_plain_error(two_thirds, half, 0, plain), "--plain exit code")
    expect(True, checks.svg_error(0, '<svg xmlns="http://www.w3.org/2000/svg"></svg>'), "SVG")
    expect(False, checks.svg_error(0, "<svg><g></svg>"), "broken SVG")

    for failure in FAILURES:
        print("FAIL", failure)
    print(f"selftest: {'ok' if not FAILURES else f'{len(FAILURES)} failures'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
