"""Command-line contract: exit codes, JSON round-trips, deterministic output."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from floorcomm import _decide, _oracle, _preorder, beatty, cli
from floorcomm.classify import Witness, classify
from floorcomm.cli import main, report_to_dict, sweep_values, verdict_from_dict, verdict_to_dict
from floorcomm.exact import format_rat
from floorcomm.floorfn import DilationPair, OracleReport, oracle_verify
from floorcomm.plot import build_plot_model, render_svg
from floorcomm.preorder import Preorder
from reference_oracle import reference_oracle_verify
from test_plot_reference import FIXED_SPECS

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "plot_M2_D2_R2.svg"


def test_classify_member_exit_code_and_json(capsys):
    assert main(["classify", "1/3", "1/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is True
    assert payload["witness"] == {"kind": "positive_linear", "m": 1, "n": 1}
    assert payload["oracle"]["min_value"] == 0
    assert payload["oracle"]["agrees"] is True


def test_classify_non_member_exit_code(capsys):
    assert main(["classify", "2/3", "1/2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is False
    assert payload["witness"] is None
    assert payload["counterexample"] == "3"


def test_classify_parse_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "0.5", "2"])
    assert excinfo.value.code == 2


def test_classify_missing_argument_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "1/3"])
    assert excinfo.value.code == 2


def test_classify_negative_rational_positional(capsys):
    assert main(["classify", "-3/2", "-3/4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["kind"] == "neg_hyperbola"


def test_classify_no_oracle_flag(capsys):
    assert main(["classify", "1/3", "1/2", "--no-oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "oracle" not in payload


def test_classify_plain_format(capsys):
    assert main(["classify", "1/3", "1/2", "--plain"]) == 0
    out = capsys.readouterr().out
    assert "(1/3, 1/2): member" in out
    assert "witness: positive_linear m=1 n=1" in out


def test_verdict_json_round_trip(monkeypatch, capsys):
    # one parser for all runs: building it costs more than a run
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    grid = [(format_rat(alpha), format_rat(beta)) for alpha, beta in product(sweep_values(3, 3), repeat=2)]
    pairs = grid + [
        ("1/3", "1/2"),
        ("-3/2", "-3/4"),
        ("2/3", "1/2"),
        ("0", "5/3"),
        ("-1", "1"),  # mixed_neg_pos
        ("-1", "-2/3"),  # neg_vertical
        ("-2", "-4/3"),  # neg_sporadic
        ("3/7", "-2"),
        ("-2", "-5/3"),  # last: read after the loop
    ]
    for alpha, beta in pairs:
        capsys.readouterr()
        main(["classify", alpha, beta, "--no-oracle"])
        payload = json.loads(capsys.readouterr().out)
        pair = DilationPair(Fraction(alpha), Fraction(beta))
        assert verdict_from_dict(payload) == classify(pair)
        # and the dict encoding itself round-trips exactly
        assert verdict_to_dict(verdict_from_dict(payload)) == payload
        # with the oracle on, the counterexample is the oracle's argmin, and it decodes as given
        main(["classify", alpha, beta])
        default = json.loads(capsys.readouterr().out)
        if default["member"]:
            assert default["counterexample"] is None
        else:
            assert default["counterexample"] == default["oracle"]["argmin"]
        verdict = verdict_from_dict(default)
        assert verdict == replace(classify(pair), counterexample=verdict.counterexample)
        assert verdict_to_dict(verdict) == {key: default[key] for key in payload}
    # the certificate and the argmin differ here
    assert payload["counterexample"] == "3/5" and default["counterexample"] == "11/20"


BIG = 10**18


@st.composite
def large_pairs(draw):
    """(alpha, beta, member) with parts up to about 10**18, in a shape whose verdict is known and fast.

    Members lie on the positive line m*alpha*beta + n*alpha = beta or on the
    negative hyperbola, the positive line at (-beta, -alpha) with n >= 1.
    Non-members are +- pairs, or same-sign pairs whose numerators multiply to
    at most 6 (the certificate's scan is short) and that no family reaches:
    a/b, c/d > 0 with a >= 2 coprime to b and c, so a does not divide b*c in
    m*a*c + n*a*d = b*c; or -q/p, -c/d with c >= 2 coprime to q (no
    hyperbola) and c*p >= 2*d, outside the vertical segment and the
    sporadic band.
    """
    part = st.integers(1, BIG)
    shape = draw(st.sampled_from(["line", "hyperbola", "+-", "++ non-member", "-- non-member"]))
    if shape in ("line", "hyperbola"):
        a, b = draw(part), draw(part)
        m, n = draw(st.integers(0, (b - 1) // a)), draw(st.integers(1 if shape == "hyperbola" else 0, BIG))
        u = Fraction(a, b)
        if shape == "line" and n == 0:  # m*alpha*beta = beta: alpha = 1/m for any beta
            return Fraction(1, max(m, 1)), u, True
        v = n * u / (1 - m * u)  # m*u*v + n*u = v
        return (u, v, True) if shape == "line" else (-v, -u, True)
    if shape == "+-":
        return Fraction(draw(part), draw(part)), Fraction(-draw(part), draw(part)), False
    a, c = draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]))  # a >= 2 coprime to c
    if shape == "++ non-member":
        b, d = draw(part.filter(lambda b: gcd(b, a) == 1)), draw(part)
        return Fraction(a, b), Fraction(c, d), False
    q, c = c, a
    d = draw(part.filter(lambda d: gcd(d, c) == 1))
    p = draw(st.integers(-(-2 * d // c), BIG).filter(lambda p: gcd(p, q) == 1))
    return Fraction(-q, p), Fraction(-c, d), False


@given(large_pairs())
@settings(max_examples=150, deadline=None)
def test_verdict_round_trip_at_large_parts(pair):
    alpha, beta, member = pair
    verdict = classify(DilationPair(alpha, beta))
    assert verdict.member is member
    text, _ = cli.cmd_classify(argparse.Namespace(alpha=alpha, beta=beta, no_oracle=True, fmt="json"))
    payload = json.loads(text)
    assert verdict_from_dict(payload) == verdict
    assert verdict_to_dict(verdict_from_dict(payload)) == payload


BOGUS_MEMBER = {"alpha": "2/3", "beta": "1/2", "member": True, "witness": {"kind": "positive_linear", "m": 1, "n": 1}}


@pytest.mark.parametrize(
    "payload",
    [
        # a non-member dressed as a member, with a witness off its family
        BOGUS_MEMBER,
        BOGUS_MEMBER | {"counterexample": None},
        # a member under an unknown kind, or with a non-bool member flag
        {"alpha": "1/3", "beta": "1/2", "member": True, "witness": {"kind": "bogus"}, "counterexample": None},
        {"alpha": "1/3", "beta": "1/2", "member": "yes", "witness": {"kind": "positive_linear", "m": 1, "n": 1}},
        {"alpha": "1/3", "beta": "1/2", "member": 1, "witness": {"kind": "positive_linear", "m": 1, "n": 1}},
        # a member with the wrong witness, none, or a counterexample
        {"alpha": "1/3", "beta": "1/2", "member": True, "witness": {"kind": "positive_linear", "m": 0, "n": 3}},
        {"alpha": "1/3", "beta": "1/2", "member": True, "witness": None, "counterexample": None},
        {
            "alpha": "1/3",
            "beta": "1/2",
            "member": True,
            "witness": {"kind": "positive_linear", "m": 1, "n": 1},
            "counterexample": "3",
        },
        # a non-member without a counterexample, or with one where the commutator is not negative
        {"alpha": "2/3", "beta": "1/2", "member": False, "witness": None, "counterexample": None},
        {"alpha": "2/3", "beta": "1/2", "member": False, "witness": None, "counterexample": "1"},
        {"alpha": "2/3", "beta": "1/2", "member": False, "witness": None, "counterexample": "x"},
        # a non-member dressed as a member without a witness
        {"alpha": "2/3", "beta": "1/2", "member": True, "witness": None, "counterexample": None},
        # a non-member's valid point under a member's flag, or beside a witness
        {"alpha": "2/3", "beta": "1/2", "member": True, "witness": None, "counterexample": "3"},
        {
            "alpha": "2/3",
            "beta": "1/2",
            "member": False,
            "witness": {"kind": "positive_linear", "m": 1, "n": 1},
            "counterexample": "3",
        },
        # not a verdict_to_dict payload at all: a missing key, a number for a rational, not a dict
        {},
        {"alpha": 1, "beta": "1/2", "member": True, "witness": {"kind": "positive_linear", "m": 1, "n": 1}},
        {"alpha": "2/3", "beta": "1/2", "member": False, "witness": None, "counterexample": 5},
        # a member's witness whose params are not ints, though they compare equal to them
        {"alpha": "1/3", "beta": "1/2", "member": True, "witness": {"kind": "positive_linear", "m": True, "n": 1.0}},
        {"alpha": "1/3", "beta": "1/2", "member": True, "witness": {"kind": "positive_linear", "m": 1.0, "n": 1}},
        [],
        None,
    ],
)
def test_verdict_from_dict_refuses_what_classify_does_not_find(payload):
    with pytest.raises(ValueError):
        verdict_from_dict(payload)


def test_verdict_from_dict_keeps_any_negative_counterexample(capsys):
    # (-2, -5/3): the oracle's argmin 11/20 is not the certificate 3/5
    assert main(["classify", "-2", "-5/3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counterexample"] == "11/20"
    verdict = verdict_from_dict(payload)
    assert verdict.counterexample == Fraction(11, 20)
    assert verdict.pair == DilationPair(-2, Fraction(-5, 3)) and not verdict.member
    assert verdict_to_dict(verdict) == {key: payload[key] for key in verdict_to_dict(verdict)}


def test_verdict_from_dict_reads_a_non_member_without_a_search(monkeypatch):
    payloads = []
    for alpha, beta in product(sweep_values(3, 3), repeat=2):
        for no_oracle in (False, True):
            text, code = cli.cmd_classify(argparse.Namespace(alpha=alpha, beta=beta, no_oracle=no_oracle, fmt="json"))
            if code == 1:
                payloads.append(json.loads(text))
    assert len(payloads) > 100

    def no_search(*parts):
        raise AssertionError(f"searched {parts}")

    # the point is checked by one commutator call: no witness search, no certificate search
    monkeypatch.setattr(_decide, "_certificate", no_search)
    monkeypatch.setattr(cli, "_witness", no_search)
    for payload in payloads:
        verdict = verdict_from_dict(payload)
        assert not verdict.member and verdict.witness is None
        assert format_rat(verdict.counterexample) == payload["counterexample"]


@pytest.mark.parametrize("bounds", [(True, True), (2.5, 2), (2, 2.0), (3, False)])
def test_sweep_values_refuses_bounds_that_are_not_ints(bounds):
    with pytest.raises(TypeError, match="_bound must be an int"):
        sweep_values(*bounds)


@pytest.mark.parametrize(
    "argv",
    [["sweep", "-P", "0", "-Q", "2"], ["preorder", "-P", "2", "-Q", "0"], ["preorder", "-P", "0"], ["preorder", "-Q", "0"]],
    ids=" ".join,
)
def test_grid_bounds_below_one_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep bounds must be >= 1\n"


def test_verify_reports_oracle(capsys):
    assert main(["verify", "2/3", "1/2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_value"] == -1
    assert payload["argmin"] == "3"
    assert payload["period"] == "6"
    assert payload["member"] is False
    assert main(["verify", "-1", "1"]) == 0


def test_sweep_csv_contract(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "-P", "2", "-Q", "2", "--quadrant=+-", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["alpha", "beta", "member", "witness_kind", "witness_params", "oracle_min", "agree"]
    body = rows[1:]
    assert len(body) == 9  # {1/2, 1, 2} x {-1/2, -1, -2}
    assert all(row[2] == "false" for row in body)  # (+, -) pairs never belong
    assert all(row[6] == "true" for row in body)
    err = capsys.readouterr().err
    assert "9 pairs, 0 members, 0 disagreements" in err


@pytest.fixture
def walk_calls(monkeypatch):
    """The integer parts of every pair the oracle's walk runs on, for the CLI or for oracle_verify."""
    calls = []
    walk = _oracle._oracle_min

    def counting_walk(a, b, c, d):
        calls.append((a, b, c, d))
        return walk(a, b, c, d)

    monkeypatch.setattr(_oracle, "_oracle_min", counting_walk)
    return calls


def test_sweep_runs_the_oracle_once_per_pair(walk_calls, capsys):
    # one walk per pair off the axes, where the oracle's report needs none
    assert main(["sweep", "-P", "3", "-Q", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    nonzero = [row for row in rows if "0" not in (row["alpha"], row["beta"])]
    assert len(walk_calls) == len(nonzero) == len(set(walk_calls)) < len(rows)
    assert all(a and c for a, _, c, _ in walk_calls)
    assert any(row["member"] for row in rows) and not all(row["member"] for row in rows)


@pytest.fixture(scope="module")
def sweep_4_4_rows():
    """The sweep row of every ordered pair of sweep_values(4, 4), built from the public API."""
    rows = []
    for alpha, beta in product(sweep_values(4, 4), repeat=2):
        pair = DilationPair(alpha, beta)
        verdict = classify(pair)
        witness = verdict.witness
        oracle_min = oracle_verify(pair).min_value
        assert oracle_min == reference_oracle_verify(pair).min_value, (alpha, beta)
        kind = "" if witness is None else witness.kind
        params = "" if witness is None else ";".join(f"{key}={value}" for key, value in vars(witness).items())
        row = (format_rat(alpha), format_rat(beta), verdict.member, kind, params, oracle_min)
        rows.append(((alpha.numerator, beta.numerator), row + (verdict.member == (oracle_min >= 0),)))
    return rows


def test_sweep_oracle_min_matches_both_oracles(sweep_4_4_rows, capsys):
    assert main(["sweep", "-P", "4", "-Q", "4", "--json"]) == 0
    got = [tuple(row.values()) for row in json.loads(capsys.readouterr().out)["rows"]]
    assert got == [row for _, row in sweep_4_4_rows]
    assert len(got) == 23 * 23
    mins = {row[5] for row in got}
    assert 0 in mins and min(mins) < 0  # 0 == False, so a lookup keyed by bools would rewrite it


@pytest.mark.parametrize("quadrant", ["all", "++", "+-", "-+", "--"])
def test_sweep_csv_equals_a_csv_writer_rendering(quadrant, sweep_4_4_rows, capsys):
    in_quadrant = {
        "all": lambda a, c: True,
        "++": lambda a, c: a > 0 and c > 0,
        "+-": lambda a, c: a > 0 and c < 0,
        "-+": lambda a, c: a < 0 and c > 0,
        "--": lambda a, c: a < 0 and c < 0,
    }[quadrant]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["alpha", "beta", "member", "witness_kind", "witness_params", "oracle_min", "agree"])
    for signs, row in sweep_4_4_rows:
        if in_quadrant(*signs):
            writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
    assert main(["sweep", "-P", "4", "-Q", "4", f"--quadrant={quadrant}"]) == 0
    assert capsys.readouterr().out == buffer.getvalue()


def test_classify_runs_the_oracle_once(walk_calls, capsys):
    for alpha, beta in [("2/3", "1/2"), ("1/3", "1/2"), ("-2", "-5/3"), ("3/7", "-2")]:
        walk_calls.clear()
        main(["classify", alpha, beta])
        assert len(walk_calls) == 1
        assert json.loads(capsys.readouterr().out)["oracle"]["agrees"] is True
        main(["classify", alpha, beta, "--no-oracle"])
        assert len(walk_calls) == 1
        assert "oracle" not in json.loads(capsys.readouterr().out)
        classify(DilationPair(Fraction(alpha), Fraction(beta)))
        assert len(walk_calls) == 1


@pytest.mark.parametrize("alpha, beta", [("2/3", "1/2"), ("-2", "-5/3"), ("3/7", "-2")])
def test_classify_takes_a_non_members_counterexample_from_the_oracle(alpha, beta, monkeypatch, capsys):
    # with the oracle on, the certificate's residue scan is not run
    def no_scan(*args):
        raise AssertionError("the certificate was searched")

    with monkeypatch.context() as patch:
        patch.setattr(_decide, "_least_k", no_scan)
        assert main(["classify", alpha, beta]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counterexample"] == payload["oracle"]["argmin"]
    # the argmin is checked like a certificate: a negative minimum claimed at 0 raises
    with monkeypatch.context() as patch:
        patch.setattr(_oracle, "_oracle_min", lambda a, b, c, d: (-1, 0, 1))
        with pytest.raises(RuntimeError):
            main(["classify", alpha, beta])
    # without it, the counterexample is still the least certificate
    assert main(["classify", alpha, beta, "--no-oracle"]) == 1
    certificate = classify(DilationPair(Fraction(alpha), Fraction(beta))).counterexample
    assert json.loads(capsys.readouterr().out)["counterexample"] == format_rat(certificate)


def test_payload_fields_are_the_record_fields():
    # the CLI names each witness kind's params and the report's keys without the records
    assert _decide.WITNESS_FIELDS == {cls.kind: tuple(f.name for f in fields(cls)) for cls in get_args(Witness)}
    report = oracle_verify(DilationPair(Fraction(2, 3), Fraction(1, 2)))
    assert list(report_to_dict(report)) == [f.name for f in fields(OracleReport)]


def classify_text_from_records(alpha: Fraction, beta: Fraction, oracle: bool, plain: bool) -> tuple[str, int]:
    """The stdout and exit code of ``classify`` rebuilt from classify, oracle_verify and the *_to_dict payloads."""
    pair = DilationPair(alpha, beta)
    verdict = classify(pair)
    payload = verdict_to_dict(verdict)
    if oracle:
        report = oracle_verify(pair)
        if not (verdict.member or report.member):
            payload = verdict_to_dict(replace(verdict, counterexample=report.argmin))
        payload["oracle"] = report_to_dict(report) | {"agrees": report.member == verdict.member}
    code = 0 if verdict.member else 1
    if not plain:
        return json.dumps(payload, indent=2) + "\n", code
    lines = [f"({payload['alpha']}, {payload['beta']}): {'member' if verdict.member else 'non-member'}"]
    if payload["witness"] is not None:
        kind, *params = payload["witness"].items()
        lines.append(" ".join([f"witness: {kind[1]}", *(f"{key}={value}" for key, value in params)]))
    if payload["counterexample"] is not None:
        lines.append(f"counterexample: x = {payload['counterexample']}")
    if oracle:
        report = payload["oracle"]
        agrees = "agrees" if report["agrees"] else "DISAGREES"
        lines.append(f"oracle: period {report['period']}, min {report['min_value']} at {report['argmin']} ({agrees})")
    return "\n".join(lines) + "\n", code


def verify_text_from_records(alpha: Fraction, beta: Fraction, plain: bool) -> tuple[str, int]:
    """The stdout and exit code of ``verify`` rebuilt from oracle_verify and report_to_dict."""
    report = oracle_verify(DilationPair(alpha, beta))
    payload = {"alpha": format_rat(alpha), "beta": format_rat(beta)} | report_to_dict(report)
    payload["member"] = report.member
    code = 0 if report.member else 1
    if not plain:
        return json.dumps(payload, indent=2) + "\n", code
    status = "member" if report.member else "non-member"
    return (
        f"({payload['alpha']}, {payload['beta']}): {status}; min {payload['min_value']} at {payload['argmin']}"
        f" over period {payload['period']} ({payload['breakpoints_checked']} breakpoints,"
        f" {payload['samples_checked']} samples)\n"
    ), code


def test_integer_commands_print_what_the_records_give(monkeypatch, capsys):
    # one parser for all 3 174 runs: building it costs more than a run
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    for alpha, beta in product(sweep_values(4, 4), repeat=2):
        pair = [format_rat(alpha), format_rat(beta)]
        for plain in (False, True):
            flags = ["--plain"] if plain else []
            for oracle in (True, False):
                code = main(["classify", *pair, *flags, *([] if oracle else ["--no-oracle"])])
                assert (capsys.readouterr().out, code) == classify_text_from_records(alpha, beta, oracle, plain), pair
            code = main(["verify", *pair, *flags])
            assert (capsys.readouterr().out, code) == verify_text_from_records(alpha, beta, plain), pair


@pytest.mark.parametrize("width", [640, 1, 333])
@pytest.mark.parametrize("name", sorted(FIXED_SPECS))
def test_plot_prints_what_the_records_give(name, width, capsys):
    spec = FIXED_SPECS[name]
    box = (spec.alpha_min, spec.alpha_max, spec.beta_min, spec.beta_max)
    counts = {"-M": spec.curve_bound, "-R": spec.sporadic_r_bound, "-D": spec.den_bound, "--samples": spec.samples}
    argv = ["plot", "--viewbox", *map(format_rat, box), *(str(arg) for item in counts.items() for arg in item)]
    assert main([*argv, "--width", str(width)]) == 0
    captured = capsys.readouterr()
    assert captured.out == render_svg(build_plot_model(spec), width)
    assert captured.err == ""


def preorder_text_from_records(num_bound: int, den_bound: int, csv_format: bool) -> tuple[str, str, int]:
    """The stdout, stderr and exit code of ``preorder`` rebuilt from the methods of ``Preorder.on``."""
    relation = Preorder.on(value for value in sweep_values(num_bound, den_bound) if value != 0)
    labels = [format_rat(value) for value in relation.values]
    violation = relation.violation()
    if csv_format:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["alpha\\beta", *labels])
        for label, row in zip(labels, relation.matrix()):
            writer.writerow([label, *("true" if flag else "false" for flag in row)])
        text = out.getvalue()
    else:
        payload = {
            "values": labels,
            "precedes": relation.matrix(),
            "transitivity_counterexample": None if violation is None else [format_rat(v) for v in violation],
            "equivalence_classes": [[format_rat(v) for v in cls] for cls in relation.classes()],
        }
        text = json.dumps(payload, indent=2) + "\n"
    status = "holds" if violation is None else f"violated: ({', '.join(map(format_rat, violation))})"
    return text, f"preorder: {len(labels)} values, transitivity {status}\n", 0 if violation is None else 1


@pytest.mark.parametrize("csv_format", [False, True], ids=["json", "csv"])
@pytest.mark.parametrize("num_bound, den_bound", [(2, 2), (4, 4), (5, 4)])
def test_preorder_prints_what_the_records_give(num_bound, den_bound, csv_format, capsys):
    # every grid here has a class of several values (1/2 ~ 1 among them), so the classes' order is checked
    relation = Preorder.on(value for value in sweep_values(num_bound, den_bound) if value != 0)
    assert any(len(cls) > 1 for cls in relation.classes())
    code = main(["preorder", "-P", str(num_bound), "-Q", str(den_bound), *(["--csv"] if csv_format else [])])
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == preorder_text_from_records(num_bound, den_bound, csv_format)


def test_sweep_negative_positive_quadrant_all_members(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "-P", "2", "-Q", "2", "--quadrant=-+", "--out", str(out)]) == 0
    body = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(body) == 9
    assert all(row[2] == "true" for row in body)
    assert all(row[3] == "mixed_neg_pos" for row in body)


def test_sweep_negative_quadrant(tmp_path):
    # argparse hands the lone "--" of this spelling over as an empty list
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "-P", "2", "-Q", "2", "--quadrant=--", "--out", str(out)]) == 0
    body = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(body) == 9
    assert all(Fraction(row[0]) < 0 and Fraction(row[1]) < 0 for row in body)


def test_sweep_rows_sorted_and_json_mode(capsys):
    assert main(["sweep", "-P", "2", "-Q", "1", "--quadrant=++", "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    pairs = [(Fraction(r["alpha"]), Fraction(r["beta"])) for r in payload["rows"]]
    assert pairs == sorted(pairs)
    assert payload["summary"] == {"pairs": 4, "members": 3, "disagreements": 0}


def test_beatty_command(capsys):
    assert main(["beatty", "5/2", "5/3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["criterion"] == {"m": 1, "n": 1}
    assert payload["reduced_disjoint"] is True and payload["agree"] is True
    assert main(["beatty", "5/2", "7/3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced_disjoint"] is False and payload["criterion"] is None
    assert 2 in payload["window"]["u"]["reduced"]


def test_beatty_reversed_window_is_usage_error(monkeypatch, capsys):
    def no_decision(u, v):
        raise AssertionError("the window is checked first")

    # cmd_beatty imports them from floorcomm.beatty when it runs
    monkeypatch.setattr(beatty, "reduced_disjoint", no_decision)
    monkeypatch.setattr(beatty, "disjointness_witness", no_decision)
    assert main(["beatty", "5/2", "5/3", "--window", "5", "-5", "--plain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty window: LO = 5 > HI = -5\n"


def test_frobenius_command(capsys):
    assert main(["frobenius", "3", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frobenius_number"] == 7
    assert payload["nonrealizing_set"] == [1, 2, 4, 7]
    assert payload["sylvester_duality"] is True


def test_frobenius_rejects_bad_generators(capsys):
    assert main(["frobenius", "4", "6"]) == 2
    assert main(["frobenius", "1", "5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_preorder_command(capsys):
    assert main(["preorder", "-P", "2", "-Q", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transitivity_counterexample"] is None
    size = len(payload["values"])
    assert len(payload["precedes"]) == size
    assert all(len(row) == size for row in payload["precedes"])
    assert ["1/2", "1", "2"] not in payload["equivalence_classes"]  # 2 not equiv to 1
    assert any("1/2" in cls and "1" in cls for cls in payload["equivalence_classes"])


def test_preorder_violation_is_printed_as_rationals(monkeypatch, capsys):
    # indices into the grid -2, -1, -1/2, 1/2, 1, 2
    monkeypatch.setattr(_preorder, "_violation", lambda rows: (3, 4, 5))
    assert main(["preorder", "-P", "2", "-Q", "2"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["transitivity_counterexample"] == ["1/2", "1", "2"]
    assert captured.err == "preorder: 6 values, transitivity violated: (1/2, 1, 2)\n"


def test_preorder_csv(tmp_path, capsys):
    out = tmp_path / "matrix.csv"
    assert main(["preorder", "-P", "2", "-Q", "1", "--csv", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "alpha\\beta"
    assert len(rows) == len(rows[0])  # square matrix plus header row/column


@pytest.mark.parametrize(
    "argv, stem, suffix",
    [
        (["preorder", "-P", "3", "-Q", "3"], "preorder_P3_Q3", "json"),
        (["preorder", "-P", "3", "-Q", "3", "--csv"], "preorder_P3_Q3", "csv"),
        (["sweep", "-P", "3", "-Q", "3"], "sweep_P3_Q3", "csv"),
        (["sweep", "-P", "3", "-Q", "3", "--json"], "sweep_P3_Q3", "json"),
        # OUT stands for a file in tmp_path; "--out -" is stdout
        (["preorder", "-P", "3", "-Q", "3", "--out", "OUT"], "preorder_P3_Q3", "json"),
        (["preorder", "-P", "3", "-Q", "3", "--csv", "--out", "OUT"], "preorder_P3_Q3", "csv"),
        (["sweep", "-P", "3", "-Q", "3", "--out", "OUT"], "sweep_P3_Q3", "csv"),
        (["sweep", "-P", "3", "-Q", "3", "--json", "--out", "OUT"], "sweep_P3_Q3", "json"),
        (["sweep", "-P", "3", "-Q", "3", "--out", "-"], "sweep_P3_Q3", "csv"),
    ],
)
def test_grid_commands_match_golden_bytes(argv, stem, suffix, capsys, tmp_path):
    out = tmp_path / f"{stem}.{suffix}"
    to_file = "OUT" in argv
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 0
    captured = capsys.readouterr()
    golden = (DATA / f"{stem}.{suffix}").read_bytes()
    if to_file:
        assert out.read_bytes() == golden
        assert captured.out == ""
    else:
        assert captured.out.encode() == golden
    assert captured.err.encode() == (DATA / f"{stem}.stderr").read_bytes()


def _single_pair_argv():
    pairs = [
        ("0", "0"),
        ("1/3", "1/2"),
        ("-1", "1"),
        ("-3/2", "-3/4"),
        ("-1", "-2/3"),  # neg_vertical
        ("-2", "-4/3"),  # neg_sporadic
        ("2/3", "1/2"),
        ("-2", "-5/3"),  # argmin 11/20, certificate 3/5
        ("3/7", "-2"),
    ]
    for alpha, beta in pairs:
        for flags in ([], ["--plain"], ["--no-oracle"], ["--plain", "--no-oracle"]):
            yield ["classify", alpha, beta, *flags]
    for alpha, beta in [("2/3", "1/2"), ("-1", "1")]:
        yield ["verify", alpha, beta]
        yield ["verify", alpha, beta, "--plain"]
    yield ["beatty", "5/2", "5/3"]
    yield ["beatty", "5/2", "7/3", "--plain"]
    yield ["beatty", "1", "2", "--window", "0", "5", "--plain"]
    yield ["frobenius", "3", "5"]
    yield ["frobenius", "3", "5", "--plain"]
    yield ["frobenius", "4", "6"]  # not coprime: exit 2
    yield ["beatty", "-1", "2"]  # not positive: exit 2


SINGLE_PAIR_ARGV = list(_single_pair_argv())


@pytest.fixture(scope="module")
def single_pair_golden():
    return json.loads((DATA / "single_pair_commands.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", SINGLE_PAIR_ARGV, ids=" ".join)
def test_single_pair_commands_match_golden_bytes(argv, single_pair_golden, capsys):
    # each entry holds the exit code, stdout and stderr of one invocation
    golden = single_pair_golden[" ".join(argv)]
    assert main(argv) == golden["exit"]
    captured = capsys.readouterr()
    assert captured.out == golden["stdout"]
    assert captured.err == golden["stderr"]


def test_preorder_decides_each_ordered_pair_once(monkeypatch, capsys):
    calls = []

    def counting_witness(*parts):
        calls.append(parts)
        return _decide._witness(*parts)

    monkeypatch.setattr(_preorder, "_witness", counting_witness)
    assert main(["preorder", "-P", "3", "-Q", "3"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert len(calls) == len(values) ** 2 == 196
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("shared_stderr", [False, True], ids=["stderr-apart", "stderr-shared"])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "-P", "2", "-Q", "2"], ["preorder", "-P", "2", "-Q", "2"], ["preorder", "-P", "2", "-Q", "2", "--csv"]],
    ids=["sweep", "preorder", "preorder-csv"],
)
def test_closed_stdout_is_an_output_error(argv, shared_stderr):
    # the read end is closed before the child writes, so its output fails; the child's
    # stdout is block-buffered, so the text fails in the flush and the summary is never printed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_python(
            "-m", "floorcomm", *argv, stdout=write_end, stderr=write_end if shared_stderr else subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    if not shared_stderr:
        assert re.fullmatch(rb"error: [^\n]*\n", result.stderr), result.stderr


def test_plot_matches_golden_file(tmp_path):
    out = tmp_path / "plot.svg"
    assert main(["plot", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_plot_draws_each_sporadic_point_once(capsys):
    assert main(["plot", "-D", "12", "-R", "4"]) == 0
    circles = [line for line in capsys.readouterr().out.splitlines() if line.startswith("<circle")]
    points = {re.search(r'data-alpha="([^"]+)" data-beta="([^"]+)"', line).groups() for line in circles}
    assert len(circles) == len(points) == 3164


def test_plot_deterministic(tmp_path):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["plot", "-M", "3", "-R", "3", "-D", "3", "--viewbox", "-3", "3", "-3", "3"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_plot_empty_viewbox_is_usage_error(capsys):
    assert main(["plot", "--viewbox", "1", "1", "0", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["-5", "0"])
def test_plot_width_below_one_is_usage_error(width, capsys):
    assert main(["plot", "--width", width]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: width must be >= 1, got {width}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plot", "--samples", "1"], "need at least 2 samples per curve"),
        (["plot", "-M", "-1"], "family bounds out of range"),
        (["plot", "-R", "0"], "family bounds out of range"),
        (["plot", "-D", "0"], "family bounds out of range"),
        (["plot", "--viewbox", "1", "1", "0", "2"], "empty view box"),
        (["plot", "--viewbox", "2", "1", "0", "2"], "empty view box"),
        (["plot", "--viewbox", "0", "2", "1", "1"], "empty view box"),
        (["plot", "--viewbox", "0", "2", "2", "1"], "empty view box"),
        # the spec is checked in a fixed order, and before the width
        (["plot", "--samples", "1", "-M", "-1"], "family bounds out of range"),
        (["plot", "--viewbox", "1", "1", "0", "2", "-R", "0"], "empty view box"),
        (["plot", "--width", "0", "-R", "0"], "family bounds out of range"),
        (["plot", "--width", "0", "--viewbox", "1", "1", "0", "2"], "empty view box"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_plot_spec_errors_keep_their_messages(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_plot_unwritable_output(capsys):
    assert main(["plot", "--out", "/nonexistent-dir/x.svg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_ends_at_the_floor_on_a_billion_gap_period():
    # the oracle's period holds about 10^9 gaps; it stops at the first value -1
    result = run_python("-m", "floorcomm", "classify", "999/1000003", "1001/1000007", capture_output=True, text=True)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["counterexample"] == payload["oracle"]["argmin"] == "1000003000/999"


def test_module_entry_point_smoke():
    result = run_python("-m", "floorcomm", "classify", "1/3", "1/2", "--no-oracle", capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["member"] is True
