"""Command-line contract: exit codes, JSON round-trips, deterministic output."""

import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import floorcomm
from floorcomm.classify import classify, is_member
from floorcomm.cli import main, verdict_from_dict, verdict_to_dict
from floorcomm.floorfn import DilationPair, oracle_verify

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "plot_M2_D2_R2.svg"
# `python -m floorcomm` run from here imports the package under test, with or
# without PYTHONPATH set
IMPORT_ROOT = Path(floorcomm.__file__).parents[1]


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


def test_verdict_json_round_trip(capsys):
    pairs = [
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
        # with the oracle on, the counterexample is the oracle's argmin
        main(["classify", alpha, beta])
        default = json.loads(capsys.readouterr().out)
        if default["member"]:
            assert default["counterexample"] is None
        else:
            assert default["counterexample"] == default["oracle"]["argmin"]
    # the certificate and the argmin differ here
    assert payload["counterexample"] == "3/5" and default["counterexample"] == "11/20"


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


@pytest.mark.parametrize("argv", [["sweep", "-P", "0", "-Q", "2"], ["preorder", "-P", "2", "-Q", "0"]], ids=" ".join)
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
def oracle_calls(monkeypatch):
    """Every pair the oracle is run on, through floorcomm.floorfn or by the CLI."""
    calls = []

    def counting_oracle(pair):
        calls.append(pair)
        return oracle_verify(pair)

    for module in ("floorcomm.floorfn", "floorcomm.cli"):
        monkeypatch.setattr(sys.modules[module], "oracle_verify", counting_oracle)
    return calls


def test_sweep_runs_the_oracle_once_per_pair(oracle_calls, capsys):
    assert main(["sweep", "-P", "3", "-Q", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(oracle_calls) == len(rows) == len(set(oracle_calls))
    assert any(row["member"] for row in rows) and not all(row["member"] for row in rows)


def test_classify_runs_the_oracle_once(oracle_calls, capsys):
    for alpha, beta in [("2/3", "1/2"), ("1/3", "1/2"), ("-2", "-5/3"), ("3/7", "-2")]:
        oracle_calls.clear()
        main(["classify", alpha, beta])
        assert len(oracle_calls) == 1
        assert json.loads(capsys.readouterr().out)["oracle"]["agrees"] is True
        main(["classify", alpha, beta, "--no-oracle"])
        assert len(oracle_calls) == 1
        assert "oracle" not in json.loads(capsys.readouterr().out)
        classify(DilationPair(Fraction(alpha), Fraction(beta)))
        assert len(oracle_calls) == 1


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
    cli = sys.modules["floorcomm.cli"]

    def no_decision(u, v):
        raise AssertionError("the window is checked first")

    monkeypatch.setattr(cli, "reduced_disjoint", no_decision)
    monkeypatch.setattr(cli, "disjointness_witness", no_decision)
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
    preorder = sys.modules["floorcomm.preorder"]
    calls = []

    def counting_is_member(pair):
        calls.append(pair)
        return is_member(pair)

    monkeypatch.setattr(preorder, "is_member", counting_is_member)
    assert main(["preorder", "-P", "3", "-Q", "3"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert len(calls) == len(values) ** 2 == 196
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("shared_stderr", [False, True], ids=["stderr-apart", "stderr-shared"])
def test_closed_stdout_is_an_output_error(shared_stderr):
    # the read end is closed before the child writes, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "floorcomm", "sweep", "-P", "2", "-Q", "2"],
            stdout=write_end,
            stderr=write_end if shared_stderr else subprocess.PIPE,
            cwd=IMPORT_ROOT,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    if not shared_stderr:
        assert result.stderr.startswith(b"error: ")
        assert b"Traceback" not in result.stderr and b"Exception ignored" not in result.stderr


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


def test_plot_unwritable_output(capsys):
    assert main(["plot", "--out", "/nonexistent-dir/x.svg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "floorcomm", "classify", "1/3", "1/2", "--no-oracle"],
        capture_output=True,
        text=True,
        cwd=IMPORT_ROOT,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["member"] is True
