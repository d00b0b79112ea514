"""floorcomm benchmark: run one workload (or all) and print every metric.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1 | tail -1 > results.json

Each workload runs in its own child process (bench/worker.py), one at a
time.  Untraced runs (--trace 0) report the end-to-end metrics; setup_s is
the median over several launches of the workload process, each timed from
launch until floorcomm is imported and the inputs are generated.  Traced
runs (--trace 1) report the per-layer metrics.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

The workloads, metric names and units, and the default measuring time come
from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_LAUNCHES = 15
# A run must end within 180 s; the child gets what is left of this.
DEADLINE_S = 170
# Longest --seconds: leaves DEADLINE_S room for the set-up launches, the
# round that is running when the budget ends, and the traced run's extras.
MAX_SECONDS = 120


def seconds(text: str) -> float:
    value = float(text)
    if not 0 < value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must be in (0, {MAX_SECONDS}]")
    return value


def launch(name: str, args: argparse.Namespace, setup_only: bool, deadline: float) -> dict[str, Any]:
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        f"--workload={name}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    if setup_only:
        command.append("--setup-only")
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # its own process group, so that a timeout also ends the floorcomm CLI processes it started
    with subprocess.Popen(
        command + [f"--launched-at={launched}"], stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"{name} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def calibrated_setup_s(name: str, args: argparse.Namespace, deadline: float) -> float:
    """Set-up time of one launch, scaled by the calibration kernel timed around it."""
    before = calibration.kernel_seconds()
    setup_s = launch(name, args, setup_only=True, deadline=deadline)["setup_s"]
    after = calibration.kernel_seconds()
    return setup_s * calibration.REFERENCE_S / ((before + after) / 2)


def run_workload(name: str, args: argparse.Namespace, deadline: float, listed: list[str]) -> dict[str, Any]:
    """Run one workload; its metrics are those ``listed``, in that order.

    Untraced, the workload must measure exactly the listed end-to-end
    metrics; traced, it measures more, and only the listed ones are kept.
    """
    result = launch(name, args, setup_only=False, deadline=deadline)
    if not args.trace:
        setups = [calibrated_setup_s(name, args, deadline) for _ in range(SETUP_LAUNCHES)]
        result["metrics"]["setup_s"] = statistics.median(setups)
        if set(result["metrics"]) != set(listed):
            raise ValueError(f"{name} measures {sorted(result['metrics'])}, BENCHMARK.json lists {sorted(listed)}")
    result["metrics"] = {metric: result["metrics"][metric] for metric in listed}
    return result


def report(name: str, result: dict[str, Any], args: argparse.Namespace, units: dict[str, str]) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {name}  (seed {args.seed}, {args.seconds:g} s, {mode}) ==")
    if args.trace:
        print(f"  {'span':<36} {'calls/round':>12} {'busy_s':>10} {'self_s':>10}")
        for span, (calls, busy, own) in result["spans"].items():
            if calls:
                print(f"  {span:<36} {calls:>12} {busy:>10.4f} {own:>10.4f}")
    for metric, value in result["metrics"].items():
        function, _, what = metric.rpartition(".")
        if not (function in result.get("spans", ()) and what in ("calls", "busy_s", "self_s")):
            print(f"  {metric:<40} {value:>14.6g} {units[metric]}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {str(result['correct']).lower()}")
    for fault in result["faults"]:
        print(f"  known fault, {fault['per_round']} per round: {fault['reason']}; e.g. {', '.join(fault['examples'])}")
    for label, reason in result["wrong"].items():
        print(f"  WRONG {label}: {reason}")


def main(argv: list[str] | None = None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="varies the inputs; same seed, same inputs")
    parser.add_argument(
        "--seconds", type=seconds, default=spec["run_seconds"], help="measuring time per workload (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics instead")
    args = parser.parse_args(argv)

    # One CPU for the benchmark and every process it starts: the calibration
    # kernel then times the same CPU that runs floorcomm, also for the CLI
    # processes of the cli workload and the set-up launches.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "floorcomm" / "__init__.py").is_file():
        print(f"error: no floorcomm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    chosen = names if args.workload == "all" else [args.workload]
    started = time.monotonic()
    results = {}
    for name in chosen:
        deadline = time.monotonic() + DEADLINE_S if args.workload == "all" else started + DEADLINE_S
        try:
            results[name] = run_workload(name, args, deadline, listed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc!r}", file=sys.stderr)
            return 1
        report(name, results[name], args, units)
    print(f"BENCHMARK.json lists these workloads: {', '.join(names)}; each reports the metrics listed there")

    if len(chosen) == 1:
        result = results[chosen[0]]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    else:
        metrics = {
            f"{name}.{k}": {"value": v, "unit": units[k]}
            for name, result in results.items()
            for k, v in result["metrics"].items()
        }
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
