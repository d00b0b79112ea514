"""One workload in one process: set up, measure whole rounds, check, report.

Started by run.py, never by hand.  Prints one JSON object on its last
stdout line.  A round is one pass over every operation of the workload;
rounds repeat until the time budget is spent, so every run attempts whole
rounds and a failing operation is the same share of the attempts each time.
The first round warms up and checks each output with the independent
checkers as it arrives, keeping only a fingerprint of it; each output of a
later round must have the same fingerprint as the first round's.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import calibration

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

IMPORT_SAMPLES = 5
NS_PER_CALL_MIN_CALLS = 100_000
CALIBRATE_EVERY_NS = 100_000_000


@dataclass(frozen=True)
class Raised:
    """An operation's exception, comparable across rounds.

    ``where`` lists the floorcomm functions on the traceback as
    ``<module>.<function>``, outermost first, for instance
    ``("classify.classify", "classify.positive_witness", "exact.rat_floor")``.
    """

    kind: str
    message: str
    where: tuple[str, ...]

    @classmethod
    def of(cls, exc: BaseException) -> Raised:
        where = tuple(
            f"{Path(frame.filename).stem}.{frame.name}"
            for frame in traceback.extract_tb(exc.__traceback__)
            if Path(frame.filename).parent.name == "floorcomm"
        )
        return cls(type(exc).__name__, str(exc), where)


def fingerprint(output: Any) -> int:
    """Hash of an output's repr: equal outputs give equal fingerprints.

    The repr, not the object's own hash, because ``hash(-1) == hash(-2)``
    would let a minimum of -2 pass for -1.
    """
    return hash(repr(output))


class Runner:
    """Runs rounds of a workload and accounts for every operation."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.reference = array.array("q")  # fingerprint of each first-round output, 8 bytes each
        self.status: dict[int, str] = {}  # first-round failures by op index: "fault: ..." or "wrong: ..."
        self.attempted = 0
        self.failed = 0
        self.wrong: dict[str, str] = {}

    def _judge(self, op: tuple, output: Any) -> str | None:
        if isinstance(output, Raised):
            reason = f"{output.kind} in {' > '.join(output.where) or 'the benchmark'}: {output.message}"
            return ("fault: " if self.workload.known_fault(op, output) else "wrong: raised ") + reason
        reason = self.workload.check(op, output)
        return None if reason is None else "wrong: " + reason

    def round(self, calibrate: bool) -> tuple[float, ...]:
        """One pass over every operation: (wall s, scaled s, scaled p50 ms, scaled p99 ms).

        The first round of a process judges every output; later rounds
        compare fingerprints.  With ``calibrate`` the calibration kernel also
        runs at the start, then between operations whenever
        CALIBRATE_EVERY_NS have passed, and at the end.  Each operation's
        latency is scaled by the mean kernel time of the two samples around
        it (see calibration.py); kernel time is left out of the round.
        Without, the scaled figures equal the raw ones.
        """
        workload = self.workload
        ops, call = workload.ops, workload.call
        first = not self.reference
        latencies: list[int] = []
        kernel: list[float] = [calibration.kernel_seconds()] if calibrate else []
        cuts: list[int] = []  # op index after which each later kernel sample was taken
        clock = time.perf_counter_ns
        started = mark = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                output = call(op)
                t1 = clock()
            except Exception as exc:  # every failure is counted and attributed below
                t1 = clock()
                output = Raised.of(exc)
            latencies.append(t1 - t0)
            if first:
                self.reference.append(fingerprint(output))
                status = self._judge(op, output)
                if status is not None:
                    self.status[i] = status
            elif fingerprint(output) != self.reference[i]:
                status = "wrong: output differs from the first round"
            else:
                status = self.status.get(i)
            if status is not None:
                self.failed += 1
                if status.startswith("wrong") and len(self.wrong) < 20:
                    self.wrong.setdefault(workload.label(op), status[len("wrong: ") :])
            if calibrate and (t1 - mark > CALIBRATE_EVERY_NS or i == len(ops) - 1):
                kernel.append(calibration.kernel_seconds())
                cuts.append(i + 1)
                mark = clock()
        self.attempted += len(ops)
        wall = (clock() - started) / 1e9 - sum(kernel[1:])
        scaled = latencies
        if calibrate:
            scaled, first_op = [], 0
            for j, cut in enumerate(cuts):
                factor = calibration.REFERENCE_S / ((kernel[j] + kernel[j + 1]) / 2)
                scaled += [lat * factor for lat in latencies[first_op:cut]]
                first_op = cut
        total = sum(scaled) / 1e9
        scaled.sort()
        return wall, total, percentile(scaled, 0.50) / 1e6, percentile(scaled, 0.99) / 1e6

    def measure(self, budget_s: float, calibrate: bool) -> list[tuple[float, ...]]:
        """Whole rounds until the next one would overrun the budget; at least one.

        Returns (seconds, p50 ms, p99 ms) per round, scaled to the reference
        host speed when ``calibrate`` (see calibration.py).  The first round
        of a process warms up and is checked, not timed.  The harness's own
        objects (operations, fingerprints) are then frozen out of the cyclic
        collector, so collections scan only what floorcomm allocates.
        """
        rounds: list[tuple[float, ...]] = []
        raw: list[float] = []
        started = time.perf_counter()
        if not self.reference:
            self.round(calibrate=False)
            gc.collect()
            gc.freeze()
        while True:
            wall, *scaled = self.round(calibrate)
            rounds.append(tuple(scaled))
            raw.append(wall)
            if time.perf_counter() - started + statistics.median(raw) > budget_s:
                return rounds

    def faults(self) -> list[dict[str, Any]]:
        """Known-fault failures per round, grouped by reason, with example inputs."""
        groups: dict[str, list[str]] = {}
        for i, status in sorted(self.status.items()):
            if status.startswith("fault"):
                groups.setdefault(status[len("fault: ") :], []).append(self.workload.label(self.workload.ops[i]))
        return [{"reason": r, "per_round": len(labels), "examples": labels[:3]} for r, labels in groups.items()]

    def summary(self) -> dict[str, Any]:
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "faults": self.faults(),
            "wrong": self.wrong,
        }


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(runner: Runner, rounds: list[tuple[float, ...]]) -> dict[str, float]:
    times, p50s, p99s = zip(*rounds)
    who = resource.RUSAGE_CHILDREN if runner.workload.rss_of_children else resource.RUSAGE_SELF
    return {
        "run_s": statistics.median(times),
        "ops_per_s": len(runner.workload.ops) / statistics.median(times),
        "op_p50_ms": statistics.median(p50s),
        "op_p99_ms": statistics.median(p99s),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def ns_per_call(fn: Any, args: list[Any]) -> float:
    """Median ns per call of fn over args, each timing at least NS_PER_CALL_MIN_CALLS calls."""
    reps = max(1, NS_PER_CALL_MIN_CALLS // len(args))
    samples = []
    for _ in range(5):
        start = time.perf_counter_ns()
        for _ in range(reps):
            for arg in args:
                fn(arg)
        samples.append((time.perf_counter_ns() - start) / (reps * len(args)))
    return statistics.median(samples)


def import_seconds() -> float:
    """Median time to import floorcomm.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import floorcomm.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def per_layer(runner: Runner, budget_s: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    import floorcomm as fc

    from checks import fmt
    from tracing import Tracer

    untraced = [r[0] for r in runner.measure(budget_s / 2, calibrate=False)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [r[0] for r in runner.measure(budget_s / 2, calibrate=False)]
    finally:
        tracer.uninstall()
    rounds = len(traced)

    def per_round(total: int) -> float:
        return total // rounds if total % rounds == 0 else total / rounds

    spans = {
        name: [per_round(calls), busy / 1e9 / rounds, own / 1e9 / rounds]
        for name, (calls, busy, own, _hits) in sorted(tracer.stats.items())
    }
    metrics: dict[str, float] = {}
    for name, (calls, busy, own) in spans.items():
        metrics |= {f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.self_s": own}

    def hit_ratio(name: str) -> float:
        calls, _, _, hits = tracer.stats[name]
        return hits / calls if calls else 0.0

    oracle_busy_ns = tracer.stats["floorfn.oracle_verify"][1]
    peak_alloc = 0.0
    if tracer.largest_oracle[1] is not None:
        tracemalloc.start()
        fc.oracle_verify(tracer.largest_oracle[1])
        peak_alloc = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    values = runner.workload.values
    metrics |= {
        "exact.fraction_new.calls": per_round(tracer.fraction_new[0]),
        "exact.rat_floor.ns_per_call": ns_per_call(fc.rat_floor, values),
        "exact.parse_rat.ns_per_call": ns_per_call(fc.parse_rat, [fmt(v) for v in values]),
        "exact.format_rat.ns_per_call": ns_per_call(fc.format_rat, values),
        "classify.positive_witness.hit_ratio": hit_ratio("classify.positive_witness"),
        "classify.negative_witness.hit_ratio": hit_ratio("classify.negative_witness"),
        "classify.oracle_fallbacks": per_round(tracer.oracle_fallbacks),
        "floorfn.oracle_verify.breakpoints": per_round(tracer.breakpoints),
        "floorfn.oracle_verify.ns_per_breakpoint": oracle_busy_ns / tracer.breakpoints if tracer.breakpoints else 0.0,
        "floorfn.oracle_verify.peak_alloc_mb": peak_alloc,
        "plot.render_svg.bytes": per_round(tracer.svg_bytes),
        "cli.import_s": import_seconds(),
        "cli.sweep.oracle_calls_per_pair": tracer.sweep_oracle_calls / tracer.sweep_pairs if tracer.sweep_pairs else 0.0,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    return metrics, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched-at", type=int, required=True, help="CLOCK_MONOTONIC ns at launch")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import floorcomm
    except ImportError as exc:
        print(f"error: cannot import floorcomm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(floorcomm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: floorcomm was imported from {floorcomm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, in_process=bool(args.trace))
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.launched_at) / 1e9
    try:
        if args.setup_only:
            result: dict[str, Any] = {"setup_s": setup_s}
        else:
            runner = Runner(workload)
            if args.trace:
                metrics, spans = per_layer(runner, args.seconds)
                result = runner.summary() | {"metrics": metrics, "spans": spans}
            else:
                metrics = end_to_end(runner, runner.measure(args.seconds, calibrate=True))
                result = runner.summary() | {"metrics": metrics}
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
