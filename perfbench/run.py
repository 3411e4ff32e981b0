"""Benchmark harness for xorcast: one workload, one seed, one run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

A run repeats the workload's command list back to back (a closed loop, one
client) for about --seconds: it starts no pass that would likely end after
them, but always runs at least one.
With --trace 0 it reports the end-to-end metrics: wall_s (median pass time),
setup_s (median time for a fresh interpreter to finish `import xorcast`) and
peak_rss_mb. With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the median traced pass. Every command's
output goes through its gate; a command fails on an exception, a nonzero
exit code, a failed gate, or output that differs from the first pass.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A run record with machine details, per-command times and
figure CSV hashes is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
# fresh-interpreter imports timed before each untraced pass, so that setup_s
# samples the whole run as wall_s does
SETUP_PER_PASS = 3

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import xorcast  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class CommandRun:
    label: str
    seconds: float
    output: str | None
    problems: list[str] = field(default_factory=list)


def run_pass(commands: list[workloads.Command], tracer: spans.Tracer | None = None
             ) -> list[CommandRun]:
    """Run every command once, back to back, each with empty chain caches."""
    runs = []
    for command in commands:
        workloads.clear_caches()
        output, problems = None, []
        start = time.perf_counter()
        try:
            output = tracer.call("cli", command.run) if tracer else command.run()
        except Exception:  # a failing command is counted, never fatal
            problems.append(traceback.format_exc().strip())
        seconds = time.perf_counter() - start
        if output is not None:
            try:
                problems += command.gate(output)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        runs.append(CommandRun(command.label, seconds, output, problems))
    return runs


def check_repeat(first: list[CommandRun], again: list[CommandRun]) -> None:
    """Flag commands whose output differs from the first untraced pass."""
    for a, b in zip(first, again):
        if a.output is not None and b.output != a.output:
            b.problems.append("output differs from the first untraced pass")


def pass_seconds(runs: list[CommandRun]) -> float:
    return sum(r.seconds for r in runs)


def setup_seconds() -> list[float]:
    """Time from spawning a fresh interpreter until its `import xorcast` is done.

    The child reads the system-wide monotonic clock right after the import, so
    interpreter teardown (OpenBLAS joins its threads at exit) is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PER_PASS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", "import xorcast, time; print(repr(time.monotonic()))"],
            env=env, cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
        samples.append(float(done.stdout) - start)
    return samples


def _openblas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (e.g. an exported tree)
    return lines[1]


def machine(threads_was_set: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.get("version"),
        "openblas_threads": _openblas_threads(),
        "xorcast_threads_was_set": threads_was_set,
        "platform": platform.platform(),
    }


def figure_hashes(runs: list[CommandRun]) -> dict[str, str]:
    return {r.label: hashlib.sha256(r.output.encode("utf-8")).hexdigest()
            for r in runs if r.output is not None and r.label.startswith("xorcast figure ")}


def _median_index(values: list[float]) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: (metric values, run record)."""
    commands = workloads.build(workload, seed)
    record: dict = {"commands": [c.label for c in commands]}
    untraced, traced, tracers, rounds, setup = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    # stop before a round that would likely end after the deadline
    while not rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
        round_start = time.perf_counter()
        if not trace:
            setup += setup_seconds()
        untraced.append(run_pass(commands))
        if trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced.append(run_pass(commands, tracer))
            tracers.append(tracer)
        rounds.append(time.perf_counter() - round_start)
    for runs in untraced[1:] + traced:
        check_repeat(untraced[0], runs)
    walls = [pass_seconds(runs) for runs in untraced]
    if trace:
        pick = _median_index([t.total_s["cli"] for t in tracers])
        metrics = spans.layer_metrics(tracers[pick], statistics.median(walls))
        record["traced_pass"] = spans.record(tracers[pick])
        record["traced_pass_seconds"] = [pass_seconds(runs) for runs in traced]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_seconds"] = setup
    all_runs = [r for runs in untraced + traced for r in runs]
    record.update({
        "pass_seconds": walls,
        "command_seconds": [[round(r.seconds, 6) for r in runs] for runs in untraced],
        "figure_sha256": figure_hashes(untraced[0]),
        "failures": [{"command": r.label, "problems": r.problems}
                     for r in all_runs if r.problems],
        "attempted": len(all_runs),
        "failed": sum(1 for r in all_runs if r.problems),
        "passes": len(untraced),
    })
    return metrics, record


def run_one(args) -> int:
    if not Path(xorcast.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: xorcast imported from {xorcast.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    metrics, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_commit": _git_commit(),
              "machine": machine(args.threads_was_set), "metrics": metrics, **record}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in record["failures"]:
        print(f"FAILED {failure['command']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    attempted, failed = record["attempted"], record["failed"]
    print(f"{args.workload} seed={args.seed}: {record['passes']} untraced passes of "
          f"{len(record['commands'])} commands; error_rate {failed / attempted:g} "
          f"({failed} failed of {attempted} attempted); record {path.relative_to(ROOT)}")
    samples = {"wall_s": f"median of {record['passes']} passes",
               "setup_s": f"median of {SETUP_PER_PASS * record['passes']} fresh interpreters",
               "peak_rss_mb": "1 process"}
    if args.trace:
        layers = record["traced_pass"]["layer_self_s"]
        print(f"  layer self times sum to {sum(layers.values()):.6f} s of trace.wall_s "
              f"{metrics['trace.wall_s']:.6f} s: "
              + ", ".join(f"{name} {value:.3f}" for name, value in layers.items()))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit_of(name):5s} {samples.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=1800)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # the program's default thread count applies, whatever the caller's shell sets
    args.threads_was_set = os.environ.pop("XORCAST_THREADS", None) is not None
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
