"""Seeded end-to-end benchmark of the ``votescale`` CLI.

    python3 bench/run.py --workload log-exact --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 7
    python3 bench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``. One run generates the workload's inputs from the seed (untimed),
computes the expected reports independently (see ``reference.py``), then
invokes the CLI in a fresh process, one invocation at a time, until
``--seconds`` have passed. Every invocation's report files are checked.

With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of ``tracer.py``, measured on traced invocations that
alternate with untraced ones. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it show every metric by name with its unit, and the full
details (input shape, samples, environment) go to
``.bench_work/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from reference import check_report, expected_report
from tracer import METRICS as LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, Shape, Workload, generate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: Untraced (traced) invocations per run at least, unless that would run
#: the loop past LOOP_LIMIT_S.
MIN_SAMPLES = 3
MIN_TRACED = 2
LOOP_LIMIT_S = 120.0
INVOKE_TIMEOUT_S = 120
#: BLAS thread pools are pinned to one thread in every child. With
#: OpenBLAS's default of one thread per core, the exact path's small
#: matrix-vector products keep a second thread spinning. log-exact then took
#: 7 s instead of 2.3 s whenever another process held a core, so timings
#: would measure the neighbours rather than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import votescale.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t, cli.__file__)"
)


class Invocation:
    """One finished child process: wall time, CPU time, peak RSS and outcome."""

    def __init__(self, measured: dict, cwd: str):
        self.wall_s = measured["wall_s"]
        self.cpu_s = measured["cpu_s"]
        self.peak_rss_mb = measured["peak_rss_mb"]
        self.returncode = measured["returncode"]
        with open(os.path.join(cwd, "stdout.txt"), encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(os.path.join(cwd, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()
        self.problems: list[str] = []
        if self.returncode != 0:
            self.problems.append(f"exit code {self.returncode}: {self.stderr.strip()[-500:]}")


class Spawner:
    """Runs children through ``spawner.py``, so their peak RSS is their own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, cmd: list[str], cwd: str) -> Invocation:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "cwd": cwd, "timeout": INVOKE_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited early")
        return Invocation(json.loads(line), cwd)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=INVOKE_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": BLAS_ENV,
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(spawner: Spawner, cwd: str) -> float:
    """Fresh-interpreter seconds to import ``votescale.cli`` and build its parser."""
    inv = spawner.run([sys.executable, "-c", SETUP_SNIPPET], cwd)
    if inv.returncode != 0:
        raise RuntimeError(f"importing votescale.cli failed: {inv.stderr.strip()}")
    seconds, module_file = inv.stdout.split()
    if not os.path.abspath(module_file).startswith(SRC + os.sep):
        raise RuntimeError(f"votescale.cli imported from {module_file}, not from {SRC}")
    return float(seconds)


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": len(values),
    }


def run(wl: Workload, shape: Shape, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line plus the details."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    cli = [sys.executable, "-m", "votescale.cli"]
    spawner = Spawner(env)
    setup: list[float] = []
    try:
        inputs = generate(wl, shape, seed, workdir, cli, env)
        described = inputs.describe(wl)
        expected = expected_report(wl, inputs)
        spans_path = os.path.join(workdir, "spans.json")
        tracer_cmd = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), "--spans", spans_path]

        def invoke(traced: bool, index: int) -> Invocation:
            shutil.rmtree(os.path.join(workdir, "report"), ignore_errors=True)
            prefix = tracer_cmd + ["--run", str(index), "--"] if traced else cli
            inv = spawner.run(prefix + list(inputs.argv), workdir)
            if inv.returncode == 0:
                inv.problems += check_report(os.path.join(workdir, "report"), expected)
            return inv

        plain: list[Invocation] = []
        traced: list[tuple[Invocation, dict]] = []
        start = time.perf_counter()
        minimum = MIN_TRACED if trace else MIN_SAMPLES
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (len(plain) >= minimum or elapsed + last > LOOP_LIMIT_S):
                break
            if not trace:
                # one set-up sample per invocation spreads them over the run
                setup.append(measure_setup(spawner, workdir))
            plain.append(invoke(False, len(plain)))
            if trace:
                inv = invoke(True, len(traced))
                layers = None
                if inv.returncode == 0:
                    with open(spans_path, encoding="utf-8") as fh:
                        spans = json.load(fh)
                    layers = (layer_metrics(spans), spans["missing"])
                traced.append((inv, layers))
            last = time.perf_counter() - start - elapsed
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    invocations = plain + [inv for inv, _ in traced]
    failed = [inv for inv in invocations if inv.problems]
    ok = [inv for inv in plain if not inv.problems] or plain
    wall = [inv.wall_s for inv in ok]
    details = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": described,
        "environment": environment(),
        "wall_s": summary(wall),
        "cpu_s": summary([inv.cpu_s for inv in ok]),
        "peak_rss_mb": summary([inv.peak_rss_mb for inv in ok]),
        "wall_samples_s": [inv.wall_s for inv in plain],
        "failed_frac": len(failed) / len(invocations),
        "problems": [p for inv in failed for p in inv.problems][:20],
    }
    if trace:
        metrics, missing = traced_metrics(traced, wall, details)
        details["missing_wrapped_names"] = missing
    else:
        details["setup_s"] = summary(setup)
        wall_median = statistics.median(wall)
        values = {
            "wall_s": wall_median,
            "cells_per_s": inputs.shape.cells / wall_median,
            "cpu_s": statistics.median(inv.cpu_s for inv in ok),
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in ok),
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    details["result"] = {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": metrics,
    }
    return details


def traced_metrics(traced, untraced_wall: list[float], details: dict):
    """Per-layer metrics over the traced invocations that exited normally
    (their reports may still fail the check, which ``failed`` counts):
    medians for times, the first invocation's value for counts, which must
    repeat exactly. Every metric is None when no traced invocation ran through."""
    runs = [(inv, layers) for inv, layers in traced if layers is not None]
    values = dict.fromkeys(LAYER_METRICS)
    repeats = True
    for name, (unit, _, _) in LAYER_METRICS.items():
        column = [layers[0].get(name) for _, layers in runs]
        if not column or column[0] is None:
            continue
        if unit == "count":
            repeats &= all(c == column[0] for c in column)
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    if runs:
        traced_wall = [inv.wall_s for inv, _ in runs]
        values["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(untraced_wall)
        details["traced_wall_s"] = summary(traced_wall)
    details["counts_repeat"] = repeats
    metrics = {name: {"value": values[name], "unit": LAYER_METRICS[name][0]} for name in LAYER_METRICS}
    return metrics, runs[0][1][1] if runs else []


def report(details: dict) -> None:
    """Print every metric by name and unit, then the result line."""
    result = details["result"]
    inputs = details["inputs"]
    print(f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}")
    print("inputs   " + "  ".join(f"{k}={v}" for k, v in inputs.items()))
    print("env      " + json.dumps(details["environment"], sort_keys=True))
    wall = details["wall_s"]
    print(f"samples  {wall['samples']} untraced invocations, wall min {wall['min']:.4f} s, max {wall['max']:.4f} s")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {metric['unit']}")
    print(f"  {'failed_frac':<26} {details['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} invocations)")
    for problem in details["problems"]:
        print(f"  problem: {problem}")
    if details.get("missing_wrapped_names"):
        print("  missing wrapped names: " + ", ".join(details["missing_wrapped_names"]))
    print(json.dumps(result))


def write_details(details: dict) -> None:
    os.makedirs(WORK, exist_ok=True)
    name = f"BENCH_{details['workload']}_seed{details['seed']}_trace{details['trace']}.json"
    with open(os.path.join(WORK, name), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: every metric named
    in BENCHMARK.json must be present and every report must pass the check."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        wl = WORKLOADS[name]
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            details = run(wl, wl.tiny, seed=1, seconds=0.0, trace=trace)
            result = details["result"]
            label = f"{name} trace {int(trace)}"
            if not result["correct"]:
                problems.append(f"{label}: output check failed: {details['problems']}")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["value"] is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing or wrong unit")
            print(f"{label}: {result['attempted']} invocations, {result['failed']} failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="workload to run; 'all' runs each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, check metrics and outputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "votescale", "cli.py")):
        print(f"error: no votescale sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = WORKLOADS[name]
        details = run(wl, wl.full, args.seed, args.seconds, bool(args.trace))
        write_details(details)
        report(details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
