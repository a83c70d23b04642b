"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of the workload runs in a
fresh worker process (``worker.py``), one after another: a closed loop
with one caller and no parallelism, so import cost and peak memory
belong to that pass alone.

Every time is scaled to the nominal speed of a reference kernel timed
alongside the program (``speed.py``), because the shared host's own
speed drifts by more than the bounds allow.

``--trace 0`` runs rounds until the next one would end after ``S``
seconds (at least two).  A round is one pass followed by two
set-up-only processes, so the set-up samples are spread over the whole
run rather than taken together.  ``wall_s`` and ``cpu_s`` are means over
the passes, which average the host's pass-to-pass noise better than a
median of two to five passes; ``peak_rss_mb`` is their median, and
``setup_s`` the median of all set-up samples (the passes' own and the
set-up-only ones).  The per-sample figures go to standard error.

``--trace 1`` runs one untraced pass and one pass under cProfile and
reports the per-layer metrics; ``trace.overhead_frac`` compares the two
passes' wall times.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; diagnostics go to standard error.
The exit code is non-zero, and no result is printed, if a pass cannot
run at all (for instance when ``src/`` is missing).
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("study", "fig2_full", "long_horizon", "chaos")

#: seconds after start by which every pass must have ended
DEADLINE_S = 170.0
#: set-up-only processes launched after each pass
SETUPS_PER_PASS = 2
#: passes every untraced run makes, however long they take
MIN_PASSES = 2


class BenchError(RuntimeError):
    pass


def launch(workload: str, seed: str, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, seed, mode, repr(launched)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launched))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("PERFBENCH ")]
    if not lines:
        raise BenchError(f"{mode} pass of {workload} printed no report")
    report = json.loads(lines[-1][len("PERFBENCH "):])
    for message in report.get("failures", []):
        print(f"[{workload} {mode}] FAILED {message}", file=sys.stderr)
    return report


def end_to_end(args, deadline: float) -> tuple:
    start = time.monotonic()
    passes, setups, setups_raw = [], [], []
    while True:
        begun = time.monotonic()
        run = launch(args.workload, f"{args.seed}.{len(passes)}", "run", deadline)
        passes.append(run)
        setups.append(run["setup_s"])
        setups_raw.append(run["setup_raw_s"])
        for _ in range(SETUPS_PER_PASS):
            probe = launch(args.workload, f"{args.seed}.{len(setups)}", "setup", deadline)
            setups.append(probe["setup_s"])
            setups_raw.append(probe["setup_raw_s"])
        run["round_s"] = time.monotonic() - begun
        spent = time.monotonic() - start
        typical = statistics.median(p["round_s"] for p in passes)
        if spent + typical > deadline - start - 10.0:
            break
        if len(passes) >= MIN_PASSES and spent + typical > args.seconds:
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": statistics.mean(p["wall_s"] for p in passes),
        "cpu_s": statistics.mean(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": setups,
        "wall_raw_s": [p["wall_raw_s"] for p in passes],
        "setup_raw_s": setups_raw,
        "speed": [p["speed"] for p in passes],
    }
    print("samples " + json.dumps(samples), file=sys.stderr)
    return passes, attempted, failed, metrics


def per_layer(args, deadline: float) -> tuple:
    seed = f"{args.seed}.0"
    base = launch(args.workload, seed, "run", deadline)
    traced = launch(args.workload, seed, "trace", deadline)
    metrics = {f"{layer}.self_s": value for layer, value in traced["layers"].items()}
    metrics.update(traced["counts"])
    events = traced["counts"]["sim.events"]
    metrics["sim.us_per_event"] = base["wall_s"] * 1e6 / events if events else 0.0
    metrics["chaos.fork_children_cpu_s"] = base["children_cpu_s"]
    metrics["trace.overhead_frac"] = traced["wall_raw_s"] / base["wall_raw_s"] - 1.0
    passes = [base, traced]
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    return passes, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that launch() still
    # kills and reaps the running worker on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        measure = per_layer if args.trace else end_to_end
        passes, attempted, failed, values = measure(args, deadline)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("host " + json.dumps(passes[0]["host"], sort_keys=True))
    for m in wanted:
        print(f"{m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
