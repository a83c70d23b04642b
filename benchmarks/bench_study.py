#!/usr/bin/env python
"""Wall-clock benchmark of the study: per-figure seconds + event counts.

Runs the paper's experiments and writes ``BENCH_study.json`` with, per
figure, the wall-clock seconds and the number of discrete events the
simulator processed — the two numbers the DES/caching optimizations
move.  Modes:

* ``--smoke``      — a small subset (CI-friendly, well under a minute);
* default          — every study experiment at the small scales;
* ``--full``       — Figure 2 at the paper's full processor range, the
  acceptance metric of the performance work (seed: ~122 s);
* ``--jobs-sweep`` — the whole campaign through the :mod:`repro.exec`
  scheduler at jobs=1/2/4, recording wall-clock, executed points and
  dedup counts per job level (plus the host's CPU count, without which
  the numbers are meaningless);
* ``--chaos``      — the seed-7 fault-injection campaign (``python -m
  repro chaos``): wall-clock and event count of all 35 chaos points;
* ``--engine``     — the event-core microbenchmark: the shipped lazy
  calendar queue against PR 4's binary heap on synthetic event
  streams (same-tick cascades, short-horizon uniform, wide-horizon),
  events/sec per structure under the ``engine`` key;
* ``--serve``      — the serving-layer latency benchmark: a cold
  ``python -m repro study fig6`` subprocess (interpreter start +
  import + serial simulation) against a resident daemon's first
  (cache-cold) and warm (cache-hot) submissions of the same figure,
  plus the warm pool's resident events/sec, under the ``serve`` key;
* ``--gate PATH``  — the CI perf gate: re-measure the ``--full``
  figures and the chaos campaign, exit non-zero if a figure's or the
  campaign's event count differs from the committed baseline at
  ``PATH`` at all, or its normalized wall time grows more than
  :data:`GATE_TOLERANCE`;
* ``--profile FIG`` — run one figure (any ``--full`` or study
  experiment name) under :mod:`cProfile` and write the top 25
  functions by cumulative time to ``profile-<fig>.txt`` next to the
  JSON report — the first stop when a figure's wall time grows.

Every figure and the chaos campaign run :data:`REPEATS` times from a
cold run cache.  The recorded ``seconds`` is the median over the
repeats, each scaled to the nominal speed of ``perfbench/speed.py``'s
reference kernel timed in the same process during that repeat (the
host's speed drifts by more than any useful tolerance); ``spread`` is
the quartile spread over the median and ``raw_seconds`` the unscaled
median.  Event counts are deterministic, so every repeat must count
the same number.

Schema 2 adds ``events_per_second`` per figure — the
machine-independent throughput number (wall seconds vary with the
host; events are deterministic).  Schema 3 adds the ``engine``
microbenchmark section and ``events_per_second`` to the ``chaos``
entry (now part of the gate).  Schema 4 adds the ``batch_ab`` section
and gates the figures' events/sec too.  Schema 5 adds the ``serve``
section — the warm-daemon submission latencies the serving layer
exists to deliver.  Schema 6 adds the beyond-the-paper ``fig_sst`` /
``fig_pmem`` figures to the ``--full`` set and the gate, and the
chaos entry now covers the extended (pmem-tier) campaign.  Schema 7
adds the ``fork`` section (checkpoint-fork A/B, gated on absolute
speedup floors) and best-of-``repeats`` timing in the ``engine``
microbenchmark.  Schema 8 records the ``exec.pool.effective_jobs``
clamp per ``jobs_sweep`` level (skipping levels the clamp makes
redundant instead of timing pure worker-spawn overhead) and adds the
contended-path compilers (dimes, mpiio, flexpath) to ``batch_ab``.
Schema 9 drops the ``batch_ab`` section with the batch-actor engine
it measured.  Schema 10 records figure and chaos wall times as
speed-normalized medians of repeats (``seconds``, ``raw_seconds``,
``spread``, ``repeats``) and drops ``events_per_second``: the gate
checks event counts exactly instead, so a change that removes events
is no longer read as a throughput loss.  Schema 11 drops the ``fork``
section with the checkpoint-fork layer it measured.  Its baselines were
re-recorded (schema unchanged) when the clustered fidelity rung was
deleted: every cell now simulates all its actors, so ``fig2a_full``,
``fig2b_full`` and ``fig_sst`` count more events for the same outputs.

The run cache is cleared before every experiment so timings measure
simulation, not memoization.  Results merge into the output JSON, so
the ``figures`` and ``jobs_sweep`` sections can be refreshed
independently.

Usage::

    PYTHONPATH=src python benchmarks/bench_study.py \\
        [--smoke|--full|--jobs-sweep] [-o PATH]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import statistics
import sys
import time
from heapq import heappop, heappush
from typing import Callable, Dict, List

from repro.core import figures, runcache
from repro.core.study import Study
from repro.sim.engine import Environment


def _load_speed():
    """``perfbench/speed.py``, the benchmark's frozen reference kernel."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "perfbench", "speed.py")
    spec = importlib.util.spec_from_file_location("perfbench_speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


speed = _load_speed()

#: cold runs behind every recorded wall time (their median is kept)
REPEATS = 5
#: seconds between reference-kernel samples: fine enough that even the
#: 0.15 s fig_sst run is scaled by about ten samples, not one
SAMPLE_PERIOD_S = 0.02


class EventCounter:
    """Counts processed events by wrapping ``Environment.step``."""

    def __init__(self) -> None:
        self.count = 0
        self._orig: Callable = Environment.step

    def __enter__(self) -> "EventCounter":
        orig = self._orig

        def counting_step(env) -> None:
            self.count += 1
            orig(env)

        Environment.step = counting_step
        return self

    def __exit__(self, *exc) -> None:
        Environment.step = self._orig


def measure(runner: Callable[[], object]) -> Dict[str, object]:
    """Run ``runner`` :data:`REPEATS` times cold; exact events, median wall.

    Each repeat's wall time is scaled by the reference kernel's mean
    speed sampled during that repeat (sampling time excluded), so a
    host running slower overall does not read as a slower program.
    """
    walls: List[float] = []
    raws: List[float] = []
    counts = set()
    for _ in range(REPEATS):
        runcache.clear()
        with EventCounter() as counter:
            with speed.Sampler(SAMPLE_PERIOD_S) as sampler:
                start = time.perf_counter()
                runner()
                raw = time.perf_counter() - start - sampler.spent
        raws.append(raw)
        walls.append(raw * sampler.speed())
        counts.add(counter.count)
    if len(counts) != 1:
        raise RuntimeError(f"event counts differ between repeats: {counts}")
    median = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    return {
        "events": counts.pop(),
        "seconds": round(median, 3),
        "raw_seconds": round(statistics.median(raws), 3),
        "spread": round((q3 - q1) / median, 3),
        "repeats": REPEATS,
    }


def experiments(mode: str) -> Dict[str, Callable[[], object]]:
    if mode == "smoke":
        return {
            "fig2a": lambda: figures.fig2_end_to_end("lammps"),
            "fig6": figures.fig6_index_cost,
        }
    if mode == "full":
        return {
            "fig2a_full": lambda: figures.fig2_end_to_end("lammps", full=True),
            "fig2b_full": lambda: figures.fig2_end_to_end("laplace", full=True),
            # The beyond-the-paper families ride the same gate: their
            # sweeps exercise the SST pacing queue and the pmem mirror
            # path, whose per-event cost the study figures never touch.
            "fig_sst": figures.fig_sst_streaming,
            "fig_pmem": figures.fig_pmem_tier,
        }
    study = Study()
    return dict(study.experiments())


def jobs_sweep(levels=(1, 2, 4)) -> Dict[str, Dict[str, object]]:
    """Wall-clock the full campaign at each parallelism level.

    Every entry records the ``exec.pool.effective_jobs`` clamp next to
    the requested level, and levels whose clamped worker count was
    already measured are skipped instead of run: on a single-CPU host
    ``--jobs 2`` used to report *slower* than ``--jobs 1`` purely from
    worker start-up overhead, which read as a scaling regression when
    it was really the same serial run plus spawn cost.
    """
    from repro.exec.pool import effective_jobs

    sweep: Dict[str, Dict[str, object]] = {}
    measured: Dict[int, int] = {}
    for jobs in levels:
        effective = effective_jobs(jobs)
        if effective in measured:
            sweep[str(jobs)] = {
                "effective_jobs": effective,
                "skipped": f"clamps to {effective} workers, "
                           f"already measured at jobs={measured[effective]}",
            }
            print(f"jobs={jobs}   skipped (clamps to jobs={measured[effective]})")
            continue
        runcache.clear()
        start = time.perf_counter()
        study = Study(jobs=jobs)
        study.run()
        elapsed = time.perf_counter() - start
        entry: Dict[str, object] = {
            "seconds": round(elapsed, 3),
            "effective_jobs": effective,
        }
        if study.run_report is not None:
            entry["executed"] = study.run_report.executed
            entry["deduped_refs"] = study.run_report.deduped_refs
            entry["rounds"] = len(study.run_report.rounds)
        sweep[str(jobs)] = entry
        measured[effective] = jobs
        print(f"jobs={jobs}   {elapsed:8.2f} s  ({effective} workers)")
    return sweep


def profile_figure(fig: str, output: str) -> int:
    """Run one figure under cProfile; top-25 cumulative to a text file.

    The dump lands at ``profile-<fig>.txt`` next to the JSON report
    path, so ``-o`` steers both.  Cache cleared first: a memoized run
    would profile the replay machinery instead of the simulator.
    """
    import cProfile
    import pstats

    runners: Dict[str, Callable] = {}
    for mode in ("study", "full"):
        runners.update(experiments(mode))
    if fig not in runners:
        print(f"unknown figure {fig!r}; choose from: "
              f"{', '.join(sorted(runners))}", file=sys.stderr)
        return 2
    runcache.clear()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    runners[fig]()
    profiler.disable()
    elapsed = time.perf_counter() - start
    path = os.path.join(os.path.dirname(os.path.abspath(output)) or ".",
                        f"profile-{fig}.txt")
    with open(path, "w") as fh:
        pstats.Stats(profiler, stream=fh).sort_stats(
            "cumulative").print_stats(25)
    print(f"{fig:12s} {elapsed:8.2f} s under cProfile -> {path}")
    return 0


def chaos_bench(seed: int = 7) -> Dict[str, object]:
    """Wall-clock the chaos campaign (serial, cold cache)."""
    from repro.chaos import run_campaign

    entry = measure(lambda: run_campaign(seed=seed))
    print(f"chaos(seed={seed}) {entry['seconds']:8.2f} s  "
          f"{entry['events']:>12,} events  (spread {entry['spread']:.1%})")
    return {"seed": seed, **entry}


# ---------------------------------------------------- engine microbench

class _HeapQueue:
    """PR 4's event queue: one binary heap of ``(tick, eid, event)``.

    The eid tie-break tuple is the structure's real cost — every push
    allocates a triple and every sift compares tuples lexicographically.
    """

    __slots__ = ("_heap", "_eid", "now_tick")

    def __init__(self) -> None:
        self._heap: list = []
        self._eid = 0
        self.now_tick = 0

    def push(self, delay: int, ev) -> None:
        heappush(self._heap, (self.now_tick + delay, self._eid, ev))
        self._eid += 1

    def pop(self):
        tick, _eid, ev = heappop(self._heap)
        self.now_tick = tick
        return ev

    def empty(self) -> bool:
        return not self._heap


class _CalendarQueue:
    """The shipped lazy calendar queue (``Environment._insert``/``step``
    with the event bodies stripped, so the comparison times the queue
    structure alone).  A singleton bucket stores its event *bare* — a
    list is only built on collision and recycled through a free pool
    once drained — so the dominant one-event-per-tick case (sparse
    uniform/wide streams) costs one dict store and no allocation, and
    per-bucket FIFO order *is* the eid tie-break."""

    __slots__ = ("_buckets", "_ticks", "_current", "_pos", "_bfree",
                 "now_tick")

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._ticks: list = []
        self._current = None
        self._pos = 0
        self._bfree: list = []
        self.now_tick = 0

    def push(self, delay: int, ev) -> None:
        if delay == 0 and self._current is not None:
            self._current.append(ev)
            return
        tick = self.now_tick + delay
        buckets = self._buckets
        got = buckets.get(tick)
        if got is None:
            buckets[tick] = ev
            heappush(self._ticks, tick)
        elif type(got) is list:
            got.append(ev)
        else:
            bfree = self._bfree
            if bfree:
                bucket = bfree.pop()
                bucket.append(got)
                bucket.append(ev)
            else:
                bucket = [got, ev]
            buckets[tick] = bucket

    def pop(self):
        pos = self._pos
        cur = self._current
        if cur is not None and pos < len(cur):
            self._pos = pos + 1
            return cur[pos]
        if cur is not None:
            del cur[:]
            self._bfree.append(cur)
            self._current = None
        tick = heappop(self._ticks)
        got = self._buckets.pop(tick)
        self.now_tick = tick
        if type(got) is list:
            self._current = got
            self._pos = 1
            return got[0]
        self._pos = 0
        return got

    def empty(self) -> bool:
        return (self._current is None or self._pos >= len(self._current)) \
            and not self._ticks


#: the engine's observed delay mix: over half of all events land on the
#: current tick (succeed() cascades, process kick-offs, resource grants)
_ENGINE_STREAMS = {
    "cascade": lambda rng: 0 if rng.random() < 0.55 else rng.randrange(1, 1 << 20),
    "uniform": lambda rng: rng.randrange(1, 1 << 20),
    "wide": lambda rng: rng.randrange(1, 1 << 44),
}


def _stream_delays(profile: str, n_ops: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    draw = _ENGINE_STREAMS[profile]
    return [draw(rng) for _ in range(n_ops)]


def _drive(queue, warm: List[int], delays: List[int]) -> float:
    """Pop/push ``delays`` through ``queue``; returns elapsed seconds."""
    for i, d in enumerate(warm):
        queue.push(d, i)
    pop, push = queue.pop, queue.push
    start = time.perf_counter()
    for i, d in enumerate(delays):
        pop()
        push(d, i)
    return time.perf_counter() - start


def engine_bench(n_ops: int = 200_000, seed: int = 1234,
                 repeats: int = 3) -> Dict[str, object]:
    """Heap vs calendar queue on synthetic event streams.

    Each stream holds the queue at a constant population (1000 pending
    events) and measures pure pop+push throughput.  Both structures see
    the same absolute ticks, and their pop sequences are asserted
    identical first — the calendar queue's per-bucket FIFO *is* the
    heap's ``(tick, eid)`` order.  Each timing is the best of
    ``repeats`` passes: the first pass runs on cold caches and can be
    ~10% slower than steady state, which single-shot timing would
    misattribute to the structure under test.
    """
    results: Dict[str, object] = {"ops": n_ops, "repeats": repeats}
    streams: Dict[str, object] = {}
    for profile in _ENGINE_STREAMS:
        warm = _stream_delays(profile, 1000, seed ^ 0xA5A5)
        delays = _stream_delays(profile, n_ops, seed)

        check_n = min(n_ops, 20_000)
        heap_q, cal_q = _HeapQueue(), _CalendarQueue()
        for i, d in enumerate(warm):
            heap_q.push(d, i)
            cal_q.push(d, i)
        for i, d in enumerate(delays[:check_n]):
            assert heap_q.pop() == cal_q.pop(), profile
            heap_q.push(d, 1000 + i)
            cal_q.push(d, 1000 + i)

        heap_s = min(_drive(_HeapQueue(), warm, delays)
                     for _ in range(repeats))
        cal_s = min(_drive(_CalendarQueue(), warm, delays)
                    for _ in range(repeats))
        entry = {
            "heap_events_per_second": round(n_ops / heap_s, 1),
            "calendar_events_per_second": round(n_ops / cal_s, 1),
            "speedup": round(heap_s / cal_s, 3),
        }
        streams[profile] = entry
        print(f"engine/{profile:8s} heap {n_ops / heap_s:>12,.0f} ev/s   "
              f"calendar {n_ops / cal_s:>12,.0f} ev/s   "
              f"({heap_s / cal_s:.2f}x)")
    results["streams"] = streams
    return results


# ---------------------------------------------------- serving latency

def serve_bench(figure: str = "fig6") -> Dict[str, object]:
    """Cold CLI start vs resident-daemon submissions of one figure.

    Three numbers frame what keeping the service resident buys:

    * ``cold_study_seconds`` — a fresh ``python -m repro study`` run
      of the figure in a subprocess: interpreter start, imports,
      serial simulation (what a batch user pays every invocation);
    * ``first_submission_seconds`` — submit+wait against a freshly
      started daemon (cache cold): the points still simulate, but the
      interpreter/import cost is already sunk in the resident pool;
    * ``warm_submission_seconds`` — the same submission again: every
      point a cache hit, only planning and replay remain.
    """
    import subprocess
    import tempfile
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "study", figure],
        check=True, capture_output=True, env=env,
    )
    cold = time.perf_counter() - start

    tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
    sock = os.path.join(tmp, "bench.sock")
    runcache.clear()
    daemon = ServeDaemon(socket_path=sock, jobs=os.cpu_count() or 1)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    daemon.ready.wait(60)
    try:
        with ServeClient(socket_path=sock).connect(retry_seconds=10) as c:
            timings = []
            for _ in range(2):
                start = time.perf_counter()
                final = c.wait(c.submit_figure(figure)["job"])
                timings.append(time.perf_counter() - start)
                assert final["state"] == "done", final
            stats = c.stats()
    finally:
        daemon.request_shutdown()
        thread.join(60)
    first, warm = timings
    print(f"serve/{figure}: cold study {cold:6.2f} s   first submission "
          f"{first:6.2f} s   warm submission {warm:6.2f} s   "
          f"({cold / warm:.1f}x over cold)")
    return {
        "figure": figure,
        "cold_study_seconds": round(cold, 3),
        "first_submission_seconds": round(first, 3),
        "warm_submission_seconds": round(warm, 3),
        "speedup_warm_vs_cold": round(cold / warm, 1) if warm > 0 else 0.0,
        "pool_events_total": stats["pool"]["events_total"],
        "pool_events_per_second_resident":
            stats["pool"]["events_per_second_resident"],
        "cache": {k: stats["cache"][k]
                  for k in ("hits", "misses", "stores", "seeds")},
    }


#: CI fails when a gated median wall time exceeds baseline by this
GATE_TOLERANCE = 0.2
GATED_FIGURES = ("fig2a_full", "fig2b_full", "fig_sst", "fig_pmem")


def perf_gate(
    baseline_path: str,
    measured: Dict[str, Dict],
    measured_chaos: Dict[str, object],
) -> int:
    """Compare measured perf against the committed baseline.

    Each gated figure and the chaos campaign must process exactly the
    baseline's event count (events are deterministic: any change must
    be explained and re-recorded), and its speed-normalized median wall
    time must not grow past :data:`GATE_TOLERANCE`.  Returns the number
    of failed checks.  A missing or pre-schema-10 baseline entry is a
    hard failure too — the gate must never pass vacuously.
    """
    with open(baseline_path) as fh:
        payload = json.load(fh)
    if payload.get("schema", 0) < 10:
        print(f"GATE FAIL {baseline_path}: schema {payload.get('schema')} "
              f"predates normalized medians; re-record it")
        return 1
    failures = 0
    entries = [(ident, payload.get("figures", {}).get(ident), measured[ident])
               for ident in GATED_FIGURES]
    entries.append(("chaos", payload.get("chaos"), measured_chaos))
    for name, base, now in entries:
        if not base:
            print(f"GATE FAIL {name}: no baseline in {baseline_path}")
            failures += 1
            continue
        ok = now["events"] == base["events"]
        print(f"{'ok' if ok else 'GATE FAIL':9s} {name}: {now['events']:,} "
              f"events vs baseline {base['events']:,} (must match exactly)")
        failures += not ok
        ratio = now["seconds"] / base["seconds"]
        ok = ratio <= 1.0 + GATE_TOLERANCE
        print(f"{'ok' if ok else 'GATE FAIL':9s} {name}: {now['seconds']:.2f}s "
              f"vs baseline {base['seconds']:.2f}s ({ratio:.0%} of baseline, "
              f"tolerance {1.0 + GATE_TOLERANCE:.0%}; median of "
              f"{now['repeats']}, spread {now['spread']:.1%})")
        failures += not ok
    return failures


def _merge_existing(path: str, report: Dict) -> Dict:
    """Keep the other mode's sections when refreshing one of them."""
    try:
        with open(path) as fh:
            existing = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return report
    for key in ("figures", "jobs_sweep", "chaos", "engine", "serve"):
        if key in existing and key not in report:
            report[key] = existing[key]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true",
                       help="small CI subset")
    group.add_argument("--full", action="store_true",
                       help="Figure 2 at the paper's full scales")
    group.add_argument("--jobs-sweep", action="store_true",
                       help="the whole campaign at jobs=1/2/4")
    group.add_argument("--chaos", action="store_true",
                       help="the seed-7 fault-injection campaign")
    group.add_argument("--engine", action="store_true",
                       help="the event-core microbenchmark: calendar "
                            "queue vs binary heap on synthetic streams")
    group.add_argument("--serve", action="store_true",
                       help="serving-layer latency: cold CLI study vs "
                            "first and warm submissions to a resident "
                            "daemon")
    group.add_argument("--profile", metavar="FIG",
                       help="run one figure under cProfile and write the "
                            "top 25 cumulative functions to "
                            "profile-<fig>.txt (no JSON report)")
    group.add_argument("--gate", metavar="BASELINE",
                       help="CI perf gate: rerun the --full figures and "
                            "the chaos campaign; fail on any event-count "
                            "change or a >20%% normalized median "
                            "wall-time regression vs the committed "
                            "BASELINE json")
    parser.add_argument("-o", "--output", default="BENCH_study.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.profile:
        return profile_figure(args.profile, args.output)

    report: Dict[str, object] = {"schema": 11, "cpus": os.cpu_count()}
    if args.jobs_sweep:
        report["mode"] = "jobs-sweep"
        report["jobs_sweep"] = jobs_sweep()
        total = sum(e.get("seconds", 0.0)
                    for e in report["jobs_sweep"].values())
    elif args.chaos:
        report["mode"] = "chaos"
        report["chaos"] = chaos_bench()
        total = report["chaos"]["seconds"]
    elif args.engine:
        report["mode"] = "engine"
        start = time.perf_counter()
        report["engine"] = engine_bench()
        total = time.perf_counter() - start
    elif args.serve:
        report["mode"] = "serve"
        start = time.perf_counter()
        report["serve"] = serve_bench()
        total = time.perf_counter() - start
    else:
        if args.gate:
            mode = "full"
        else:
            mode = "smoke" if args.smoke else ("full" if args.full else "study")
        report["mode"] = mode
        report["figures"] = {}
        total = 0.0
        for ident, runner in experiments(mode).items():
            entry = measure(runner)
            total += entry["seconds"]
            report["figures"][ident] = entry
            print(f"{ident:12s} {entry['seconds']:8.2f} s  "
                  f"{entry['events']:>12,} events  "
                  f"(spread {entry['spread']:.1%})")
        if args.gate:
            report["chaos"] = chaos_bench()
            total += report["chaos"]["seconds"]
    report["total_seconds"] = round(total, 3)
    report = _merge_existing(args.output, report)

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\ntotal {total:.2f} s -> {args.output}")
    if args.gate:
        failures = perf_gate(args.gate, report["figures"], report["chaos"])
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
