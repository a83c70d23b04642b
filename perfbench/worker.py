"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE LAUNCHED [UNITS]

``MODE`` is ``setup`` (import and construct the workload, then stop),
``run`` (one timed pass, untraced) or ``trace`` (one pass under
cProfile, with per-layer attribution).  ``LAUNCHED`` is the parent's
``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports and construction.

``UNITS``, a comma-separated list of unit labels, runs only those units
(the benchmark's own tests use it; the benchmark never does).

Times are reported scaled to the nominal speed of the reference kernel
in ``speed.py``, which is sampled during set-up and during a ``run``
pass; the ``*_raw_s`` figures are the unscaled ones.  A ``trace`` pass
is not sampled, so that the profile holds the program alone, and its
times are not scaled.

The last line of standard output is ``PERFBENCH <json>``.  The process
exits non-zero if the program cannot be imported from ``src/`` of the
checkout around this directory.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: seconds between two samples of the kernel during set-up
SETUP_PERIOD_S = 0.02


def _cpu(resource, who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _engagement(calls) -> dict:
    """Counts behind the reduction-ladder fractions (simulated points only)."""
    fresh = [c for c in calls if not c.cache_hit and c.result is not None]
    steady = [c for c in fresh if "steady" in c.fidelity]
    clustered = [c for c in fresh if "clustered" in c.fidelity]
    batch = [c for c in clustered if c.batch_actors is not False]

    def frac(group, label):
        engaged = sum(label in (getattr(c.result, "fidelity", None) or "") for c in group)
        return engaged / len(group) if group else 0.0

    return {
        "workflows.points": len(calls),
        "workflows.points_simulated": sum(not getattr(c.result, "forked", None) for c in fresh),
        "workflows.steady_engaged_frac": frac(steady, "steady"),
        "workflows.clustered_engaged_frac": frac(clustered, "clustered"),
        "staging.batch_engaged_frac": frac(batch, "batch"),
        "staging.bytes_staged": float(sum(c.result.bytes_staged for c in fresh)),
    }


def _cache_counters() -> dict:
    """Run-cache and checkpoint-fork counters of this process.

    A mechanism the program no longer has reads as zero, so deleting it
    shows in the numbers instead of breaking the benchmark.
    """
    from repro.core import runcache

    cache = runcache.CACHE.stats()
    try:
        from repro.core.forkpoint import STATS
        forks = STATS.stats()
    except ImportError:
        forks = {}
    lookups = cache["hits"] + cache["misses"]
    return {
        "core.runcache.hit_frac": cache["hits"] / lookups if lookups else 0.0,
        "core.forkpoint.forks_served": forks.get("forks_served", 0),
        "core.forkpoint.fork_declines": sum(forks.get("fork_declines", {}).values()),
        "core.forkpoint.prefix_stores": cache.get("prefix_stores", 0),
        "core.forkpoint.prefix_hits": cache.get("prefix_hits", 0),
    }


def main(argv) -> int:
    name, seed, mode, launched = argv[0], argv[1], argv[2], float(argv[3])
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import json
    import resource

    import speed

    # Sample the host's speed from the first import of the program on.
    with speed.Sampler(SETUP_PERIOD_S) as sampler:
        import repro

        if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")
        from outputs import PointRecorder
        from workloads import WORKLOADS

        workload = WORKLOADS[name](seed, ROOT)
        if len(argv) > 4:
            workload.units = argv[4].split(",")
        recorder = PointRecorder().install()
    setup = time.monotonic() - launched - sampler.spent
    report = {"setup_s": setup * sampler.speed(), "setup_raw_s": setup}
    import platform

    import numpy

    report["host"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                      "numpy": numpy.__version__}
    if mode != "setup":
        profiler = None
        if mode == "trace":
            import cProfile

            profiler = cProfile.Profile()
        # A profiled pass is not sampled, so the profile holds the
        # program alone; its times are reported unscaled.
        sampler = speed.Sampler()
        self0 = _cpu(resource, resource.RUSAGE_SELF)
        kids0 = _cpu(resource, resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        else:
            sampler.start()
        try:
            workload.run(recorder)
        finally:
            sampler.stop()
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - start - sampler.spent
        kids = _cpu(resource, resource.RUSAGE_CHILDREN) - kids0
        cpu = _cpu(resource, resource.RUSAGE_SELF) - self0 - sampler.spent + kids
        scale = 1.0 if profiler is not None else sampler.speed()
        recorder.uninstall()
        attempted, failed, messages = workload.check(recorder)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        report.update(
            wall_s=wall * scale, cpu_s=cpu * scale, wall_raw_s=wall, cpu_raw_s=cpu,
            speed=scale, children_cpu_s=kids, peak_rss_mb=peak_kb / 1024.0,
            attempted=attempted, failed=failed, failures=messages[:20],
            counts=_engagement(recorder.calls),
        )
        report["counts"].update(_cache_counters())
        if profiler is not None:
            import pstats

            from layers import call_count, self_time_by_layer

            stats = pstats.Stats(profiler).stats
            report["layers"] = self_time_by_layer(stats)
            report["counts"]["sim.events"] = call_count(stats, ("sim", "engine.py"), "step")
    print("PERFBENCH " + json.dumps(report, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
