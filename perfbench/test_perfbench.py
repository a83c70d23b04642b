"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that a wrong output is caught (a perturbed reference value,
a perturbed golden byte), that two traced passes count the same work,
that the layer map and the self-time attribution behave, and that the
host-speed sampler scales by its kernel and leaves no timer behind.  The
repository's own test suite does not collect this file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402
from outputs import PointRecorder  # noqa: E402
from workloads import ChaosWorkload, LongHorizonWorkload, StudyWorkload  # noqa: E402


def _run(workload, units):
    from repro.core import runcache

    runcache.clear()
    workload.units = list(units)
    recorder = PointRecorder().install()
    try:
        workload.run(recorder)
    finally:
        recorder.uninstall()
    return recorder


def test_perturbed_reference_value_fails():
    workload = LongHorizonWorkload("test", ROOT)
    recorder = _run(workload, ["decaf/cori"])
    assert workload.check(recorder)[:2] == (1, 0)

    references = workload.references()
    (call,) = recorder.calls
    points = references["points"]
    wrong = dict(points[call.key], end_to_end=repr(float(points[call.key]["end_to_end"]) + 1e-9))
    workload.references = lambda: {**references, "points": {**points, call.key: wrong}}
    attempted, failed, messages = workload.check(recorder)
    assert (attempted, failed) == (1, 1)
    assert "end_to_end" in messages[0]


def test_skipped_point_fails():
    workload = ChaosWorkload("test", ROOT)
    recorder = _run(workload, ["seed8"])
    attempted, failed, _ = workload.check(recorder)
    assert attempted == len(recorder.calls) and failed == 0

    recorder.calls = [c for c in recorder.calls if c.key != recorder.calls[-1].key]
    attempted, failed, messages = workload.check(recorder)
    assert attempted == len(recorder.calls) + 1 and failed == 1
    assert messages[0].endswith("not run")

    recorder.calls = []
    attempted, failed, _ = workload.check(recorder)
    assert failed == attempted == len(workload.references()["units"]["seed8"])


def test_point_outside_its_unit_fails():
    workload = ChaosWorkload("test", ROOT)
    recorder = _run(workload, ["seed8"])
    # A point another seed runs, with the right result, is still not one of seed 8's.
    references = workload.references()
    stray = sorted(set(references["units"]["seed9"]) - set(references["units"]["seed8"]))[0]
    recorder.calls.append(dataclasses.replace(recorder.calls[0], key=stray))
    attempted, failed, messages = workload.check(recorder)
    assert failed == 1 and "no recorded reference" in messages[0]


def test_perturbed_golden_byte_fails(tmp_path):
    goldens = tmp_path / "results"
    shutil.copytree(os.path.join(ROOT, "results"), goldens)
    workload = StudyWorkload("test", str(tmp_path))
    recorder = _run(workload, ["fig6", "table1"])
    attempted, failed, _ = workload.check(recorder)
    assert attempted > 2 and failed == 0

    path = goldens / "fig6.csv"
    data = bytearray(path.read_bytes())
    at = data.index(b"\n", data.index(b"\n") + 1) + 1
    data[at] = ord("0") if data[at] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    attempted, failed, messages = workload.check(recorder)
    assert 0 < failed < attempted
    assert all(message.startswith("fig6:") for message in messages)


def _traced_counts(workload, units):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, "1.0", "trace", "0", units],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out.splitlines()[-1][len("PERFBENCH "):])
    assert report["failed"] == 0
    return report["counts"]


@pytest.mark.parametrize("workload, units", [
    ("long_horizon", "decaf/cori,dimes/titan,mpiio/titan"),
    ("chaos", "seed8"),
])
def test_two_traced_passes_count_the_same(workload, units):
    first = _traced_counts(workload, units)
    second = _traced_counts(workload, units)
    assert first["sim.events"] > 0
    assert first == second


def test_layer_map_names_every_package():
    src = os.path.join(ROOT, "src", "repro")
    packages = {
        name for name in os.listdir(src)
        if os.path.isfile(os.path.join(src, name, "__init__.py"))
    }
    # Packages no workload runs in earnest; their time shows as "other".
    unmapped = {"adios", "exec", "serve"}
    assert packages - unmapped == {key for key in layers.LAYER_MAP if "/" not in key}
    for key in layers.LAYER_MAP:
        assert os.path.exists(os.path.join(src, key)), key


def test_library_time_goes_to_the_calling_layer():
    tail = os.sep + os.path.join("src", "repro")
    engine = (f"/x{tail}/sim/engine.py", 1, "step")
    lustre = (f"/x{tail}/hpc/lustre.py", 1, "submit")
    harness = ("/x/perfbench/worker.py", 1, "main")
    numpy_fn = ("~", 0, "<built-in method numpy.add>")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        engine: (1, 1, 2.0, 9.0, {harness: (1, 1, 2.0, 9.0)}),
        lustre: (1, 1, 1.0, 4.0, {engine: (1, 1, 1.0, 4.0)}),
        numpy_fn: (2, 2, 4.0, 4.0, {engine: (1, 1, 1.0, 1.0), lustre: (1, 1, 3.0, 3.0)}),
    }
    totals = layers.self_time_by_layer(stats)
    assert totals["sim"] == pytest.approx(3.0)
    assert totals["hpc.lustre"] == pytest.approx(4.0)
    assert totals["other"] == pytest.approx(0.5)
    assert sum(totals.values()) == pytest.approx(7.5)
    assert layers.call_count(stats, ("sim", "engine.py"), "step") == 1



def test_sampler_scales_by_the_kernel_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(0.01).start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.durations) >= 5 and sampler.spent > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Twice as fast as nominal on one sample, nominal on the other.
    assert speed.speed([speed.NOMINAL_S / 2, speed.NOMINAL_S]) == pytest.approx(1.5)
