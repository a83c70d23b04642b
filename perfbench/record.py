"""Regenerate the point references the benchmark checks against.

    python3 perfbench/record.py

It writes all three references to ``perfbench/references/``.
``fig2_full`` and ``long_horizon`` run their points with
``fidelity="exact"`` forced on every call; ``chaos`` runs the campaign
for every seed but the golden one with ``fork=False``.  Each reference
maps each point's canonical call key to the fingerprint of its result
(see :mod:`outputs`) under ``"points"``, and lists under ``"units"`` the
points each workload unit runs, so the benchmark can tell when a unit
skips one.  Run it from the root of the repository, on a commit
whose ``results/`` goldens are known good.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from outputs import PointRecorder, fingerprint  # noqa: E402
from workloads import (  # noqa: E402
    CHAOS_GOLDEN_SEED, CHAOS_SEEDS, REFERENCES, WORKLOADS,
)


def record(name: str) -> dict:
    from repro.chaos import run_campaign
    from repro.core import runcache

    runcache.clear()
    if name == "chaos":
        recorder = PointRecorder().install()
        for seed in CHAOS_SEEDS:
            if seed != CHAOS_GOLDEN_SEED:
                recorder.unit = f"seed{seed}"
                run_campaign(seed=seed, fork=False)
    else:
        recorder = PointRecorder(force_fidelity="exact").install()
        workload = WORKLOADS[name]("record", ROOT)
        for label in sorted(workload.units):
            recorder.unit = label
            workload.run_unit(label)
    recorder.uninstall()
    points: dict = {}
    units: dict = {}
    for call in recorder.calls:
        got = fingerprint(call.result)
        if points.setdefault(call.key, got) != got:
            raise SystemExit(f"{name}: one point gave two results: {call.key}")
        units.setdefault(call.unit, set()).add(call.key)
    return {"points": points, "units": {label: sorted(keys) for label, keys in units.items()}}


def main() -> int:
    os.makedirs(REFERENCES, exist_ok=True)
    for name in ("fig2_full", "long_horizon", "chaos"):
        references = record(name)
        path = os.path.join(REFERENCES, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(references['points'])} points -> {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
