"""The four benchmark workloads and the checks on their outputs.

Each workload is a list of independent *units* (an experiment, a
Figure 2 sub-sweep, a long-horizon point, a chaos seed).  The seed only
sets the order in which the units run; every unit's outputs are checked
against its own golden or reference, so the order never changes what
is checked.  One *operation* is one simulation point (one
``run_coupled`` call, which is also one chaos cell); a unit that runs
no point, such as a table built from static data, counts as one.

* ``study`` runs ``Study().run()`` over all experiments from a cold run
  cache and compares every table's CSV and JSON bytes with
  ``results/<id>.*``.
* ``fig2_full`` runs Figures 2a and 2b over the paper's full processor
  range; every point is compared with a reference recorded from an
  ``exact`` run (``perfbench/references/fig2_full.json``).
* ``long_horizon`` runs every library on both machines at (256,128)
  ranks for 100 steps, with ``steady+clustered`` requested; references
  come from ``exact`` runs of the same points.
* ``chaos`` runs the fault campaign on its default fork path for seeds
  7 to 14.  Seed 7 is compared with the ``results/chaos_*`` goldens;
  the other seeds point by point with references recorded from
  ``fork=False`` runs.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Callable, Dict, List, Tuple

from repro.core import export, figures
from repro.core.study import Study

from outputs import PointRecorder, compare

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references")

#: the long-horizon point: every library on both machines
LONG_HORIZON_LIBRARIES = ("mpiio", "flexpath", "dataspaces", "dimes", "decaf", "sst")
LONG_HORIZON_MACHINES = ("titan", "cori")
LONG_HORIZON_POINT = dict(workflow="lammps", nsim=256, nana=128, steps=100)

#: the chaos seeds; the first is the one the committed goldens hold
CHAOS_SEEDS = tuple(range(7, 15))
CHAOS_GOLDEN_SEED = 7
CHAOS_TABLES = ("chaos_matrix", "chaos_blast", "chaos_matrix_ext")


def table_mismatch(ident: str, table: Any, goldens: str) -> str:
    """Why ``table`` differs from ``<goldens>/<ident>.csv/.json`` ("" if not)."""
    for ext, render in (("csv", export.to_csv), ("json", export.to_json)):
        path = os.path.join(goldens, f"{ident}.{ext}")
        try:
            with open(path, "rb") as fh:
                expected = fh.read()
        except OSError as exc:
            return f"golden {ident}.{ext} unreadable: {exc}"
        if render(table).encode("utf-8") != expected:
            return f"{ident}.{ext} differs from the golden"
    return ""


class Workload:
    """A seeded order of units, run under a :class:`PointRecorder`."""

    name = ""
    #: whether points are compared with ``references/<name>.json``
    referenced = False

    def __init__(self, seed: str, root: str) -> None:
        self.root = root
        self.units: List[str] = self.unit_labels()
        random.Random(f"{self.name}:{seed}").shuffle(self.units)
        #: unit label -> error raised while running it
        self.errors: Dict[str, str] = {}

    def unit_labels(self) -> List[str]:
        raise NotImplementedError

    def run_unit(self, label: str) -> None:
        raise NotImplementedError

    def run(self, recorder: PointRecorder) -> None:
        for label in self.units:
            recorder.unit = label
            try:
                self.run_unit(label)
            except Exception as exc:  # a failed operation, not a failed benchmark
                self.errors[label] = f"{type(exc).__name__}: {exc}"

    def unit_failure(self, label: str) -> str:
        """Why a unit's outputs are wrong as a whole ("" if they are not)."""
        return ""

    def check(self, recorder: PointRecorder) -> Tuple[int, int, List[str]]:
        """(operations attempted, operations failed, failure messages).

        A point-checked unit must run exactly the points its reference
        lists: each listed point it did not run is a failed operation,
        and so is each point it ran that has no reference.
        """
        references = self.references()
        by_unit: Dict[str, list] = {label: [] for label in self.units}
        for call in recorder.calls:
            by_unit.setdefault(call.unit, []).append(call)
        attempted = failed = 0
        messages: List[str] = []
        for label, calls in by_unit.items():
            checked = references is not None and self.point_checked(label)
            expected = references["units"].get(label, ()) if checked else ()
            missing = sorted(set(expected) - {call.key for call in calls})
            ops = max(1, len(calls) + len(missing))
            attempted += ops
            why = self.errors.get(label) or self.unit_failure(label)
            if checked and label not in references["units"]:
                why = why or "no recorded reference for this unit"
            if why:
                failed += ops
                messages.append(f"{label}: {why}")
                continue
            if not checked:
                continue
            for key in missing:
                failed += 1
                messages.append(f"{label}: {key}: not run")
            points = {key: references["points"][key] for key in expected}
            for call in calls:
                why = compare(call, points)
                if why:
                    failed += 1
                    messages.append(f"{label}: {call.key}: {why}")
        return attempted, failed, messages

    def references(self):
        """``{"points": {key: fingerprint}, "units": {label: [key]}}``,
        or None for a workload checked only against goldens."""
        if not self.referenced:
            return None
        with open(os.path.join(REFERENCES, f"{self.name}.json")) as fh:
            return json.load(fh)

    def point_checked(self, label: str) -> bool:
        """Whether a unit's points are compared with :meth:`references`."""
        return True


class StudyWorkload(Workload):
    name = "study"

    class _Study(Study):
        """The study with its experiments in the workload's order."""

        def __init__(self, order: List[str], hook: Callable) -> None:
            super().__init__()
            self._order = order
            self._hook = hook

        def experiments(self):
            canonical = super().experiments()
            return {ident: self._hook(ident, canonical[ident]) for ident in self._order}

    def unit_labels(self) -> List[str]:
        return list(Study().experiments())

    def run(self, recorder: PointRecorder) -> None:
        def hook(ident, runner):
            def guarded():
                recorder.unit = ident
                try:
                    return runner()
                except Exception as exc:
                    self.errors[ident] = f"{type(exc).__name__}: {exc}"
                    return None
            return guarded

        self.study = self._Study(self.units, hook)
        self.study.run()

    def unit_failure(self, label: str) -> str:
        table = self.study.results.get(label)
        if table is None:
            return "no table"
        return table_mismatch(label, table, os.path.join(self.root, "results"))


class Fig2FullWorkload(Workload):
    name = "fig2_full"
    referenced = True

    def unit_labels(self) -> List[str]:
        return [f"{wf}/{m}" for wf in ("lammps", "laplace") for m in ("titan", "cori")]

    def run_unit(self, label: str) -> None:
        workflow, machine = label.split("/")
        figures.fig2_end_to_end(workflow, machines=(machine,), full=True)


class LongHorizonWorkload(Workload):
    name = "long_horizon"
    referenced = True

    def unit_labels(self) -> List[str]:
        return [f"{lib}/{m}" for lib in LONG_HORIZON_LIBRARIES for m in LONG_HORIZON_MACHINES]

    def run_unit(self, label: str) -> None:
        import repro.workflows

        method, machine = label.split("/")
        repro.workflows.run_coupled(
            machine, method=method, fidelity="steady+clustered", **LONG_HORIZON_POINT
        )


class ChaosWorkload(Workload):
    name = "chaos"
    referenced = True

    def unit_labels(self) -> List[str]:
        return [f"seed{seed}" for seed in CHAOS_SEEDS]

    def __init__(self, seed: str, root: str) -> None:
        super().__init__(seed, root)
        self.tables: Dict[str, Dict[str, Any]] = {}

    def run_unit(self, label: str) -> None:
        from repro.chaos import run_campaign

        self.tables[label] = run_campaign(seed=int(label[4:]))

    def unit_failure(self, label: str) -> str:
        if label != f"seed{CHAOS_GOLDEN_SEED}":
            return ""
        goldens = os.path.join(self.root, "results")
        for ident in CHAOS_TABLES:
            why = table_mismatch(ident, self.tables[label][ident], goldens)
            if why:
                return why
        return ""

    def point_checked(self, label: str) -> bool:
        # Seed 7 is judged by its goldens; the others point by point.
        return label != f"seed{CHAOS_GOLDEN_SEED}"


WORKLOADS = {
    cls.name: cls
    for cls in (StudyWorkload, Fig2FullWorkload, LongHorizonWorkload, ChaosWorkload)
}
