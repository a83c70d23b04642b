"""A returned RunResult holds numbers and series, never the simulator.

The run cache, the parallel executor and any caller that keeps results
around would otherwise keep every simulated cluster alive (thousands of
pipes and resources per run) for as long as they keep the result.
"""

import gc
import weakref

import pytest

from repro.chaos.faults import FaultEvent, FaultPlan
from repro.core import runcache
from repro.workflows import driver, run_coupled


@pytest.fixture
def tracked_envs(monkeypatch):
    """Weak references to every Environment the driver builds."""
    refs = []

    class _Tracked(driver.Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(driver, "Environment", _Tracked)
    runcache.clear()
    yield refs
    runcache.clear()


def _assert_all_dead(refs):
    assert refs, "the run built no Environment"
    gc.collect()
    alive = [r for r in refs if r() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} environments still alive"


def test_clean_result_pins_no_simulator(tracked_envs):
    result = run_coupled("titan", "lammps", "dataspaces", nsim=8, nana=4,
                         steps=2)
    assert result.ok
    # the run cache holds the result too; neither may pin the simulator
    assert runcache.CACHE.stats()["entries"] == 1
    _assert_all_dead(tracked_envs)
    assert result.end_to_end > 0
    assert len(result.sim_memory) > 0


def test_fault_plan_result_pins_no_simulator(tracked_envs):
    plan = FaultPlan(events=(FaultEvent("rank_death", after_puts=3),))
    result = run_coupled(
        "titan", "lammps", "flexpath", nsim=8, nana=4, steps=5,
        topology_overrides=dict(sim_ranks_per_node=1, ana_ranks_per_node=1),
        fault_plan=plan,
    )
    assert result.end_to_end > 0
    _assert_all_dead(tracked_envs)
