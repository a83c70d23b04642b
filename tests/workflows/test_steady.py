"""Steady-state fast-forward equivalence (``fidelity="steady"``).

The temporal memoization must be invisible in the numbers: whenever the
driver fast-forwards a periodic tail it has to reproduce the exact
run's :class:`RunResult` float for float, and whenever it cannot prove
periodicity it has to fall back to exact and say why in
``RunResult.fidelity_fallback``.
"""

import pytest

from repro.chaos.faults import FaultEvent, FaultPlan, RecoveryPolicy
from repro.core import runcache
from repro.workflows import run_coupled
from repro.workflows.trace import ActivityTrace

from .test_differential import _outputs
from .test_perf_modes import assert_identical, fresh_run

METHODS = ["mpiio", "dataspaces", "dimes", "flexpath", "decaf"]


# --------------------------------------------------- exact reproduction


class TestSteadyEquivalence:
    @pytest.mark.parametrize("machine", ["titan", "cori"])
    @pytest.mark.parametrize("method", METHODS)
    def test_bitwise_equal_to_exact(self, machine, method):
        kwargs = dict(machine=machine, method=method, nsim=32, nana=16,
                      steps=8)
        exact = fresh_run(fidelity="exact", **kwargs)
        steady = fresh_run(fidelity="steady", **kwargs)
        assert exact.fidelity == "exact"
        assert steady.fidelity in ("steady", "exact")
        if steady.fidelity == "exact":
            # declined: the reason must be on record
            assert steady.fidelity_fallback.startswith("steady:")
        assert_identical(exact, steady, ignore=("fidelity",))

    @pytest.mark.parametrize("machine", ["titan", "cori"])
    @pytest.mark.parametrize("method", METHODS)
    def test_composed_equals_exact(self, machine, method):
        kwargs = dict(machine=machine, method=method, nsim=32, nana=16,
                      steps=8)
        exact = fresh_run(fidelity="exact", **kwargs)
        # the old spelling of "steady" still runs the steady rung
        composed = fresh_run(fidelity="steady+clustered", **kwargs)
        assert composed.fidelity in ("steady", "exact")
        if (method, machine) in (("mpiio", "titan"), ("dimes", "cori")):
            # contended paths: the fast-forward must still engage
            assert composed.fidelity == "steady"
        assert_identical(exact, composed, ignore=("fidelity",))

    def test_compute_only_baseline_fast_forwards(self):
        kwargs = dict(machine="titan", method=None, nsim=32, nana=16,
                      steps=8)
        exact = fresh_run(fidelity="exact", **kwargs)
        steady = fresh_run(fidelity="steady", **kwargs)
        assert steady.fidelity == "steady"
        assert steady.fidelity_fallback is None
        assert_identical(exact, steady, ignore=("fidelity",))

    def test_engaged_run_simulates_fewer_events(self):
        # the point of the mode: once the orbit is proven, the tail is
        # replayed arithmetically instead of being simulated
        from repro.sim.engine import Environment

        counts = []
        orig = Environment.step

        def counting(env):
            counts[-1] += 1
            orig(env)

        Environment.step = counting
        try:
            for fidelity in ("exact", "steady"):
                counts.append(0)
                fresh_run(machine="cori", method="flexpath",
                          nsim=32, nana=16, steps=64, fidelity=fidelity)
        finally:
            Environment.step = orig
        exact_events, steady_events = counts
        assert steady_events < exact_events / 2

    def test_long_horizon_stays_identical(self):
        # the Δ-translation replay must stay exact over many skipped
        # steps, not just one
        kwargs = dict(machine="cori", method="dataspaces", nsim=32,
                      nana=16, steps=64)
        exact = fresh_run(fidelity="exact", **kwargs)
        steady = fresh_run(fidelity="steady", **kwargs)
        assert steady.fidelity == "steady"
        assert steady.fidelity_fallback is None
        assert_identical(exact, steady, ignore=("fidelity",))


# ------------------------------------------------------ fallback reasons


class TestSteadyFallbackReasons:
    KW = dict(machine="titan", method="dataspaces", nsim=32, nana=16)

    def test_traced_run_falls_back(self):
        result = fresh_run(fidelity="steady", trace=ActivityTrace(),
                           **self.KW)
        assert result.fidelity == "exact"
        assert result.fidelity_fallback == (
            "steady: traced run records every step"
        )

    def test_faulted_run_falls_back(self):
        plan = FaultPlan(events=(FaultEvent("ost_slow", at=1.0),))
        result = fresh_run(fidelity="steady", fault_plan=plan, **self.KW)
        assert result.fidelity == "exact"
        assert result.fidelity_fallback == (
            "steady: fault injection breaks periodicity"
        )

    def test_recovery_policy_falls_back(self):
        result = fresh_run(
            fidelity="steady",
            recovery=RecoveryPolicy("timeout-abort", timeout=20.0),
            **self.KW,
        )
        assert result.fidelity == "exact"
        assert result.fidelity_fallback == "steady: recovery policy armed"

    def test_too_few_steps_falls_back(self):
        result = fresh_run(fidelity="steady", steps=2, **self.KW)
        assert result.fidelity == "exact"
        assert "steps leave no room" in result.fidelity_fallback

    def test_diverged_orbit_reruns_exact(self, monkeypatch):
        # A confirmed orbit that fails replay-time verification reruns
        # the whole configuration without the fast-forward.
        from repro.workflows import driver

        kwargs = dict(self.KW, method="mpiio", steps=8)
        exact = fresh_run(fidelity="exact", **kwargs)
        assert fresh_run(fidelity="steady", **kwargs).fidelity == "steady"

        def diverge(controller, finish, library):
            raise driver._SteadyDiverged("injected divergence")

        monkeypatch.setattr(driver._SteadyController, "finalize", diverge)
        rerun = fresh_run(fidelity="steady", **kwargs)
        assert rerun.fidelity == "exact"
        assert rerun.fidelity_fallback.startswith("steady: ")
        assert _outputs(rerun) == _outputs(exact)

    def test_fallback_is_cached_like_any_run(self):
        runcache.clear()
        plan = FaultPlan(events=(FaultEvent("ost_slow", at=1.0),))
        run_coupled(fidelity="steady", fault_plan=plan, **self.KW)
        hits_before = runcache.CACHE.hits
        again = run_coupled(fidelity="steady", fault_plan=plan, **self.KW)
        assert runcache.CACHE.hits == hits_before + 1
        assert again.fidelity_fallback == (
            "steady: fault injection breaks periodicity"
        )
