"""Worker pool: parallel correctness, crash retry, quarantine, cache."""

import os

import pytest

from repro.core import runcache
from repro.exec.plan import PlannedTask
from repro.exec.pool import WorkerPool, effective_jobs
from repro.workflows import run_coupled

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(autouse=True)
def clean_cache():
    runcache.clear()
    yield
    runcache.clear()


def baseline_spec(nsim, **extra):
    """A compute-only baseline: the cheapest real simulation."""
    spec = dict(machine="titan", workflow="lammps", method=None,
                nsim=nsim, nana=max(1, nsim // 2), steps=1)
    spec.update(extra)
    return spec


def task(key, spec):
    return PlannedTask(key=key, spec=spec, experiments=["t"], refs=1)


class TestEffectiveJobs:
    def test_clamps_to_cpu_count(self):
        cores = os.cpu_count() or 1
        assert effective_jobs(10 * cores + 1) == cores

    def test_small_requests_pass_through(self):
        assert effective_jobs(1) == 1

    def test_never_below_one(self):
        assert effective_jobs(0) == 1
        assert effective_jobs(-3) == 1

    def test_pool_records_effective(self):
        pool = WorkerPool(jobs=10 * (os.cpu_count() or 1))
        assert pool.effective == (os.cpu_count() or 1)


class TestPoolExecution:
    def test_parallel_results_match_serial(self):
        specs = {f"k{n}": baseline_spec(n) for n in (2, 3, 4)}
        serial = {}
        for key, spec in specs.items():
            serial[key] = run_coupled(**spec).end_to_end
        runcache.clear()

        pool = WorkerPool(jobs=2)
        outcomes = pool.run([task(k, s) for k, s in specs.items()])
        assert all(o.status == "ok" for o in outcomes.values())
        for key, outcome in outcomes.items():
            assert outcome.result.end_to_end == serial[key]
            assert outcome.attempts == 1

    def test_empty_task_list(self):
        assert WorkerPool(jobs=2).run([]) == {}

    def test_crash_is_retried_then_succeeds(self):
        events = []
        pool = WorkerPool(jobs=2, backoff_base=0.05, progress=events.append)
        outcomes = pool.run([
            task("crashy", baseline_spec(2, __crash__=1)),
            task("fine", baseline_spec(3)),
        ])
        crashy = outcomes["crashy"]
        assert crashy.status == "ok"
        assert crashy.attempts == 2
        assert crashy.retried
        assert crashy.result.end_to_end > 0
        assert outcomes["fine"].status == "ok"
        assert any(e["status"] == "retrying" for e in events)

    def test_poison_task_is_quarantined_not_fatal(self):
        pool = WorkerPool(jobs=2, max_attempts=2, backoff_base=0.05)
        outcomes = pool.run([
            task("poison", baseline_spec(2, __crash__=True)),
            task("fine", baseline_spec(3)),
        ])
        poison = outcomes["poison"]
        assert poison.status == "quarantined"
        assert poison.attempts == 2
        assert poison.result is None
        assert "died" in poison.error
        # the campaign survived: the healthy task completed
        assert outcomes["fine"].status == "ok"

    def test_worker_exception_is_retried_then_quarantined(self):
        bad = dict(machine="titan", workflow="lammps", method=None,
                   nsim=2, nana=1, steps=1, no_such_kwarg=True)
        pool = WorkerPool(jobs=1, max_attempts=2, backoff_base=0.05)
        outcomes = pool.run([task("bad", bad)])
        assert outcomes["bad"].status == "quarantined"
        assert outcomes["bad"].attempts == 2
        assert "TypeError" in outcomes["bad"].error

    def test_workers_share_the_disk_cache(self, tmp_path):
        spec = baseline_spec(2)
        first = WorkerPool(jobs=1, cache_dir=str(tmp_path)).run(
            [task("k", spec)]
        )["k"]
        assert not first.cache_hit
        assert list(tmp_path.glob("*.pkl"))
        second = WorkerPool(jobs=1, cache_dir=str(tmp_path)).run(
            [task("k", spec)]
        )["k"]
        assert second.cache_hit
        assert second.result.end_to_end == first.result.end_to_end
