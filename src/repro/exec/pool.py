"""A spawn-safe multiprocessing pool for planned simulation points.

Each worker is a fresh ``spawn`` interpreter: it imports :mod:`repro`
from scratch, so the machine/workflow registries (whose singleton
identity gates the run cache) are rebuilt per worker, and no simulator
state leaks between the parent and its children.  Tasks travel as
canonical ``run_coupled`` kwargs (machines and workflows by name);
results come back as library-stripped :class:`RunResult` objects.

Scheduling is parent-driven over a dedicated pipe per worker.  Long
tasks ship one at a time; *short* tasks (estimated cost below
:data:`BATCH_COST_THRESHOLD`, from the planned variable's byte size)
ship in batches of up to :data:`BATCH_MAX` per round-trip, so the
parent<->worker hand-off latency stops dominating plans full of cheap
points (the ``--jobs 2`` slower than ``--jobs 1`` pathology).  Workers
answer one message per task in batch order, so crash attribution stays
exact: when a worker's process sentinel fires, the batch's first
unanswered task crashed with it and the never-started remainder goes
back to the queue without an attempt charged.  Crashed (or
exception-raising) tasks are retried with bounded exponential backoff
on a replacement worker; a task that keeps failing is **quarantined**
— recorded and skipped — instead of killing the campaign (the serial
replay computes quarantined points in-process).

If ``cache_dir`` is set, every worker attaches the shared on-disk run
cache; its writes are concurrency-safe (unique temp file + atomic
rename, see :mod:`repro.core.runcache`).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from .plan import PlannedTask

#: exit code of a deliberately crashed (poison-marker) worker
_CRASH_EXIT = 13


class PoolInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM hit a live pool and the drain completed.

    Raised *after* the graceful sequence — in-flight tasks drained up
    to the deadline, every worker joined or terminated — so catching it
    (or letting it propagate as a KeyboardInterrupt) never leaves
    orphaned spawn processes behind.  ``outcomes`` holds whatever the
    pool resolved before the signal.
    """

    def __init__(self, signum: int, outcomes: Dict[str, "TaskOutcome"]):
        super().__init__(f"worker pool interrupted by signal {signum}")
        self.signum = signum
        self.outcomes = outcomes

#: a task whose ``variable_nbytes * steps`` estimate falls below this
#: ships batched with its queue neighbours (the pool's round-trip
#: overhead is fixed per message, so cheap simulations amortize it)
BATCH_COST_THRESHOLD = float(10 * (1 << 30))

#: upper bound on tasks per batch, so one worker never hoards the tail
#: of the queue while others idle
BATCH_MAX = 8


def effective_jobs(requested: int) -> int:
    """The worker count actually worth running on this host.

    Spawn workers beyond the CPU count only add interpreter start-up
    and context-switch cost — the ``--jobs 2`` slower than ``--jobs 1``
    regression on single-CPU hosts — so the requested count clamps to
    ``os.cpu_count()``.
    """
    return max(1, min(requested, os.cpu_count() or 1))


def _task_cost(task: PlannedTask) -> float:
    """Estimated simulation cost: staged bytes over the whole run.

    The planned spec carries the resolved variable (the weak-scaled
    default already grows with ``nsim``), so its byte size times the
    step count tracks how much data the simulated run moves — the best
    single predictor of its wall time.  Specs without a variable
    (compute-only baselines) are the cheapest points there are.
    """
    variable = task.spec.get("variable")
    nbytes = getattr(variable, "nbytes", 0) or 0
    return float(nbytes) * task.spec.get("steps", 1)


@dataclass
class TaskOutcome:
    """What happened to one planned task across all its attempts."""

    key: str
    label: str
    experiments: List[str]
    status: str = "pending"  # -> "ok" | "quarantined"
    attempts: int = 0
    #: simulation seconds summed over attempts that reported back
    seconds: float = 0.0
    #: True when the worker answered from the shared disk cache
    cache_hit: bool = False
    result: Optional[Any] = None
    #: last error (traceback text or crash description)
    error: Optional[str] = None

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def _execute_spec(spec: Dict[str, Any], attempt: int):
    """Run one task payload inside a worker.

    Test hooks: a ``"__crash__"`` marker in the spec kills the worker
    process outright — ``True`` on every attempt (a poison task),
    an integer N on attempts <= N (crash then recover) — exercising
    the retry and quarantine paths with real process deaths; a
    ``"__sleep__"`` marker stalls the worker for that many wall
    seconds first, pinning a task in flight for the drain tests.
    """
    spec = dict(spec)
    crash = spec.pop("__crash__", None)
    if crash is True or (isinstance(crash, int) and attempt <= crash):
        os._exit(_CRASH_EXIT)
    nap = spec.pop("__sleep__", 0)
    if nap:
        time.sleep(nap)

    from ..core import runcache
    from ..workflows import run_coupled

    hits_before = runcache.CACHE.hits
    result = run_coupled(**spec)
    cache_hit = runcache.CACHE.hits > hits_before
    return result, cache_hit


def _worker_main(conn, cache_dir: Optional[str]) -> None:
    """Worker loop: receive a batch of (task_id, spec, attempt) entries.

    One outcome message goes back per entry, in batch order — the
    parent relies on that order for crash attribution.
    """
    from ..core import runcache

    if cache_dir:
        runcache.enable_disk(cache_dir)
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            return
        if batch is None:
            return
        for task_id, spec, attempt in batch:
            start = time.perf_counter()
            try:
                result, cache_hit = _execute_spec(spec, attempt)
                conn.send(
                    ("ok", task_id, result, time.perf_counter() - start,
                     cache_hit, None)
                )
            except Exception:
                conn.send(
                    (
                        "error",
                        task_id,
                        None,
                        time.perf_counter() - start,
                        False,
                        traceback.format_exc(),
                    )
                )


@dataclass
class _Worker:
    ident: int
    proc: multiprocessing.Process
    conn: Any
    #: [(task, attempt), ...] currently assigned in ship order, or None
    #: when idle; the worker answers them front to back
    busy: Optional[List[tuple]] = None


@dataclass
class WorkerPool:
    """Run planned tasks across ``jobs`` spawn workers.

    ``jobs`` is the *requested* count; the pool spawns at most
    :func:`effective_jobs` workers (kept in ``self.effective``).
    """

    jobs: int
    cache_dir: Optional[str] = None
    #: total tries per task before quarantine
    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 4.0
    #: called with a progress event dict after every task resolution
    progress: Optional[Callable[[Dict[str, Any]], None]] = None
    #: short-task batching knobs (see module docstring)
    batch_cost_threshold: float = BATCH_COST_THRESHOLD
    batch_max: int = BATCH_MAX
    #: size of every batch shipped during the last :meth:`run`
    batch_sizes: List[int] = field(default_factory=list)
    #: how long a SIGINT/SIGTERM waits for in-flight tasks before
    #: terminating their workers (see :meth:`run`)
    drain_seconds: float = 10.0
    _next_worker_id: int = field(default=0, repr=False)
    _interrupted: Optional[int] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.effective = effective_jobs(self.jobs)

    def run(self, tasks: Sequence[PlannedTask]) -> Dict[str, TaskOutcome]:
        """Execute ``tasks``; returns key -> :class:`TaskOutcome`.

        While the pool is live, SIGINT and SIGTERM are handled
        gracefully (main thread only): assignment stops, in-flight
        tasks drain for up to ``drain_seconds``, every worker is then
        joined or terminated, and :class:`PoolInterrupted` carries the
        partial outcomes out — Ctrl-C never orphans a spawn process.
        """
        outcomes = {
            t.key: TaskOutcome(key=t.key, label=t.label(), experiments=list(t.experiments))
            for t in tasks
        }
        if not tasks:
            return outcomes
        self.batch_sizes = []
        self._interrupted = None
        ctx = multiprocessing.get_context("spawn")
        pending = deque((t, 1) for t in tasks)  # (task, attempt number)
        delayed: List[tuple] = []  # (ready_at, task, attempt)
        resolved = 0
        workers: List[_Worker] = [
            self._spawn(ctx) for _ in range(min(self.effective, len(tasks)))
        ]
        restore = self._install_signal_handlers()
        try:
            while resolved < len(tasks):
                if self._interrupted is not None:
                    self._drain(workers, delayed, outcomes)
                    raise PoolInterrupted(self._interrupted, outcomes)
                now = time.monotonic()
                for entry in [d for d in delayed if d[0] <= now]:
                    delayed.remove(entry)
                    pending.append((entry[1], entry[2]))
                self._assign(pending, workers)
                resolved += self._poll(
                    workers, pending, delayed, outcomes, ctx,
                    timeout=0.05 if delayed else 0.5,
                )
        finally:
            self._shutdown(workers)
            for signum, handler in restore:
                signal.signal(signum, handler)
        return outcomes

    # -- graceful shutdown ---------------------------------------------

    def _install_signal_handlers(self) -> List[tuple]:
        """Route SIGINT/SIGTERM into the drain path; returns what to
        restore.  Only the main thread may (or need) install handlers —
        a pool driven from a helper thread relies on its host's own
        signal story (the serve daemon has one)."""
        if threading.current_thread() is not threading.main_thread():
            return []
        restore = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous = signal.signal(
                signum, lambda s, frame: self._request_stop(s)
            )
            restore.append((signum, previous))
        return restore

    def _request_stop(self, signum: int) -> None:
        self._interrupted = signum

    def _drain(self, workers, delayed, outcomes) -> None:
        """Stop assigning, let in-flight tasks finish, enforce the
        deadline.  Retries scheduled for later are abandoned (their
        outcomes stay pending)."""
        delayed.clear()
        deadline = time.monotonic() + self.drain_seconds
        while any(w.busy is not None for w in workers):
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                break
            busy = [w for w in workers if w.busy is not None and w.proc.is_alive()]
            if not busy:
                break
            ready = connection.wait([w.conn for w in busy], timeout=min(timeout, 0.5))
            for conn_obj in ready:
                worker = next(w for w in busy if w.conn is conn_obj)
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    worker.busy = None
                    continue
                self._finish(worker, message, delayed, outcomes)
                delayed.clear()  # a drain never reschedules

    # -- internals -----------------------------------------------------

    def _spawn(self, ctx) -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.cache_dir),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(ident=self._next_worker_id, proc=proc, conn=parent_conn)
        self._next_worker_id += 1
        return worker

    def _assign(self, pending, workers: List[_Worker]) -> None:
        for worker in workers:
            if not pending:
                return
            if worker.busy is not None or not worker.proc.is_alive():
                continue
            # A long task ships alone; consecutive short tasks ship
            # together (the plan is sorted big-first, so the cheap tail
            # batches naturally).
            batch = [pending[0]]
            if _task_cost(pending[0][0]) < self.batch_cost_threshold:
                for entry in list(pending)[1:self.batch_max]:
                    if _task_cost(entry[0]) >= self.batch_cost_threshold:
                        break
                    batch.append(entry)
            try:
                worker.conn.send([(t.key, t.spec, a) for t, a in batch])
            except (BrokenPipeError, OSError):
                continue  # the sentinel poll below reaps this worker
            for _ in batch:
                pending.popleft()
            worker.busy = list(batch)
            self.batch_sizes.append(len(batch))

    def _poll(
        self, workers, pending, delayed, outcomes, ctx, timeout: float
    ) -> int:
        """Wait for results or deaths; returns tasks newly resolved."""
        resolved = 0
        # Reap anything that died since the last poll — such a worker
        # is in neither wait set below and would otherwise leak its
        # in-flight task.
        for worker in [w for w in workers if not w.proc.is_alive()]:
            resolved += self._reap(worker, workers, pending, delayed, outcomes, ctx)
        if not workers:
            if pending or delayed:
                workers.append(self._spawn(ctx))
            return resolved
        channels = {w.conn: w for w in workers}
        sentinels = {w.proc.sentinel: w for w in workers}
        ready = connection.wait(
            list(channels) + list(sentinels), timeout=timeout
        )
        dead: List[_Worker] = []
        for obj in ready:
            worker = channels.get(obj)
            if worker is not None:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    dead.append(worker)
                    continue
                resolved += self._finish(worker, message, delayed, outcomes)
            else:
                dead.append(sentinels[obj])
        for worker in dead:
            resolved += self._reap(worker, workers, pending, delayed, outcomes, ctx)
        return resolved

    def _finish(self, worker: _Worker, message, delayed, outcomes) -> int:
        status, task_id, result, seconds, cache_hit, error = message
        # The worker answers its batch front to back; tolerate gaps
        # defensively by matching on the task id.
        index = next(
            (i for i, (t, _) in enumerate(worker.busy) if t.key == task_id), 0
        )
        task, attempt = worker.busy.pop(index)
        if not worker.busy:
            worker.busy = None
        outcome = outcomes[task_id]
        outcome.attempts = attempt
        outcome.seconds += seconds
        if status == "ok":
            outcome.status = "ok"
            outcome.result = result
            outcome.cache_hit = cache_hit
            outcome.error = None
            self._emit(outcome, worker)
            return 1
        outcome.error = error
        return self._retry_or_quarantine(task, attempt, delayed, outcomes, worker)

    def _reap(self, worker, workers, pending, delayed, outcomes, ctx) -> int:
        """A worker died: salvage any last message, retry its task."""
        if worker not in workers:
            return 0
        workers.remove(worker)
        resolved = 0
        # Drain messages that were already in the pipe when it died —
        # the task may in fact have completed.
        try:
            while worker.busy is not None and worker.conn.poll():
                resolved += self._finish(worker, worker.conn.recv(), delayed, outcomes)
        except (EOFError, OSError):
            pass
        worker.conn.close()
        worker.proc.join(timeout=1.0)
        if worker.busy is not None:
            # The batch's first unanswered task is the one that crashed;
            # the rest never started, so they re-queue with no attempt
            # charged.
            (task, attempt), rest = worker.busy[0], worker.busy[1:]
            worker.busy = None
            outcome = outcomes[task.key]
            outcome.attempts = attempt
            outcome.error = (
                f"worker {worker.ident} died (exit code {worker.proc.exitcode}) "
                f"while running {task.label()}"
            )
            resolved += self._retry_or_quarantine(
                task, attempt, delayed, outcomes, worker
            )
            pending.extendleft(reversed(rest))
        unresolved = sum(1 for o in outcomes.values() if o.status == "pending")
        if unresolved > len(workers):
            workers.append(self._spawn(ctx))
        return resolved

    def _retry_or_quarantine(self, task, attempt, delayed, outcomes, worker) -> int:
        outcome = outcomes[task.key]
        if attempt >= self.max_attempts:
            outcome.status = "quarantined"
            self._emit(outcome, worker)
            return 1
        backoff = min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)
        delayed.append((time.monotonic() + backoff, task, attempt + 1))
        self._emit(outcome, worker, retrying=True, backoff=backoff)
        return 0

    def _emit(self, outcome: TaskOutcome, worker, retrying=False, backoff=0.0):
        if self.progress is None:
            return
        self.progress(
            dict(
                key=outcome.key,
                label=outcome.label,
                experiments=outcome.experiments,
                status="retrying" if retrying else outcome.status,
                attempts=outcome.attempts,
                seconds=outcome.seconds,
                cache_hit=outcome.cache_hit,
                worker=worker.ident,
                backoff=backoff,
                error=outcome.error,
            )
        )

    def _shutdown(self, workers: List[_Worker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.conn.close()
