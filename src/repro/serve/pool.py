"""The warm worker pool: resident spawn workers serving submissions.

:class:`repro.exec.pool.WorkerPool` spawns fresh interpreters per
campaign and tears them down with it — correct for a batch CLI, fatal
for a service where interpreter + import start-up (~1 s per worker on
a laptop, worse on a shared login node) would dominate every small
submission.  :class:`WarmPool` lifts the same machinery into a
persistent shape:

* workers are spawned **once**, pre-import :mod:`repro` (registries,
  numpy, the whole simulator) before accepting work, and stay resident
  across submissions, clients and ``Study.run()`` calls;
* the scheduling loop runs on a dedicated thread; :meth:`submit` is
  thread-safe and returns immediately, completion and progress arrive
  via callbacks (the daemon bridges them onto its asyncio loop);
* crash attribution, bounded-backoff retry and quarantine are the
  exact discipline of :mod:`repro.exec.pool` (the worker answers its
  batch front to back, so the first unanswered task is the one that
  died); cheap tasks batch per round-trip with the same cost model;
* workers are **health-checked and recycled**: a worker that has
  completed :attr:`recycle_after` tasks is retired at its next idle
  moment and replaced by a fresh interpreter (bounding any slow leak a
  long-lived simulator process could accumulate), and a crashed worker
  is replaced on reap — the pool never shrinks below its target;
* concurrent identical submissions **single-flight** on the run-cache
  key (:class:`repro.serve.cache.SingleFlight`): one leader simulates,
  followers receive the same outcome object;
* workers count the discrete events their simulations process and
  report them per task, so the daemon's ``stats`` reply can quote
  pool-resident events/sec.

:meth:`shutdown` drains in-flight tasks up to a deadline and then
terminates every worker — the serve daemon routes SIGINT/SIGTERM here,
so stopping a service never orphans spawn processes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..exec.plan import PlannedTask
from ..exec.pool import (
    BATCH_COST_THRESHOLD,
    BATCH_MAX,
    TaskOutcome,
    _execute_spec,
    _task_cost,
    effective_jobs,
)
from .cache import SingleFlight

#: a resident worker retires (and is replaced fresh) after this many
#: completed tasks — the health-check bound on simulator-process aging
RECYCLE_AFTER = 256


def _warm_worker_main(conn, cache_dir: Optional[str]) -> None:
    """Resident worker loop: like exec's, plus warm-up and event counts.

    Everything heavy imports *before* the ready message, so by the time
    the parent sees ``("ready",)`` the worker answers submissions at
    simulation speed — the warm-pool latency win.  Each task's reply
    carries the number of discrete events its simulation processed.
    """
    from ..core import runcache
    from ..sim.engine import Environment
    from ..workflows import run_coupled  # noqa: F401  (pre-import = warm-up)

    if cache_dir:
        runcache.enable_disk(cache_dir)

    counted = {"events": 0}
    original_step = Environment.step

    def counting_step(env) -> None:
        counted["events"] += 1
        original_step(env)

    Environment.step = counting_step
    conn.send(("ready",))
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            return
        if batch is None:
            return
        for task_id, spec, attempt in batch:
            start = time.perf_counter()
            before = counted["events"]
            try:
                result, cache_hit = _execute_spec(spec, attempt)
                conn.send(
                    ("ok", task_id, result, time.perf_counter() - start,
                     cache_hit, counted["events"] - before, None)
                )
            except Exception:
                conn.send(
                    ("error", task_id, None, time.perf_counter() - start,
                     False, counted["events"] - before,
                     traceback.format_exc())
                )


@dataclass
class Submission:
    """One task handed to the pool; resolved exactly once."""

    task: PlannedTask
    on_done: Callable[[TaskOutcome], None]
    on_progress: Optional[Callable[[Dict[str, Any]], None]] = None
    outcome: TaskOutcome = field(init=False)
    cancelled: bool = field(default=False)
    #: True once on_done fired (ok / quarantined / cancelled)
    resolved: bool = field(default=False)
    #: set while a worker is simulating it (cancel then kills the worker)
    worker: Optional["_Resident"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.outcome = TaskOutcome(
            key=self.task.key,
            label=self.task.label(),
            experiments=list(self.task.experiments),
        )


@dataclass
class _Resident:
    ident: int
    proc: multiprocessing.Process
    conn: Any
    ready: bool = False
    #: [(submission, attempt), ...] in ship order, or None when idle
    busy: Optional[List[tuple]] = None
    tasks_done: int = 0


class WarmPool:
    """A persistent, thread-driven pool of warm spawn workers."""

    def __init__(
        self,
        jobs: int,
        cache_dir: Optional[str] = None,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 4.0,
        recycle_after: int = RECYCLE_AFTER,
        batch_cost_threshold: float = BATCH_COST_THRESHOLD,
        batch_max: int = BATCH_MAX,
    ) -> None:
        self.requested_jobs = jobs
        self.effective = effective_jobs(jobs)
        self.cache_dir = cache_dir
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.recycle_after = recycle_after
        self.batch_cost_threshold = batch_cost_threshold
        self.batch_max = batch_max
        self.flight = SingleFlight()

        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._queue: deque = deque()  # of (Submission, attempt)
        self._delayed: List[tuple] = []  # (ready_at, Submission, attempt)
        self._workers: List[_Resident] = []
        self._next_worker_id = 0
        self._wake_r, self._wake_w = os.pipe()
        self._stop = threading.Event()
        self._drain_deadline: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self.started_at: Optional[float] = None

        # -- counters (read by stats(), written by the pool thread) ----
        self.submitted = 0
        self.completed = 0
        self.retries = 0
        self.quarantined = 0
        self.cancelled = 0
        self.worker_cache_hits = 0
        self.events_total = 0
        self.busy_seconds = 0.0
        self.workers_spawned = 0
        self.workers_crashed = 0
        self.workers_recycled = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WarmPool":
        """Spawn every worker now and start the scheduling thread.

        Spawning up-front is the point of a warm pool: the interpreter
        and import cost is paid at service start, not on the first
        client's submission.
        """
        if self._thread is not None:
            raise RuntimeError("pool already started")
        self.started_at = time.monotonic()
        for _ in range(self.effective):
            self._workers.append(self._spawn())
        self._thread = threading.Thread(
            target=self._loop, name="warm-pool", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, drain_seconds: float = 10.0) -> None:
        """Drain in-flight tasks up to the deadline, then terminate.

        Queued (never-started) submissions resolve as ``cancelled``;
        in-flight ones get their full deadline to finish and resolve
        normally.  Idempotent; returns once every worker is reaped.
        """
        if self._thread is None:
            return
        self._drain_deadline = time.monotonic() + max(0.0, drain_seconds)
        self._stop.set()
        self._wake()
        self._thread.join(timeout=drain_seconds + 10.0)
        self._thread = None

    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- submission API (any thread) -----------------------------------

    def submit(
        self,
        task: PlannedTask,
        on_done: Callable[[TaskOutcome], None],
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Submission:
        """Enqueue one task; returns immediately.

        ``on_done`` fires exactly once from the pool thread with the
        final :class:`~repro.exec.pool.TaskOutcome`; ``on_progress``
        sees retry events first.  A task whose run-cache key is already
        in flight coalesces onto the leader (no new simulation) and
        ``on_done`` fires with the leader's outcome.
        """
        submission = Submission(task=task, on_done=on_done, on_progress=on_progress)
        if self._thread is None or self._stop.is_set():
            self._resolve_cancelled(submission)
            return submission
        with self._lock:
            self.submitted += 1
            if not self.flight.begin(
                task.key, follower=lambda outcome: self._follow(submission, outcome)
            ):
                return submission  # follower: resolved when the leader settles
            self._queue.append((submission, 1))
        self._wake()
        return submission

    def run(
        self,
        tasks: Sequence[PlannedTask],
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, TaskOutcome]:
        """Blocking adapter with :class:`repro.exec.pool.WorkerPool`'s
        contract — submit all, wait for all — so
        :func:`repro.exec.execute_parallel` can ride a warm pool via
        its ``runner=`` hook."""
        outcomes: Dict[str, TaskOutcome] = {}
        done = threading.Event()
        remaining = [len(tasks)]
        lock = threading.Lock()

        def finish(outcome: TaskOutcome) -> None:
            with lock:
                outcomes[outcome.key] = outcome
                remaining[0] -= 1
                if remaining[0] <= 0:
                    done.set()

        if not tasks:
            return outcomes
        for task in tasks:
            self.submit(task, on_done=finish, on_progress=progress)
        done.wait()
        return outcomes

    def cancel(self, submission: Submission) -> None:
        """Best-effort cancel: a queued task never starts; an in-flight
        task's worker is killed (the reap path sees the cancel flag and
        resolves ``cancelled`` instead of retrying)."""
        with self._lock:
            submission.cancelled = True
            worker = submission.worker
        if worker is not None and worker.proc.is_alive():
            worker.proc.terminate()
        self._wake()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            alive = sum(1 for w in self._workers if w.proc.is_alive())
            queued = len(self._queue) + len(self._delayed)
            inflight = sum(len(w.busy or ()) for w in self._workers)
        busy = self.busy_seconds
        return dict(
            requested_jobs=self.requested_jobs,
            effective_jobs=self.effective,
            workers_alive=alive,
            workers_spawned=self.workers_spawned,
            workers_crashed=self.workers_crashed,
            workers_recycled=self.workers_recycled,
            recycle_after=self.recycle_after,
            queued=queued,
            inflight=inflight,
            submitted=self.submitted,
            completed=self.completed,
            retries=self.retries,
            quarantined=self.quarantined,
            cancelled=self.cancelled,
            worker_cache_hits=self.worker_cache_hits,
            events_total=self.events_total,
            busy_seconds=round(busy, 3),
            events_per_second_resident=round(self.events_total / busy, 1)
            if busy > 0 else 0.0,
            singleflight=self.flight.stats(),
            uptime_seconds=round(time.monotonic() - self.started_at, 3)
            if self.started_at is not None else 0.0,
        )

    # -- pool thread ---------------------------------------------------

    def _loop(self) -> None:
        while True:
            draining = self._stop.is_set()
            now = time.monotonic()
            with self._lock:
                if not draining:
                    for entry in [d for d in self._delayed if d[0] <= now]:
                        self._delayed.remove(entry)
                        self._queue.append((entry[1], entry[2]))
            self._reap_dead()
            if draining:
                if self._finish_draining():
                    return
            else:
                self._assign()
                self._recycle_idle()
            self._wait(
                timeout=0.05 if self._delayed else 1.0
            )

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _wait(self, timeout: float) -> None:
        with self._lock:
            channels = {w.conn: w for w in self._workers}
            sentinels = {w.proc.sentinel: w for w in self._workers}
        ready = connection.wait(
            list(channels) + list(sentinels) + [self._wake_r], timeout=timeout
        )
        for obj in ready:
            if obj == self._wake_r:
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
                continue
            worker = channels.get(obj)
            if worker is None:
                continue  # a sentinel: the next _reap_dead pass handles it
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                continue  # died mid-send; reap path attributes it
            self._on_message(worker, message)

    def _spawn(self) -> _Resident:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_warm_worker_main,
            args=(child_conn, self.cache_dir),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Resident(ident=self._next_worker_id, proc=proc, conn=parent_conn)
        self._next_worker_id += 1
        self.workers_spawned += 1
        return worker

    def _assign(self) -> None:
        dropped: List[Submission] = []
        try:
            self._assign_locked(dropped)
        finally:
            # Resolve cancelled-before-start submissions outside the
            # lock: on_done callbacks may re-enter submit().
            for submission in dropped:
                self._resolve_cancelled(submission)

    def _assign_locked(self, dropped: List[Submission]) -> None:
        with self._lock:
            for worker in self._workers:
                if not self._queue:
                    return
                if worker.busy is not None or not worker.ready \
                        or not worker.proc.is_alive():
                    continue
                while self._queue and self._queue[0][0].cancelled:
                    dropped.append(self._queue.popleft()[0])
                if not self._queue:
                    return
                batch = [self._queue[0]]
                if _task_cost(batch[0][0].task) < self.batch_cost_threshold:
                    for entry in list(self._queue)[1:self.batch_max]:
                        if entry[0].cancelled or \
                                _task_cost(entry[0].task) >= self.batch_cost_threshold:
                            break
                        batch.append(entry)
                try:
                    worker.conn.send(
                        [(s.task.key, s.task.spec, a) for s, a in batch]
                    )
                except (BrokenPipeError, OSError):
                    continue  # reap path replaces this worker
                for _ in batch:
                    self._queue.popleft()
                worker.busy = list(batch)
                for submission, _ in batch:
                    submission.worker = worker

    def _on_message(self, worker: _Resident, message) -> None:
        if message and message[0] == "ready":
            worker.ready = True
            self._assign()
            return
        status, task_id, result, seconds, cache_hit, events, err = message
        if worker.busy is None:
            return  # stale line from a worker already reaped
        index = next(
            (i for i, (s, _) in enumerate(worker.busy)
             if s.task.key == task_id), 0
        )
        submission, attempt = worker.busy.pop(index)
        if not worker.busy:
            worker.busy = None
        submission.worker = None
        worker.tasks_done += 1
        self.events_total += events
        self.busy_seconds += seconds
        outcome = submission.outcome
        outcome.attempts = attempt
        outcome.seconds += seconds
        if status == "ok":
            outcome.status = "ok"
            outcome.result = result
            outcome.cache_hit = cache_hit
            outcome.error = None
            if cache_hit:
                self.worker_cache_hits += 1
            self._resolve(submission, worker)
            return
        outcome.error = err
        self._retry_or_quarantine(submission, attempt, worker)

    def _reap_dead(self) -> None:
        with self._lock:
            dead = [w for w in self._workers if not w.proc.is_alive()]
        for worker in dead:
            # Drain answers already in the pipe — tasks that did finish.
            try:
                while worker.busy is not None and worker.conn.poll():
                    self._on_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            with self._lock:
                if worker in self._workers:
                    self._workers.remove(worker)
            worker.conn.close()
            worker.proc.join(timeout=1.0)
            self.workers_crashed += 1
            if worker.busy is not None:
                # First unanswered task crashed with the worker; the
                # rest never started and re-queue with no attempt
                # charged (exec's attribution rule).
                (submission, attempt), rest = worker.busy[0], worker.busy[1:]
                worker.busy = None
                submission.worker = None
                if submission.cancelled:
                    self._resolve_cancelled(submission)
                else:
                    submission.outcome.attempts = attempt
                    submission.outcome.error = (
                        f"worker {worker.ident} died (exit code "
                        f"{worker.proc.exitcode}) while running "
                        f"{submission.task.label()}"
                    )
                    self._retry_or_quarantine(submission, attempt, worker)
                with self._lock:
                    for entry in reversed(rest):
                        entry[0].worker = None
                        self._queue.appendleft(entry)
            if not self._stop.is_set():
                with self._lock:
                    self._workers.append(self._spawn())

    def _recycle_idle(self) -> None:
        with self._lock:
            tired = [
                w for w in self._workers
                if w.busy is None and w.ready
                and w.tasks_done >= self.recycle_after
            ]
            for worker in tired:
                self._workers.remove(worker)
        for worker in tired:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.conn.close()
            self.workers_recycled += 1
            with self._lock:
                self._workers.append(self._spawn())

    def _retry_or_quarantine(self, submission, attempt, worker) -> None:
        if submission.cancelled:
            self._resolve_cancelled(submission)
            return
        outcome = submission.outcome
        if attempt >= self.max_attempts:
            outcome.status = "quarantined"
            self.quarantined += 1
            self._resolve(submission, worker)
            return
        self.retries += 1
        backoff = min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)
        with self._lock:
            self._delayed.append(
                (time.monotonic() + backoff, submission, attempt + 1)
            )
        if submission.on_progress is not None:
            submission.on_progress(
                dict(
                    key=outcome.key, label=outcome.label,
                    experiments=outcome.experiments, status="retrying",
                    attempts=outcome.attempts, seconds=outcome.seconds,
                    cache_hit=False, worker=worker.ident, backoff=backoff,
                    error=outcome.error,
                )
            )

    def _resolve(self, submission: Submission, worker) -> None:
        outcome = submission.outcome
        if outcome.status == "ok":
            self.completed += 1
        if submission.on_progress is not None:
            submission.on_progress(
                dict(
                    key=outcome.key, label=outcome.label,
                    experiments=outcome.experiments, status=outcome.status,
                    attempts=outcome.attempts, seconds=outcome.seconds,
                    cache_hit=outcome.cache_hit,
                    worker=getattr(worker, "ident", None), backoff=0.0,
                    error=outcome.error,
                )
            )
        submission.resolved = True
        self.flight.settle(submission.task.key, outcome)
        submission.on_done(outcome)

    def _follow(self, submission: Submission, outcome: TaskOutcome) -> None:
        """A leader settled; deliver its outcome to this follower."""
        submission.outcome = outcome
        submission.resolved = True
        submission.on_done(outcome)

    def _resolve_cancelled(self, submission: Submission) -> None:
        if submission.resolved:
            return
        submission.outcome.status = "cancelled"
        submission.outcome.error = "cancelled"
        submission.resolved = True
        self.cancelled += 1
        self.flight.settle(submission.task.key, submission.outcome)
        submission.on_done(submission.outcome)

    # -- drain ---------------------------------------------------------

    def _finish_draining(self) -> bool:
        """One drain step; True once every worker is gone."""
        with self._lock:
            queued = list(self._queue) + [
                (s, a) for (_, s, a) in self._delayed
            ]
            self._queue.clear()
            self._delayed.clear()
        for submission, _ in queued:
            self._resolve_cancelled(submission)
        deadline = self._drain_deadline or time.monotonic()
        busy = [w for w in self._workers if w.busy is not None]
        if busy and time.monotonic() < deadline:
            return False  # keep waiting for in-flight answers
        # Deadline passed (or nothing in flight): tear everything down.
        for worker in list(self._workers):
            if worker.busy is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in list(self._workers):
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            if worker.busy is not None:
                for submission, _ in worker.busy:
                    submission.worker = None
                    self._resolve_cancelled(submission)
                worker.busy = None
            worker.conn.close()
        self._workers.clear()
        return True
