"""Measure how fast the host runs Python right now, to scale timings by.

The benchmark's host is shared, and the speed at which it runs the same
code drifts by a factor of up to two, over seconds and over hours
(``README.md``, "Noise and bounds").  Averaging inside one run removes
the fast part of that drift but not the slow part, so times from runs
made half an hour apart disagree by more than any bound could allow.

So the benchmark times a fixed *reference kernel* alongside the
program and reports every time scaled to the kernel's nominal speed::

    scaled = measured * mean(NOMINAL_S / kernel_duration)

The mean of per-sample speed ratios is the host's mean speed over the
sampled interval, which is what scales elapsed time to work done.  The
kernel is frozen: it is the benchmark's yardstick, so a change to the
program moves the scaled times while a change of host speed does not.
It mixes what the program spends its time on: a small discrete-event
loop of generator processes over a heap calendar and a FIFO resource,
and small numpy array operations.

:class:`Sampler` times the kernel from a timer signal while set-up or
a pass runs.  The kernel is timed in CPU time, and the samples are
taken in the benchmark's own process only: a forked child, which does
not inherit the timer, is taken to run at the speed its parent sees.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

import numpy

#: the reference kernel's duration at the nominal speed (seconds)
NOMINAL_S = 0.002
#: seconds between two samples during a pass
PERIOD_S = 0.1
#: seconds of back-to-back samples when a sampler took none
BURST_S = 0.05


class _Event:
    __slots__ = ("waiters",)

    def __init__(self) -> None:
        self.waiters: list = []


def _des(procs: int = 8, steps: int = 40) -> int:
    """A small discrete-event loop: processes share a two-slot resource."""
    calendar: list = []
    clock = [0, 0]  # now, schedule sequence
    free = [2]
    queue: list = []
    done = {}

    def schedule(event: _Event, delay: int) -> None:
        clock[1] += 1
        heapq.heappush(calendar, (clock[0] + delay, clock[1], event))

    def process(pid: int):
        for k in range(steps):
            yield _Event(), (pid * 7 + k) % 5 + 1
            if free[0]:
                free[0] -= 1
            else:
                grant = _Event()
                queue.append(grant)
                yield grant, None
            yield _Event(), (pid + k) % 3 + 1
            if queue:
                schedule(queue.pop(0), 0)
            else:
                free[0] += 1
            done[pid] = done.get(pid, 0) + 1

    def advance(gen) -> None:
        try:
            event, delay = next(gen)
        except StopIteration:
            return
        event.waiters.append(gen)
        if delay is not None:
            schedule(event, delay)

    for pid in range(procs):
        advance(process(pid))
    while calendar:
        clock[0], _, event = heapq.heappop(calendar)
        for gen in event.waiters:
            advance(gen)
    return sum(done.values())


def _arrays(rounds: int = 300) -> int:
    """Small numpy operations of the size the staging models use."""
    base = numpy.arange(64, dtype=numpy.int64)
    total = 0
    for i in range(rounds):
        total += int(numpy.maximum(base + i, base * 2).sum())
    return total


def kernel() -> float:
    """Run the reference kernel once and return its duration (seconds).

    The duration is the thread's CPU time, so that a process which the
    guest's scheduler runs in turn with another (a forked chaos child
    on a busy CPU) does not read as a slow host.
    """
    start = time.thread_time()
    _des()
    _arrays()
    return time.thread_time() - start


def speed(durations: List[float]) -> float:
    """The mean speed over ``durations``, as a share of the nominal speed."""
    return sum(NOMINAL_S / d for d in durations) / len(durations)


def burst(seconds: float) -> List[float]:
    """Kernel durations, timed back to back for about ``seconds``."""
    durations = [kernel()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        durations.append(kernel())
    return durations


class Sampler:
    """Times the kernel from a timer signal, every ``PERIOD_S`` seconds.

    ``spent`` is the wall time the samples took, to be taken out of
    the measured wall and CPU time.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.durations: List[float] = []
        self.spent = 0.0
        self._armed = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.durations.append(kernel())
        self.spent += time.perf_counter() - start

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._armed = True
        return self

    def stop(self) -> None:
        """Stop sampling; a sampler that never started does nothing."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._armed = False

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def speed(self) -> float:
        """The mean speed over the samples (a burst if there are none)."""
        return speed(self.durations or burst(BURST_S))
