"""Unit tests for bandwidth pipes, links and N-to-1 serialization."""

import pytest

from repro.hpc import BandwidthPipe, Link, MB
from repro.sim import Environment
from repro.sim.process import Process


def test_pipe_rate_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthPipe(env, 0)


def test_single_transfer_time():
    env = Environment()
    pipe = BandwidthPipe(env, rate=100.0)

    def proc(env):
        yield env.process(pipe.transmit(50))

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.5)
    assert pipe.bytes_moved == 50


def test_concurrent_transfers_serialize():
    """Two messages through one pipe take twice as long as one."""
    env = Environment()
    pipe = BandwidthPipe(env, rate=100.0)
    finish = []

    def proc(env):
        yield env.process(pipe.transmit(100))
        finish.append(env.now)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert finish == [pytest.approx(1.0), pytest.approx(2.0)]


def test_n_to_1_scales_linearly():
    """The Finding-3 mechanism: N senders into one pipe => N x time."""
    def total_time(n):
        env = Environment()
        pipe = BandwidthPipe(env, rate=1000.0)

        def sender(env):
            yield env.process(pipe.transmit(1000))

        for _ in range(n):
            env.process(sender(env))
        env.run()
        return env.now

    assert total_time(4) == pytest.approx(4 * total_time(1))


def test_link_crosses_both_pipes_plus_latency():
    env = Environment()
    src = BandwidthPipe(env, rate=100.0)
    dst = BandwidthPipe(env, rate=50.0)
    link = Link(env, src, dst, latency=0.25)

    def proc(env):
        yield env.process(link.send(100))

    env.process(proc(env))
    env.run()
    # 0.25 latency + 1.0 through src + 2.0 through dst
    assert env.now == pytest.approx(3.25)


def test_intra_node_link_single_crossing():
    env = Environment()
    bus = BandwidthPipe(env, rate=100.0)
    link = Link(env, bus, bus, latency=0.0)

    def proc(env):
        yield env.process(link.send(100))

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(1.0)


def test_overhead_factor_inflates_bytes():
    env = Environment()
    src = BandwidthPipe(env, rate=100.0)
    dst = BandwidthPipe(env, rate=100.0)
    link = Link(env, src, dst, latency=0.0, overhead_factor=2.0)

    def proc(env):
        yield env.process(link.send(100))

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(4.0)


def test_overhead_factor_below_one_rejected():
    env = Environment()
    pipe = BandwidthPipe(env, rate=1.0)
    with pytest.raises(ValueError):
        Link(env, pipe, pipe, latency=0, overhead_factor=0.5)


def test_negative_transfer_rejected():
    env = Environment()
    pipe = BandwidthPipe(env, rate=1.0)

    def proc(env):
        yield env.process(pipe.transmit(-1))

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


# -- inter-node crossings run inline in the sender ----------------------------

TICKS = 1 << 32  # ticks per simulated second


def _frozen_pipes(env, *rates):
    pipes = [BandwidthPipe(env, rate=r) for r in rates]
    for pipe in pipes:
        pipe.freeze_rate()
    return pipes


def _count_processes(monkeypatch):
    spawned = []
    init = Process.__init__

    def counting_init(self, env, generator):
        spawned.append(generator)
        init(self, env, generator)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return spawned


def test_frozen_send_costs_three_events_and_no_process(monkeypatch):
    """Latency pause + one completion per pipe, driven without a Process."""
    env = Environment()
    src, dst = _frozen_pipes(env, 100.0, 50.0)
    link = Link(env, src, dst, latency=0.25)
    spawned = _count_processes(monkeypatch)

    send = link.send(100)
    event = next(send)
    steps = 0
    while True:
        while event.callbacks is not None:
            env.step()
            steps += 1
        try:
            event = send.send(None)
        except StopIteration:
            break

    assert steps == 3
    assert spawned == []
    assert env.now_tick == int(3.25 * TICKS)
    assert env.peek() == float("inf")


def test_frozen_nic_claim_order_is_triggering_event_order():
    """Arrival at a NIC and departure from it in one tick: first fired
    claims first.

    X sends A -> B (latency 0.5, 100 B = 1 s per pipe) and reaches B's
    NIC at 1.5, woken by A's completion event.  Y sends B -> C (50 B =
    0.5 s per pipe) and leaves B at 1.5 too, woken by its latency pause.
    """

    def run(y_start):
        env = Environment()
        a, b, c = _frozen_pipes(env, 100.0, 100.0, 100.0)
        x_link = Link(env, a, b, latency=0.5)
        y_link = Link(env, b, c, latency=1.5 - y_start)
        done = {}

        def x(env):
            yield from x_link.send(100)
            done["x"] = env.now_tick

        def y(env):
            if y_start:
                yield env.pause(y_start)
            yield from y_link.send(50)
            done["y"] = env.now_tick

        env.process(x(env))
        env.process(y(env))
        env.run()
        return done

    # Y's pause is scheduled at 0, before X's A-completion (scheduled at
    # 0.5): Y holds B over [1.5, 2.0] and C over [2.0, 2.5]; X follows
    # on B over [2.0, 3.0].
    assert run(y_start=0.0) == {"y": int(2.5 * TICKS), "x": int(3.0 * TICKS)}
    # Y's pause is scheduled at 1.0, after X's A-completion: X holds B
    # over [1.5, 2.5]; Y follows on B over [2.5, 3.0] and C over
    # [3.0, 3.5].
    assert run(y_start=1.0) == {"x": int(2.5 * TICKS), "y": int(3.5 * TICKS)}


def test_unfrozen_degrade_applies_only_to_later_grant(monkeypatch):
    """Degrading src while send 1 holds it slows only queued send 2."""
    env = Environment()
    src = BandwidthPipe(env, rate=100.0)
    dst = BandwidthPipe(env, rate=100.0)
    link = Link(env, src, dst, latency=0.0)
    done = []

    def sender(env, tag):
        yield from link.send(100)
        done.append((tag, env.now_tick))

    env.process(sender(env, 1))
    env.process(sender(env, 2))
    spawned = _count_processes(monkeypatch)
    env.at(0.5, lambda: src.degrade(2.0))
    env.run()

    # Send 1: src [0, 1] at the old rate, dst [1, 2].  Send 2 is
    # granted src at 1, after the cut: src [1, 3], dst [3, 4].
    assert done == [(1, 2 * TICKS), (2, 4 * TICKS)]
    assert src.busy_time == 3.0
    assert dst.busy_time == 2.0
    assert spawned == []
