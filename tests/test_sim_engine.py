"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import (
    EmptySchedule,
    Event,
    Interrupt,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start=100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 5.0


def test_timeout_value_passed_through():
    sim = Simulator()
    seen = []

    def proc(sim):
        v = yield sim.timeout(1.0, value="payload")
        seen.append(v)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(sim, 3.0, "c"))
    sim.process(proc(sim, 1.0, "a"))
    sim.process(proc(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcd")


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return 42

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 42
    assert not p.is_alive


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(4.0)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "child-result"
    assert sim.now == 4.0


def test_run_until_time_stops_early():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=3.0)
    assert sim.now == 3.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_event():
    sim = Simulator()

    def fast(sim):
        yield sim.timeout(1.0)

    def slow(sim):
        yield sim.timeout(100.0)

    p = sim.process(fast(sim))
    sim.process(slow(sim))
    sim.run(until=p)
    assert sim.now == 1.0


def test_run_until_past_raises():
    sim = Simulator(start=50.0)
    with pytest.raises(ValueError):
        sim.run(until=10.0)


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    results = []

    def waiter(sim, ev):
        v = yield ev
        results.append(v)

    def firer(sim, ev):
        yield sim.timeout(5.0)
        ev.succeed("fired")

    sim.process(waiter(sim, ev))
    sim.process(firer(sim, ev))
    sim.run()
    assert results == ["fired"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_failure_propagates_to_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim, ev))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_crashes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_defused_failure_does_not_crash():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("handled elsewhere"))
    ev.defused()
    sim.run()  # should not raise


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_exception_fails_its_event():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "caught inner"


def test_interrupt_wakes_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupt as i:
            log.append(("interrupted", i.cause, sim.now))

    def interrupter(sim, victim):
        yield sim.timeout(7.0)
        victim.interrupt("preempted")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", "preempted", 7.0)]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def worker(sim):
        try:
            yield sim.timeout(50.0)
        except Interrupt:
            pass
        yield sim.timeout(5.0)
        log.append(sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(10.0)
        victim.interrupt()

    victim = sim.process(worker(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [15.0]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    p = sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run()
    assert not p.ok


def test_yield_already_processed_event_continues_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event

    def proc(sim, ev):
        v = yield ev
        return (v, sim.now)

    p = sim.process(proc(sim, ev))
    sim.run()
    assert p.value == ("early", 0.0)


def test_step_on_empty_heap_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_nested_processes_deep_chain():
    sim = Simulator()

    def chain(sim, depth):
        if depth == 0:
            yield sim.timeout(1.0)
            return 0
        sub = yield sim.process(chain(sim, depth - 1))
        return sub + 1

    p = sim.process(chain(sim, 20))
    sim.run()
    assert p.value == 20
    assert sim.now == 1.0


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(float(i % 17))
        done.append(i)

    for i in range(2000):
        sim.process(proc(sim, i))
    sim.run()
    assert len(done) == 2000


def test_process_event_cross_simulator_rejected():
    sim1 = Simulator()
    sim2 = Simulator()

    def proc(sim1, sim2):
        yield sim2.timeout(1.0)

    p = sim1.process(proc(sim1, sim2))
    with pytest.raises(RuntimeError, match="foreign"):
        sim1.run()
    assert not p.ok
