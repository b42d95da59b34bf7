"""The engine dispatch frontier: callback timers, pooling, batching.

Covers the fast paths introduced for raw event throughput — the
``call_at``/``call_after``/``call_soon`` callback-timer primitives, the
``Timeout``/``CallbackTimer`` free lists, and batched same-instant
dispatch — plus the ordering contracts those paths rely on (FIFO
tie-break, URGENT before NORMAL, split-run equivalence) and the engine
bugfixes shipped alongside (``call_at`` identity-guarded cleanup,
late-child-failure defusing, ``Interrupt().cause`` without args).
"""

import pytest

from repro.sim import CallbackTimer, Event, Interrupt, Simulator
from repro.sim.events import EngineProfile, Timeout


# -- callback-timer primitives -------------------------------------------------

def test_call_after_fires_fn_with_arg():
    sim = Simulator()
    seen = []
    sim.call_after(3.0, seen.append, "hello")
    sim.run()
    assert seen == ["hello"]
    assert sim.now == 3.0


def test_call_after_default_arg_is_none():
    sim = Simulator()
    seen = []
    sim.call_after(1.0, seen.append)
    sim.run()
    assert seen == [None]


def test_call_after_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_after(-1.0, lambda _a: None)


def test_call_at_coalesces_same_timestamp():
    sim = Simulator()
    seen = []
    t1 = sim.call_at(5.0, lambda _a: seen.append("first"))
    t2 = sim.call_at(5.0, lambda _a: seen.append("second"))
    assert t1 is t2  # one shared timer, one heap entry
    sim.run()
    assert seen == ["first", "second"]  # registration order


def test_call_at_in_the_past_fires_now():
    sim = Simulator(start=10.0)
    seen = []
    sim.call_at(3.0, seen.append, "late")
    sim.run()
    assert seen == ["late"]
    assert sim.now == 10.0


def test_call_soon_runs_before_normal_events_at_same_instant():
    sim = Simulator()
    order = []
    sim.call_after(0.0, lambda _a: order.append("normal"))
    sim.call_soon(lambda _a: order.append("urgent"))
    sim.run()
    assert order == ["urgent", "normal"]


def test_timer_registry_key_removed_before_callbacks_run():
    # A callback firing at instant T that asks for a NEW timer at key T
    # must get a fresh one, not the timer currently dispatching.
    sim = Simulator()
    seen = {}

    def register_again(_a):
        seen["successor"] = sim.call_at(2.0, lambda _x: seen.setdefault("fired", sim.now))

    first = sim.call_at(2.0, register_again)
    sim.run()
    assert seen["successor"] is not first
    assert seen["fired"] == 2.0


# -- bugfix: call_at cleanup identity guard ----------------------------------

def test_call_at_successor_not_evicted_by_stale_cleanup():
    """A successor timer registered under a reused timestamp key must
    survive the predecessor's cleanup (the dict-aliasing pitfall): the
    cleanup checks identity before popping the key.  Without the check
    the predecessor's dispatch blindly pops the key, so the successor is
    evicted while still pending and later same-key callers get a THIRD
    timer instead of sharing the live one.
    """
    sim = Simulator()
    seen = {}

    def hijack(_a):
        # Simulate the alias: the key vanishes (e.g. an earlier cleanup
        # path) and a successor registers under the same timestamp while
        # the predecessor's timer is still about to dispatch its cleanup.
        del sim._wakeups[5.0]
        seen["successor"] = sim.call_at(5.0, lambda _x: None)

    sim.call_at(5.0, lambda _a: seen.setdefault(
        "shared", sim.call_at(5.0, lambda _x: None)))
    sim.call_after(4.0, hijack)
    sim.run()
    # After the first timer fires (and cleans up), a same-instant caller
    # must share the still-pending successor — not get a fresh third one.
    assert seen["shared"] is seen["successor"]


def test_unwaited_failure_still_crashes_the_run():
    # A genuinely unwaited failure must surface.
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("nobody is waiting")

    sim.process(boom(sim))
    with pytest.raises(RuntimeError, match="nobody is waiting"):
        sim.run()


# -- bugfix: Interrupt().cause without args -----------------------------------

def test_interrupt_cause_none_when_constructed_bare():
    assert Interrupt().cause is None


def test_interrupt_cause_roundtrip():
    assert Interrupt("reason").cause == "reason"


def test_interrupt_without_cause_through_process():
    sim = Simulator()
    seen = {}

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            seen["cause"] = exc.cause

    p = sim.process(sleeper(sim))

    def interruptor(sim):
        yield sim.timeout(1.0)
        p.interrupt()

    sim.process(interruptor(sim))
    sim.run()
    assert seen["cause"] is None


# -- ordering contracts --------------------------------------------------------

def test_fifo_tie_break_among_same_instant_same_priority():
    sim = Simulator()
    order = []
    for i in range(8):
        sim.call_after(2.0, order.append, i)
    sim.run()
    assert order == list(range(8))


def test_fifo_tie_break_mixed_timeout_and_timer():
    sim = Simulator()
    order = []
    sim.timeout(1.0).callbacks.append(lambda _e: order.append("timeout-a"))
    sim.call_after(1.0, lambda _a: order.append("timer"))
    sim.timeout(1.0).callbacks.append(lambda _e: order.append("timeout-b"))
    sim.run()
    assert order == ["timeout-a", "timer", "timeout-b"]


def test_urgent_before_normal_at_same_instant():
    sim = Simulator()
    order = []
    sim.call_after(0.0, lambda _a: order.append("n1"))
    sim.call_after(0.0, lambda _a: order.append("n2"))
    # Registered LAST but URGENT: must still dispatch before the NORMAL
    # events sharing the instant.
    sim.call_soon(lambda _a: order.append("urgent"))
    sim.run()
    assert order == ["urgent", "n1", "n2"]


def test_split_run_equals_uninterrupted_run():
    def build():
        sim = Simulator()
        order = []

        def worker(sim, tag):
            for i in range(3):
                yield sim.timeout(1.5)
                order.append((tag, i, sim.now))

        sim.process(worker(sim, "a"))
        sim.process(worker(sim, "b"))
        sim.call_at(3.0, lambda _x: order.append(("timer", 3.0, sim.now)))
        return sim, order

    sim1, order1 = build()
    sim1.run()

    sim2, order2 = build()
    sim2.run(until=2.0)
    assert sim2.now == 2.0
    sim2.run(until=3.0)
    sim2.run()

    assert order1 == order2
    assert sim1.now == sim2.now
    assert sim1.events_processed == sim2.events_processed


# -- pooling -------------------------------------------------------------------

def test_timeout_pool_recycles_process_sleeps():
    sim = Simulator()

    def sleeper(sim):
        for _ in range(50):
            yield sim.timeout(1.0)

    sim.process(sleeper(sim))
    sim.profile = EngineProfile()
    sim.run()
    # The resume allocates the next sleep *before* the fired timeout is
    # recycled, so steady state alternates between exactly two objects:
    # 50 sleeps cost 2 allocations and 48 pool hits.
    assert sim.profile.timeout_pool_reuses == 48
    assert len(sim._timeout_pool) == 2


def test_timeout_with_extra_callback_is_not_pooled():
    sim = Simulator()
    kept = []

    def sleeper(sim):
        t = sim.timeout(1.0)
        t.callbacks.append(lambda _e: None)  # second waiter
        kept.append(t)
        yield t

    sim.process(sleeper(sim))
    sim.run()
    assert not sim._timeout_pool  # multi-waiter timeouts keep their identity
    assert kept[0].processed


def test_pooled_timeout_value_reset():
    sim = Simulator()
    values = []

    def proc(sim):
        got = yield sim.timeout(1.0, "first")
        values.append(got)
        got = yield sim.timeout(1.0)  # recycled object, no stale value
        values.append(got)

    sim.process(proc(sim))
    sim.run()
    assert values == ["first", None]


def test_timer_pool_recycles_callback_timers():
    sim = Simulator()
    fired = []

    def tick(i):
        fired.append(i)
        if i < 20:
            sim.call_after(1.0, tick, i + 1)

    sim.call_after(1.0, tick, 1)
    sim.profile = EngineProfile()
    sim.run()
    assert fired == list(range(1, 21))
    # Each tick re-arms before its own timer is recycled, so the cadence
    # alternates between two pooled objects: 20 fires, 18 pool hits.
    assert sim.profile.timer_pool_reuses == 18
    assert len(sim._timer_pool) == 2


def test_pooling_disabled_keeps_no_free_lists():
    sim = Simulator(pooling=False)

    def sleeper(sim):
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(sleeper(sim))
    sim.call_after(2.0, lambda _a: None)
    sim.call_after(4.0, lambda _a: None)
    sim.run()
    assert sim._timeout_pool == []
    assert sim._timer_pool == []


# -- batched dispatch ----------------------------------------------------------

def test_batch_processes_all_same_instant_events():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_after(1.0, seen.append, i)
    sim.profile = EngineProfile()
    sim.run()
    assert seen == list(range(10))
    assert sim.events_processed == 10
    # One batch of 10 (bucket 16).
    assert sim.profile.batches == 1
    assert sim.profile.batch_size_hist == {16: 1}


def test_batch_respects_priority_boundary():
    sim = Simulator()
    order = []

    def arm_urgent(_a):
        order.append("n1")
        sim.call_soon(lambda _x: order.append("urgent"))

    sim.call_after(1.0, arm_urgent)
    sim.call_after(1.0, lambda _a: order.append("n2"))
    sim.run()
    # Strict heap order: the URGENT event scheduled mid-instant jumps
    # ahead of the remaining NORMAL events — batching must break at the
    # priority boundary rather than drain the NORMAL run to completion.
    assert order == ["n1", "urgent", "n2"]


def test_run_until_event_stops_mid_batch():
    sim = Simulator()
    seen = []
    sim.call_after(1.0, seen.append, "before")
    stop = sim.event()

    def fire_stop(_a):
        stop.succeed()
        # Scheduled after `stop` got its heap slot: same instant, higher
        # counter — must NOT run before the until-event halts the run.
        sim.call_after(0.0, seen.append, "after")

    sim.call_after(1.0, fire_stop)
    sim.run(until=stop)
    assert seen == ["before"]
    sim.run()
    assert seen == ["before", "after"]


def test_run_until_deadline_advances_time_between_batches():
    sim = Simulator()
    seen = []
    sim.call_after(1.0, seen.append, 1)
    sim.call_after(5.0, seen.append, 5)
    done = sim.run_until(sim.event(), deadline=3.0)
    assert done is False
    assert sim.now == 3.0
    assert seen == [1]


def test_step_remains_single_event():
    sim = Simulator()
    seen = []
    sim.call_after(1.0, seen.append, "a")
    sim.call_after(1.0, seen.append, "b")
    sim.step()
    assert seen == ["a"]
    sim.step()
    assert seen == ["a", "b"]


# -- profile evidence ----------------------------------------------------------

def test_profile_counts_callback_timer_fires():
    sim = Simulator()
    sim.profile = EngineProfile()
    sim.call_after(1.0, lambda _a: None)
    sim.call_at(2.0, lambda _a: None)
    sim.call_at(2.0, lambda _a: None)  # coalesced: same timer
    sim.run()
    assert sim.profile.callback_timer_fires == 2
    assert sim.profile.timer_callbacks_run == 3
    d = sim.profile.as_dict()
    assert d["callback_timer_fires"] == 2
    assert "batch_size_hist" in d
