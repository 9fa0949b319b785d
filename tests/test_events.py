"""Unit tests for the event wheel."""

import pytest

from repro.sim.events import EventWheel


def test_events_fire_in_time_order():
    wheel = EventWheel()
    fired = []
    wheel.schedule(5, lambda: fired.append("b"))
    wheel.schedule(1, lambda: fired.append("a"))
    wheel.schedule(9, lambda: fired.append("c"))
    wheel.run()
    assert fired == ["a", "b", "c"]


def test_same_cycle_events_fire_in_schedule_order():
    wheel = EventWheel()
    fired = []
    for tag in range(10):
        wheel.schedule(3, lambda t=tag: fired.append(t))
    wheel.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    wheel = EventWheel()
    seen = []
    wheel.schedule(7, lambda: seen.append(wheel.now))
    wheel.run()
    assert seen == [7]
    assert wheel.now == 7


def test_schedule_during_event_runs_later():
    wheel = EventWheel()
    fired = []

    def first():
        fired.append(("first", wheel.now))
        wheel.schedule(3, lambda: fired.append(("second", wheel.now)))

    wheel.schedule(2, first)
    wheel.run()
    assert fired == [("first", 2), ("second", 5)]


def test_zero_delay_event_fires_same_cycle():
    wheel = EventWheel()
    fired = []
    wheel.schedule(4, lambda: wheel.schedule(0, lambda: fired.append(wheel.now)))
    wheel.run()
    assert fired == [4]


def test_negative_delay_rejected():
    wheel = EventWheel()
    with pytest.raises(ValueError):
        wheel.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    wheel = EventWheel()
    wheel.schedule(10, lambda: None)
    wheel.run()
    with pytest.raises(ValueError):
        wheel.schedule_at(5, lambda: None)


def test_run_until_bound():
    wheel = EventWheel()
    fired = []
    for t in (1, 5, 20):
        wheel.schedule(t, lambda t=t: fired.append(t))
    wheel.run(until=10)
    assert fired == [1, 5]
    assert wheel.pending == 1


def test_run_max_events():
    wheel = EventWheel()
    fired = []
    for t in range(5):
        wheel.schedule(t + 1, lambda t=t: fired.append(t))
    executed = wheel.run(max_events=3)
    assert executed == 3
    assert len(fired) == 3


def test_step_on_empty_wheel_returns_false():
    assert EventWheel().step() is False


def test_advance_on_empty_wheel_returns_zero():
    assert EventWheel().advance() == 0


def test_advance_dispatches_whole_cycle():
    wheel = EventWheel()
    fired = []
    for tag in range(4):
        wheel.schedule(2, lambda t=tag: fired.append(t))
    wheel.schedule(5, lambda: fired.append("later"))
    assert wheel.advance() == 4
    assert fired == [0, 1, 2, 3]
    assert wheel.now == 2
    assert wheel.pending == 1


def test_advance_includes_zero_delay_events_scheduled_mid_batch():
    wheel = EventWheel()
    fired = []

    def first():
        fired.append("first")
        wheel.schedule(0, lambda: fired.append("chained"))

    wheel.schedule(3, first)
    wheel.schedule(3, lambda: fired.append("second"))
    assert wheel.advance() == 3
    assert fired == ["first", "second", "chained"]


def test_batch_dispatch_matches_step_order():
    """advance() must fire the exact sequence per-event step() would."""
    def load(wheel, log):
        for tag in range(6):
            wheel.schedule(1 + tag % 2, lambda t=tag: log.append((wheel.now, t)))
        wheel.schedule(1, lambda: wheel.schedule(0, lambda: log.append((wheel.now, "z"))))
        wheel.schedule(2, lambda: wheel.schedule(3, lambda: log.append((wheel.now, "far"))))

    stepped_wheel, stepped = EventWheel(), []
    load(stepped_wheel, stepped)
    while stepped_wheel.step():
        pass

    batched_wheel, batched = EventWheel(), []
    load(batched_wheel, batched)
    while batched_wheel.advance():
        pass

    assert batched == stepped


def test_rewind_with_pending_events_raises():
    wheel = EventWheel()
    wheel.schedule(4, lambda: None)
    with pytest.raises(RuntimeError, match="pending"):
        wheel.rewind()
    # Quiesce guard also applies mid-drain: an event still queued behind
    # the one executing keeps the wheel non-rewindable.
    wheel.run()
    wheel.schedule(1, lambda: None)

    def mid_drain():
        with pytest.raises(RuntimeError, match="pending"):
            wheel.rewind()

    wheel.schedule(0, mid_drain)
    wheel.run()


def test_rewind_resets_clock_and_preserves_fifo_after_resume():
    wheel = EventWheel()
    fired = []
    for tag in ("a", "b", "c"):
        wheel.schedule(2, lambda t=tag: fired.append(t))
    wheel.run()
    assert fired == ["a", "b", "c"]
    wheel.rewind()
    assert wheel.now == 0
    # Same-cycle FIFO order is unaffected by the rewind.
    for tag in ("d", "e", "f"):
        wheel.schedule(3, lambda t=tag: fired.append(t))
    wheel.run()
    assert fired == ["a", "b", "c", "d", "e", "f"]
    assert wheel.now == 3
