"""The C event wheel is a twin of the pure-Python reference: random
programs of scheduling, dispatch and rewinds see the same fire order,
clock, pending counts, return values and errors on both."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import events
from repro.sim.events import EventWheel, PythonEventWheel

needs_c_wheel = pytest.mark.skipif(events._kernel is None,
                                   reason="the C wheel kernel did not build")

FAR = 2 ** 40

#: a callback: (raises after scheduling its children, [(delay, child)])
callbacks = st.recursive(
    st.tuples(st.booleans(), st.just(())),
    lambda child: st.tuples(
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 3), child), max_size=3)),
    max_leaves=6)

delays = st.one_of(st.integers(-2, 5), st.integers(6, FAR))
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, callbacks),
    st.tuples(st.just("schedule_at"), delays, callbacks),  # now + offset
    st.tuples(st.just("step")),
    st.tuples(st.just("advance")),
    st.tuples(st.just("run"), st.none() | st.integers(-2, 12),
              st.none() | st.integers(0, 8)),
    st.tuples(st.just("rewind")),
)
programs = st.lists(operations, max_size=30)


class Boom(Exception):
    pass


def play(wheel_class, program):
    """Run ``program`` on a fresh wheel; everything observable, in order."""
    wheel = wheel_class()
    tags = itertools.count()
    seen = []       # the ``now`` object each callback of one operation read
    trace = []

    def make(spec):
        raises, children = spec
        tag = next(tags)

        def callback():
            now = wheel.now
            assert now is wheel.now
            seen.append(now)
            trace.append(("fire", tag, now, wheel.pending))
            for delay, child in children:
                wheel.schedule(delay, make(child))
            if raises:
                raise Boom(tag)

        return callback

    for op in (*program, ("run", None, None)):
        seen.clear()
        try:
            if op[0] == "schedule":
                outcome = wheel.schedule(op[1], make(op[2]))
            elif op[0] == "schedule_at":
                outcome = wheel.schedule_at(wheel.now + op[1], make(op[2]))
            elif op[0] == "run":
                until = None if op[1] is None else wheel.now + op[1]
                outcome = wheel.run(until, op[2])
            else:
                outcome = getattr(wheel, op[0])()
        except (Boom, ValueError, RuntimeError) as exc:
            outcome = (type(exc).__name__, str(exc))
        if op[0] in ("step", "advance"):
            # One cycle per call: every callback read the same int object.
            assert all(now is seen[0] for now in seen)
        assert wheel.now is wheel.now
        trace.append((op[0], outcome, wheel.now, wheel.pending))
    return trace


@needs_c_wheel
@settings(max_examples=300, deadline=None)
@given(program=programs)
def test_c_wheel_twins_the_python_wheel(program):
    assert play(EventWheel, program) == play(PythonEventWheel, program)


@needs_c_wheel
def test_c_wheel_refuses_a_dispatch_inside_a_dispatch():
    wheel = EventWheel()
    raised = []

    def nested():
        with pytest.raises(RuntimeError, match="already dispatching"):
            wheel.run()
        raised.append(True)

    wheel.schedule(1, nested)
    wheel.schedule(2, lambda: None)
    assert wheel.advance() == 1
    assert raised and wheel.pending == 1 and wheel.advance() == 1


class Sentinel:
    pass


def _wheel_in_a_cycle():
    """A wheel whose pending callback holds the wheel; a weak reference
    to an object only that cycle keeps alive."""
    wheel = EventWheel()
    sentinel = Sentinel()
    wheel.schedule(5, lambda: (wheel, sentinel))
    return weakref.ref(sentinel)


@needs_c_wheel
def test_c_wheel_collects_a_cycle_through_its_callbacks():
    probe = _wheel_in_a_cycle()
    gc.collect()
    assert probe() is None


def test_new_wheel_follows_the_kernel_switch(monkeypatch, capsys):
    from repro.cli import _print_kernels
    assert type(events.new_wheel()) is EventWheel
    if events._kernel is not None:
        assert events.wheel_implementation().startswith("C ")
    _print_kernels()
    assert (f"event wheel: {events.wheel_implementation()}"
            in capsys.readouterr().out)
    monkeypatch.setattr(events, "_kernel", None)
    assert type(events.new_wheel()) is PythonEventWheel
    assert events.wheel_implementation() == "python"


def test_wheel_methods_sit_in_the_exported_class_dict():
    """A tracer wraps these per class (perfbench's ledger reads
    ``vars(EventWheel)`` and patches them there)."""
    assert {"schedule", "schedule_at", "run"} <= set(vars(EventWheel))
