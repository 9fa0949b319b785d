"""Run a test on every event wheel implementation under its own name."""

from repro.sim.events import EventWheel, PythonEventWheel

#: the C wheel (when it built) and the pure-Python reference
WHEELS = tuple(dict.fromkeys((EventWheel, PythonEventWheel)))


def on_both_wheels(test):
    """Run ``test(wheel_class)`` once per implementation in :data:`WHEELS`.

    The test keeps its name and its id, and takes no fixture for the
    class: a failure names the wheel it failed on.
    """
    def run(*args, **kwargs):
        for wheel_class in WHEELS:
            try:
                test(wheel_class, *args, **kwargs)
            except BaseException as exc:
                if hasattr(exc, "add_note"):
                    exc.add_note(f"on {wheel_class.__qualname__}")
                raise

    run.__name__ = test.__name__
    run.__qualname__ = test.__qualname__
    run.__doc__ = test.__doc__
    return run
