"""Host-side profiling harness (``repro profile``).

Profiles the *host* Python execution of one pinned simulation — the same
quad-mix configuration ``repro bench`` times — so hot-frame reports are
comparable across revisions and directly actionable against the bench
trend (``BENCH_<rev>.json``).  Wall-clock and profiler use live here in
the analysis layer, where SIM003 permits them; simulated behaviour is
untouched.

The harness separates the two phases a revision can regress
independently:

``build``
    Config construction plus workload generation (trace synthesis and
    memory-image population).

``sim``
    The event-wheel run itself: warmup, measured window, drain.

``cProfile`` is always available; ``pyinstrument`` is used instead when
installed and requested (``--engine pyinstrument``), falling back with a
note otherwise.  Use ``--out FILE.pstats`` to dump raw stats for
``snakeviz``/``pstats`` spelunking.
"""

from __future__ import annotations

import cProfile
import functools
import io
import pstats
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .bench import BENCH_JOB
from .parallel import (RunJob, build_job_config, build_job_workload,
                       run_direct)

#: phases the harness can profile in isolation
PHASES = ("build", "sim", "all")

#: profiling engines; pyinstrument is optional and gated at runtime
ENGINES = ("cprofile", "pyinstrument")


@dataclass(frozen=True)
class ProfileReport:
    """One profiled phase: its report text and where raw stats went."""

    phase: str
    engine: str
    text: str
    out_path: Optional[str] = None

    def format(self) -> str:
        header = f"== phase: {self.phase} ({self.engine}) =="
        lines = [header, self.text.rstrip()]
        if self.out_path:
            lines.append(f"raw profile written to {self.out_path}")
        return "\n".join(lines)


def _have_pyinstrument() -> bool:
    try:
        import pyinstrument  # noqa: F401
    except ImportError:
        return False
    return True


def _profile_cprofile(fn: Callable[[], object], sort: str, limit: int,
                      out_path: Optional[str]) -> Tuple[str, object]:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    if out_path:
        profiler.dump_stats(out_path)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return buf.getvalue(), value


def _profile_pyinstrument(fn: Callable[[], object],
                          out_path: Optional[str]) -> Tuple[str, object]:
    from pyinstrument import Profiler
    profiler = Profiler()
    profiler.start()
    try:
        value = fn()
    finally:
        profiler.stop()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(profiler.output_html())
    return profiler.output_text(unicode=True, color=False), value


def _run_one(fn: Callable[[], object], phase: str, engine: str, sort: str,
             limit: int, out_path: Optional[str]) -> Tuple[ProfileReport,
                                                           object]:
    chosen = engine
    if engine == "pyinstrument" and not _have_pyinstrument():
        chosen = "cprofile"
    if chosen == "pyinstrument":
        text, value = _profile_pyinstrument(fn, out_path)
    else:
        text, value = _profile_cprofile(fn, sort, limit, out_path)
        if engine == "pyinstrument":
            text = ("pyinstrument not installed; fell back to cProfile\n"
                    + text)
    return ProfileReport(phase=phase, engine=chosen, text=text,
                         out_path=out_path), value


def profile_run(job: RunJob = BENCH_JOB,
                phase: str = "all",
                engine: str = "cprofile",
                sort: str = "cumulative",
                limit: int = 30,
                out_path: Optional[str] = None) -> list:
    """Profile one run (by default the pinned bench run, warmed under
    its own config); returns one report per phase.

    ``phase`` selects what runs *under the profiler*: ``build`` profiles
    config + workload construction only, ``sim`` builds unprofiled and
    profiles the simulation, ``all`` profiles both together.
    """
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}; choose from {PHASES}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")

    def build():
        return build_job_config(job), build_job_workload(job)

    if phase == "build":
        fn = build
    elif phase == "sim":
        fn = functools.partial(run_direct, job, built=build())
    else:
        fn = functools.partial(run_direct, job)
    report, _ = _run_one(fn, phase, engine, sort, limit, out_path)
    return [report]
