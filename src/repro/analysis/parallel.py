"""Parallel experiment execution: fan simulation jobs across processes.

The figure drivers, sweeps, and CLI all reduce to "run this list of
configurations and collect one :class:`~repro.sim.runner.RunResult` each".
Those runs are embarrassingly parallel — every :class:`System` is fully
isolated (no module- or class-level simulator state) — so this module
provides the one execution layer they share:

- :class:`RunJob` — a small, picklable, hashable description of one run
  (workload + seed + dotted config overrides; the workload fixes the
  machine shape).  Jobs carry *specifications*, not built objects, so
  shipping one to a worker process is cheap and the job doubles as a
  cache key.
- :func:`run_jobs` — execute a job list with ``jobs`` worker processes
  (``ProcessPoolExecutor``), a per-job wall-clock timeout, one automatic
  retry per failed job, deterministic input-order results, an optional
  on-disk result cache keyed by a hash of the job, and progress/ETA
  reporting.

``jobs=1`` runs everything in-process through the exact same job-execution
code path, which is what makes the serial and parallel paths bit-identical
for a fixed seed (each worker builds the same config and workload from the
same spec and the simulator is deterministic).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Any, Callable, Dict, Final, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..sim.runner import (RunResult, apply_config_overrides, run_built,
                          run_system)
from ..sim.system import System
from ..trace import Tracer, trace_enabled_from_env
from ..uarch.params import (SystemConfig, eight_core_config,
                            quad_core_config)
from ..workloads.mixes import (build_homogeneous, build_named,
                               build_scaled_mix)
from .figures import format_eta, progress_bar

#: bump to invalidate every on-disk cache entry when result layout changes
CACHE_SCHEMA = 7

#: natural core count -> the machine shape a workload runs on
MACHINES: Final[Mapping[int, str]] = MappingProxyType(
    {1: "single", 4: "quad", 8: "eight"})

Overrides = Tuple[Tuple[str, Any], ...]
ProgressFn = Callable[[int, int, str, float], None]


class ParallelRunError(RuntimeError):
    """A job failed on its initial attempt *and* its retry."""


class JobTimeoutError(RuntimeError):
    """A job exceeded its per-job wall-clock timeout."""


# ---------------------------------------------------------------------------
# job specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunJob:
    """Everything needed to rebuild and run one simulation, by value.

    ``workload`` is a spec tuple, resolved in the executing process:
    ``("mix", name)``, ``("homog", name, num_cores)``, ``("eight", name)``,
    or ``("named", name, ...)``.  The tuple also fixes the machine shape
    (:attr:`machine`).  ``overrides`` are dotted :class:`SystemConfig`
    paths applied after the base machine is built.  ``trace`` attaches a
    :class:`repro.trace.Tracer` so the result carries a
    :class:`~repro.trace.LatencyAttribution`; a traced run is a distinct
    cache identity from its untraced twin (same timing, richer result).
    """

    workload: Tuple[Any, ...]
    n_instrs: int
    prefetcher: str = "none"
    emc: bool = False
    num_mcs: int = 1
    seed: int = 1
    overrides: Overrides = ()
    max_cycles: int = 50_000_000
    trace: bool = False
    label: str = ""
    warmup_instrs: int = 0
    fabric: str = "ring"              # interconnect: ring | mesh
    num_cores: int = 0                # 0 = the workload's natural count
    predictor: str = "map-i"          # EMC bypass predictor: map-i | hermes

    def key(self) -> tuple:
        """Identity of the run — everything except the display label."""
        return (self.workload, self.n_instrs, self.prefetcher, self.emc,
                self.num_mcs, self.seed, self.overrides, self.max_cycles,
                self.trace, self.warmup_instrs, self.fabric,
                self.num_cores, self.predictor)

    @property
    def natural_cores(self) -> int:
        """Core count the workload tuple fixes: four for a mix, eight for
        an eight-core mix, the copy count of a homogeneous workload, one
        per name of a named one."""
        kind, args = self.workload[0], self.workload[1:]
        if kind == "mix":
            return 4
        if kind == "eight":
            return 8
        if kind == "homog":
            return args[1]
        if kind == "named":
            return len(args)
        raise ValueError(f"unknown workload kind {kind!r}")

    @property
    def machine(self) -> str:
        """Machine shape the workload runs on: quad | eight | single."""
        try:
            return MACHINES[self.natural_cores]
        except KeyError:
            raise ValueError(
                f"workload {self.workload!r} fixes {self.natural_cores} "
                "cores; machines have 1, 4 or 8") from None

    def effective_cores(self) -> int:
        """Core count this job actually builds (its override or the
        workload's natural count)."""
        return self.num_cores or self.natural_cores

    def warmup_key(self) -> tuple:
        """Identity of the *warmed machine state* this job starts from.

        Workload + warmup identity only: since schema v4 the shared
        warmup executes under a canonical base config
        (:func:`warmup_base_config`) and each sweep point
        :meth:`~repro.sim.system.System.fork`-s from it, so
        ``prefetcher``/``emc``/``overrides`` — and ``max_cycles``,
        ``trace``, the label — are all excluded.  Since schema v5 so are
        ``fabric`` and ``num_cores``: the warmup always runs on the
        neutral ring at the workload's natural core count and the
        fork re-seats into the target fabric/core count.  ``predictor``
        is excluded for the same reason (the neutral warmup runs with
        the EMC off, so no predictor state ever warms; each point forks
        into its own predictor kind).  An entire config sweep over one
        workload resolves to one checkpoint: the first point pays for
        the warmup, everyone else forks.
        """
        return (self.workload, self.n_instrs, self.num_mcs, self.seed,
                self.warmup_instrs)


# ---------------------------------------------------------------------------
# job execution (runs in the worker process)
# ---------------------------------------------------------------------------

def build_job_config(job: RunJob) -> SystemConfig:
    """Build the validated :class:`SystemConfig` a job describes.

    Raises :class:`ValueError` for a config no machine can build: a
    second memory controller (``num_mcs``) exists only on the eight-core
    machine, and a bad dotted override names no field.
    """
    machine = job.machine
    if (job.workload[0] == "named" and job.num_cores
            and job.num_cores != job.natural_cores):
        raise ValueError(
            f"named workloads are one benchmark per core: "
            f"{job.natural_cores} names cannot fill "
            f"num_cores={job.num_cores}")
    if job.num_mcs != 1 and machine != "eight":
        raise ValueError(
            f"num_mcs={job.num_mcs} needs an eight-core workload; "
            f"{job.workload!r} runs on the {machine} machine, which has "
            "one memory controller")
    if machine == "eight":
        cfg = eight_core_config(prefetcher=job.prefetcher, emc=job.emc,
                                num_mcs=job.num_mcs, seed=job.seed)
    else:       # the single-core baseline is one core of the quad machine
        cfg = quad_core_config(prefetcher=job.prefetcher, emc=job.emc,
                               seed=job.seed)
    cfg.num_cores = job.effective_cores()
    cfg.ring.topology = job.fabric
    cfg.emc.predictor.kind = job.predictor
    apply_config_overrides(cfg, job.overrides)
    cfg.validate()
    return cfg


def build_job_workload(job: RunJob, num_cores: int = 0):
    """Build the traces a job runs, one per core.

    ``num_cores`` overrides the job's effective core count — the shared
    warmup uses it to build the *base* machine's workload.  Builders are
    per-core independent (per-core seeds), so a larger build's prefix is
    bit-identical to the smaller build: the grown fork's added cores take
    the tail while surviving cores keep the warmed prefix.
    """
    cores = num_cores or job.effective_cores()
    kind, args = job.workload[0], job.workload[1:]
    if kind in ("mix", "eight"):
        return build_scaled_mix(args[0], cores, job.n_instrs, seed=job.seed)
    if kind == "homog":
        return build_homogeneous(args[0], cores, job.n_instrs, seed=job.seed)
    if kind == "named":
        return build_named(list(args), job.n_instrs, seed=job.seed)
    raise ValueError(f"unknown workload kind {kind!r}")


def warmup_base_config(job: RunJob) -> SystemConfig:
    """Canonical config under which a job's *shared* warmup executes.

    One base per warmup identity: the job's machine on the neutral
    ring at its natural core count, EMC off, no prefetcher — ignoring the
    per-point knobs (``prefetcher``, ``emc``, ``fabric``, ``num_cores``,
    ``predictor``, dotted overrides).  Every sweep point sharing a
    :meth:`RunJob.warmup_key` warms this exact machine — or loads its
    cached checkpoint — and then forks into its own config.
    """
    return build_job_config(RunJob(workload=job.workload,
                                   n_instrs=job.n_instrs,
                                   num_mcs=job.num_mcs, seed=job.seed))


def warmup_checkpoint_path(cache_dir: Optional[str],
                           job: RunJob) -> Optional[str]:
    """Checkpoint file for the warmed machine state a job starts from.

    Keyed by :meth:`RunJob.warmup_key` — workload + warmup identity only —
    so every point of a config sweep (EMC on/off, any prefetcher, any
    dotted override) resolves to the same file: the first to run pays for
    the warmup under :func:`warmup_base_config`, the rest fork from its
    checkpoint.  A job that times out *after* the boundary also finds the
    file on retry and resumes instead of re-warming.
    """
    if not cache_dir or not job.warmup_instrs:
        return None
    text = repr((CACHE_SCHEMA, "warmup", job.warmup_key()))
    digest = hashlib.sha256(text.encode()).hexdigest()[:32]
    return os.path.join(cache_dir, "warmup-ckpt", f"wck-{digest}.pkl")


class WarmBase:
    """One executing loop's most recent warmed base machine, in memory.

    A serial loop (:func:`run_jobs` with ``jobs=1``,
    :func:`repro.analysis.farm.run_worker`) owns one and hands it to every
    :func:`execute_job` call it makes.  The slot holds one base at a time,
    keyed by its warmup-checkpoint path: the sweep points after the first
    fork from it instead of reloading the checkpoint that same loop wrote
    (or loaded) a moment earlier.  The checkpoint file stays the
    authority across processes and runs; the slot only saves re-reading
    it.
    """

    def __init__(self) -> None:
        self.path: Optional[str] = None
        self.system: Optional[System] = None

    def get(self, path: str) -> Optional[System]:
        """The kept base for ``path``, or ``None``."""
        return self.system if path == self.path else None

    def keep(self, path: str, system: System) -> None:
        """Replace the kept base with ``system``, warmed for ``path``."""
        self.path, self.system = path, system


def _warm_shared_base(job: RunJob, checkpoint: Optional[str],
                      warm_base: Optional[WarmBase], workload_cores: int
                      ) -> Tuple[System, str, Optional[list]]:
    """The warmed base machine ``job`` forks from, how it was obtained
    ("fresh" or "checkpoint"), and the workload built for it, if any.

    Tried in order: the loop's in-memory slot, the checkpoint file, a
    fresh warmup under :func:`warmup_base_config` (written to the
    checkpoint when there is one).  A fresh warmup builds the workload
    once at ``workload_cores`` so a growing fork can take its added
    cores from the same build.
    """
    base = (warm_base.get(checkpoint)
            if warm_base is not None and checkpoint else None)
    if base is not None:
        return base, "checkpoint", None
    built = None
    if checkpoint and os.path.exists(checkpoint):
        base, warmed_from = System.from_checkpoint(checkpoint), "checkpoint"
    else:
        base_cfg = warmup_base_config(job)
        built = build_job_workload(job, max(workload_cores,
                                            base_cfg.num_cores))
        base = System(base_cfg, built[:base_cfg.num_cores])
        base.warmup(job.warmup_instrs, max_cycles=job.max_cycles)
        if checkpoint:
            base.checkpoint(checkpoint)
        warmed_from = "fresh"
    if warm_base is not None and checkpoint:
        warm_base.keep(checkpoint, base)
    return base, warmed_from, built


def execute_job(job: RunJob, cache_dir: Optional[str] = None,
                warm_base: Optional[WarmBase] = None) -> RunResult:
    """Build the config a job describes and run it.

    A job without ``warmup_instrs`` builds its workload and runs it
    through :func:`~repro.sim.runner.run_system`.  A job with
    ``warmup_instrs`` forks its own config from a warmed base machine
    (:func:`warmup_base_config`) — with or without a cache, so cached and
    uncached runs are bit-identical.  The base comes from ``warm_base``
    (the calling loop's in-memory slot), else from the warmup checkpoint
    under ``cache_dir`` (see :func:`warmup_checkpoint_path`), else from a
    fresh warmup, which also writes that checkpoint and fills the slot.
    The workload is built only when a new machine needs fresh traces:
    the base warmup, or the added cores of a fork that grows
    ``num_cores`` past the base's natural count.  A fork that shrinks
    drops the surplus cores' traces with their warmed state.
    """
    cfg = build_job_config(job)
    tracer = Tracer() if job.trace or trace_enabled_from_env() else None
    if not job.warmup_instrs:
        return run_system(cfg, build_job_workload(job), label=job.label,
                          max_cycles=job.max_cycles, tracer=tracer)
    checkpoint = warmup_checkpoint_path(cache_dir, job)
    if checkpoint:
        os.makedirs(os.path.dirname(checkpoint), exist_ok=True)
    base, warmed_from, built = _warm_shared_base(job, checkpoint, warm_base,
                                                 cfg.num_cores)
    base_cores = base.cfg.num_cores
    added = None
    if cfg.num_cores > base_cores:
        # The grown machine's workload extends the base's by construction
        # (per-core seeds), so the added cores take the build's tail.
        added = (built or build_job_workload(job))[base_cores:cfg.num_cores]
    system, report = base.fork(tracer=tracer, cfg=cfg, added_workload=added)
    return run_built(system, label=job.label, max_cycles=job.max_cycles,
                     warmed_from=warmed_from,
                     fork_carryover=report.as_dict())


def _on_alarm(_signum, _frame):
    raise JobTimeoutError("job exceeded its wall-clock timeout")


def _execute_with_timeout(job: RunJob, timeout: Optional[float],
                          cache_dir: Optional[str] = None,
                          warm_base: Optional[WarmBase] = None
                          ) -> RunResult:
    """Worker entry point: run one job under an optional SIGALRM budget.

    ``signal`` only works in a main thread; where it is unavailable the
    job simply runs without a wall-clock bound (``max_cycles`` still
    bounds the simulation itself).
    """
    if not timeout or not hasattr(signal, "setitimer"):
        return execute_job(job, cache_dir, warm_base)
    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:          # not in the main thread
        return execute_job(job, cache_dir, warm_base)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute_job(job, cache_dir, warm_base)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# on-disk result cache
# ---------------------------------------------------------------------------

def job_hash(job: RunJob) -> str:
    """Stable configuration hash identifying a job's result on disk."""
    text = repr((CACHE_SCHEMA, job.key()))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _cache_path(cache_dir: str, job: RunJob) -> str:
    return os.path.join(cache_dir, f"run-{job_hash(job)}.pkl")


def _cache_load(cache_dir: Optional[str],
                job: RunJob) -> Optional[RunResult]:
    """The cached result of ``job``, or ``None`` to recompute it.

    A missing entry is a silent miss.  A truncated, corrupt or stale
    (pickled against an old module layout) entry is a miss too, but one
    that prints a warning naming the file and the error to stderr.
    """
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, job)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception as exc:
        # pickle surfaces corruption as almost any exception type, so a
        # narrow list is a trap.
        print(f"warning: unreadable cache entry {path}: {exc!r}; "
              "recomputing", file=sys.stderr)
        return None


def _cache_store(cache_dir: Optional[str], job: RunJob,
                 result: RunResult) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, job)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)   # atomic: concurrent writers can't corrupt
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------

def default_jobs() -> int:
    """Worker-count default: ``REPRO_JOBS`` env var, else 1 (serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def default_cache_dir() -> Optional[str]:
    """On-disk cache default: ``REPRO_CACHE_DIR`` env var, else disabled."""
    return os.environ.get("REPRO_CACHE_DIR") or None


def _stderr_progress(done: int, total: int, label: str,
                     elapsed: float) -> None:
    eta = elapsed / done * (total - done) if done else 0.0
    line = (f"\r[{done}/{total}] {progress_bar(done, total)} "
            f"{label[:28]:<28s} elapsed {format_eta(elapsed)} "
            f"ETA {format_eta(eta)}")
    sys.stderr.write(line + ("\n" if done >= total else ""))
    sys.stderr.flush()


def _run_one(job: RunJob, timeout: Optional[float],
             cache_dir: Optional[str] = None,
             warm_base: Optional[WarmBase] = None) -> RunResult:
    """Serial path: execute with the same retry-once policy as the pool."""
    try:
        return _execute_with_timeout(job, timeout, cache_dir, warm_base)
    except Exception as first:                          # retry once
        try:
            return _execute_with_timeout(job, timeout, cache_dir, warm_base)
        except Exception as second:
            raise ParallelRunError(
                f"job {job.label or job.workload!r} failed twice: "
                f"{second!r} (first attempt: {first!r})") from second


def run_jobs(jobs_list: Sequence[RunJob], jobs: int = 1,
             cache_dir: Optional[str] = None,
             timeout: Optional[float] = None,
             progress: Union[None, bool, ProgressFn] = None
             ) -> List[RunResult]:
    """Execute ``jobs_list`` and return results in input order.

    - ``jobs``: worker processes; ``<= 1`` runs serially in-process (the
      same code path, so results are bit-identical for a fixed seed).
    - ``cache_dir``: directory of pickled results keyed by
      :func:`job_hash`; hits skip execution entirely, misses are stored
      after the run.  Unreadable entries are recomputed with a stderr
      warning, not fatal.  Jobs with ``warmup_instrs`` additionally
      share warmed-machine checkpoints under ``cache_dir/warmup-ckpt/``
      (see :func:`warmup_checkpoint_path`), so only the first job of
      each (workload, warmup) group builds its workload and pays for its
      warmup — every config point of a sweep forks from that one warm
      base.  The serial loop keeps the base in a :class:`WarmBase` slot
      and forks later points from memory; pool workers load the
      checkpoint per job.  Without ``cache_dir`` there is no slot and
      every job warms its own base.
    - ``timeout``: per-job wall-clock seconds; a timed-out job counts as a
      failure and is retried once like any other failure.
    - ``progress``: ``True`` for a stderr progress/ETA line, or a callable
      ``(done, total, label, elapsed_seconds)``.

    A job that fails twice raises :class:`ParallelRunError`.
    """
    jobs_list = list(jobs_list)
    total = len(jobs_list)
    report: Optional[ProgressFn]
    report = _stderr_progress if progress is True else (progress or None)

    results: List[Optional[RunResult]] = [None] * total
    pending: List[int] = []
    done = 0
    started = time.monotonic()
    for i, job in enumerate(jobs_list):
        cached = _cache_load(cache_dir, job)
        if cached is not None:
            results[i] = cached
            done += 1
            if report:
                report(done, total, f"{job.label} (cached)",
                       time.monotonic() - started)
        else:
            pending.append(i)

    def finish(i: int, result: RunResult) -> None:
        nonlocal done
        results[i] = result
        _cache_store(cache_dir, jobs_list[i], result)
        done += 1
        if report:
            report(done, total, jobs_list[i].label,
                   time.monotonic() - started)

    if jobs <= 1 or len(pending) <= 1:
        warm_base = WarmBase() if cache_dir else None
        for i in pending:
            finish(i, _run_one(jobs_list[i], timeout, cache_dir, warm_base))
        return results          # type: ignore[return-value]

    workers = min(jobs, len(pending))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        attempts: Dict[Any, Tuple[int, int]] = {}   # future -> (index, tries)
        first_error: Dict[int, BaseException] = {}

        def submit(i: int, tries: int) -> None:
            future = pool.submit(_execute_with_timeout, jobs_list[i],
                                 timeout, cache_dir)
            attempts[future] = (i, tries)

        for i in pending:
            submit(i, 1)
        while attempts:
            ready, _ = wait(list(attempts), return_when=FIRST_COMPLETED)
            for future in ready:
                i, tries = attempts.pop(future)
                error = future.exception()
                if error is None:
                    finish(i, future.result())
                elif tries == 1:
                    first_error[i] = error
                    submit(i, 2)                    # retry once
                else:
                    raise ParallelRunError(
                        f"job {jobs_list[i].label or jobs_list[i].workload!r}"
                        f" failed twice: {error!r} "
                        f"(first attempt: {first_error[i]!r})") from error
    return results              # type: ignore[return-value]
