"""Parallel experiment execution: run a list of jobs, in input order.

The figure drivers, sweeps, CLI and farm all reduce to "run these
configurations and collect one :class:`~repro.sim.runner.RunResult`
each".  Every :class:`System` is fully isolated (no module- or
class-level simulator state), so the runs are embarrassingly parallel
and share one execution layer:

- :class:`RunJob` — a small, picklable, hashable description of one run
  by value (workload spec, seed, dotted config overrides); shipping it
  to a worker is cheap and it doubles as its own cache key.
- :meth:`RunJob.at` and :func:`grid` — the one grid expander: every
  sweep (figure drivers, ``repro compare``/``sweep``, farm specs) is
  ``base.at(point)`` for each point of one cross product, and
  :func:`run_grid` hands back each result keyed by its point.
- :func:`execute_job` — build and run one job, forking the points of a
  sweep from one warmed base machine (:class:`WarmBase`);
  :func:`run_direct` — build, warm and run one job under its own config,
  for a single run with no sweep to share a warmup with.
- :func:`_drain` — the one scheduling loop: lease a job from a queue,
  execute it in-process (``jobs == 1``) or in a process pool, store the
  result, then complete or fail the job.  :func:`state_after_failure`
  is the one retry decision: a host fault is retried once, any other
  error fails at once.
- :func:`run_jobs` — drain a job list through an in-memory queue, with
  a per-job timeout, an optional on-disk result cache and progress/ETA
  reporting.  The farm drains its SQLite queue through the same loop.

In-process and pooled execution run the same job code, so results are
bit-identical for a fixed seed.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import signal
import sys
import tempfile
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from functools import partial
from types import MappingProxyType
from typing import (Any, Callable, Dict, Final, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..sim.component import SnapshotError
from ..sim.runner import (RunResult, apply_config_overrides, run_built,
                          run_system)
from ..sim.system import System, code_fingerprint
from ..trace import NULL_TRACER, Tracer
from ..uarch.params import (SystemConfig, eight_core_config,
                            quad_core_config)
from ..workloads.mixes import (Workload, build_homogeneous, build_named,
                               build_scaled_mix)
from .figures import format_eta, progress_bar

#: natural core count -> the machine shape a workload runs on
MACHINES: Final[Mapping[int, str]] = MappingProxyType(
    {1: "single", 4: "quad", 8: "eight"})

Overrides = Tuple[Tuple[str, Any], ...]
ProgressFn = Callable[[int, int, str, float], None]


class ParallelRunError(RuntimeError):
    """A job failed for good (see :func:`state_after_failure`)."""


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

    def at(self, point: Mapping[str, Any]) -> RunJob:
        """This job at one grid point; ``self`` is left as it is.

        A name that is a :class:`RunJob` field sets that field (a base job
        may leave ``workload`` as ``()`` for its points to fill).  Any
        other name is a dotted :class:`SystemConfig` path, appended in
        sorted order to the job's ``overrides``.
        """
        changes = {k: v for k, v in point.items() if k in _JOB_FIELDS}
        dotted = tuple(sorted((k, v) for k, v in point.items()
                              if k not in _JOB_FIELDS))
        if dotted:
            changes["overrides"] = (changes.get("overrides", self.overrides)
                                    + dotted)
        return replace(self, **changes)

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

        Workload + warmup identity only.  The shared warmup runs under
        the canonical :func:`warmup_base_config` — neutral ring, natural
        core count, EMC and prefetcher off — and each sweep point
        :meth:`~repro.sim.system.System.fork`-s into its own config, so
        ``prefetcher``, ``emc``, ``overrides``, ``fabric``,
        ``num_cores``, ``predictor``, ``max_cycles``, ``trace`` and the
        label are all excluded.  A whole config sweep over one workload
        resolves to one checkpoint: the first point pays for the warmup,
        everyone else forks.
        """
        return (self.workload, self.n_instrs, self.num_mcs, self.seed,
                self.warmup_instrs)


#: the names a grid point sets on a job directly (see :meth:`RunJob.at`)
_JOB_FIELDS: Final[frozenset] = frozenset(f.name for f in fields(RunJob))


def grid(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Every point of ``axes``: the cross product in declaration order,
    the last axis varying fastest."""
    names = list(axes)
    return [dict(zip(names, values))
            for values in itertools.product(*(axes[n] for n in names))]


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
    file on retry and resumes instead of re-warming.  Other code (another
    :func:`~repro.sim.system.code_fingerprint`) never finds the file.
    """
    if not cache_dir or not job.warmup_instrs:
        return None
    text = repr((code_fingerprint(), "warmup", job.warmup_key()))
    digest = hashlib.sha256(text.encode()).hexdigest()[:32]
    return os.path.join(cache_dir, "warmup-ckpt", f"wck-{digest}.pkl")


class WarmBase:
    """One executing process's most recent warmed base machine.

    The in-process drain loop owns one, and each pool worker process
    gets one from :func:`_init_pool_worker`.  It holds one base at a
    time, keyed by :meth:`RunJob.warmup_key`, so the sweep points after
    the first fork from memory, with or without a checkpoint file.
    Across processes and runs the checkpoint file is the authority; the
    slot only saves re-reading it.
    """

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.system: Optional[System] = None

    def get(self, key: tuple) -> Optional[System]:
        """The kept base for warmup identity ``key``, or ``None``."""
        return self.system if key == self.key else None

    def keep(self, key: tuple, system: System) -> None:
        """Replace the kept base with ``system``, warmed for ``key``."""
        self.key, self.system = key, system


def _warm_shared_base(job: RunJob, checkpoint: Optional[str],
                      warm_base: Optional[WarmBase], workload_cores: int
                      ) -> Tuple[System, str, Optional[list]]:
    """The warmed base machine ``job`` forks from, how it was obtained
    ("fresh", or "checkpoint" for a base another job warmed), and the
    workload built for it, if any.

    Tried in order: the loop's in-memory slot, the checkpoint file, a
    fresh warmup under :func:`warmup_base_config` (written to the
    checkpoint when there is one).  A checkpoint file that is unreadable
    or was written by other code is warned about once and overwritten by
    the fresh warmup.  A fresh warmup builds the workload once at
    ``workload_cores`` so a growing fork can take its added cores from
    the same build.
    """
    key = job.warmup_key()
    base = warm_base.get(key) if warm_base is not None else None
    if base is not None:
        return base, "checkpoint", None
    built = None
    if checkpoint and os.path.exists(checkpoint):
        try:
            base, warmed_from = (System.from_checkpoint(checkpoint),
                                 "checkpoint")
        except SnapshotError as exc:
            print(f"warning: {exc}; warming fresh", file=sys.stderr)
    if base is None:
        base_cfg = warmup_base_config(job)
        built = build_job_workload(job, max(workload_cores,
                                            base_cfg.num_cores))
        base = System(base_cfg, built[:base_cfg.num_cores])
        base.warmup(job.warmup_instrs, max_cycles=job.max_cycles)
        if checkpoint:
            base.checkpoint(checkpoint)
        warmed_from = "fresh"
    if warm_base is not None:
        warm_base.keep(key, base)
    return base, warmed_from, built


def run_direct(job: RunJob, tracer: Optional[Tracer] = None,
               built: Optional[Tuple[SystemConfig, Workload]] = None
               ) -> RunResult:
    """Build ``job`` under its own config, warm it under that config and
    run it: a single run has no sweep to share a neutral warmup with.

    The run is traced iff ``job.trace``, with ``tracer`` (a fresh
    :class:`~repro.trace.Tracer` by default); ``REPRO_TRACE`` is not
    consulted.  ``built`` is a ``(config, workload)`` pair already built
    for ``job``, for a caller that times the build apart from the run.
    """
    cfg, workload = built or (build_job_config(job), build_job_workload(job))
    if not job.trace:
        tracer = NULL_TRACER        # not None: run_system would read the env
    elif tracer is None:
        tracer = Tracer()
    return run_system(cfg, workload, label=job.label,
                      max_cycles=job.max_cycles, tracer=tracer,
                      warmup_instrs=job.warmup_instrs)


def execute_job(job: RunJob, cache_dir: Optional[str] = None,
                warm_base: Optional[WarmBase] = None) -> RunResult:
    """Build the config a job describes and run it.

    A job without ``warmup_instrs`` runs through :func:`run_direct`:
    with no warmup, warming under the job's own config and forking from
    a neutral base coincide.  A job with ``warmup_instrs`` forks its own
    config from a warmed base machine (:func:`warmup_base_config`) —
    with or without a cache, so cached and uncached runs are
    bit-identical.  The base comes from ``warm_base`` (the calling
    loop's in-memory slot), else from the warmup checkpoint under
    ``cache_dir`` (see :func:`warmup_checkpoint_path`), else from a
    fresh warmup, which also writes that checkpoint and fills the slot.
    The workload is built only when a new machine needs fresh traces:
    the base warmup, or the added cores of a fork that grows
    ``num_cores`` past the base's natural count.  A fork that shrinks
    drops the surplus cores' traces with their warmed state.  Either way
    the run is traced iff ``job.trace``, so a result stored under
    :func:`job_hash` never depends on the environment.
    """
    if not job.warmup_instrs:
        return run_direct(job)
    cfg = build_job_config(job)
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
    system, report = base.fork(tracer=Tracer() if job.trace else None,
                               cfg=cfg, added_workload=added)
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


#: the pool worker process's warm base, created by :func:`_init_pool_worker`
_pool_warm_base: Optional[WarmBase] = None


def _init_pool_worker() -> None:
    """Pool ``initializer``: give this worker process its own warm base."""
    global _pool_warm_base
    _pool_warm_base = WarmBase()


def _execute_pooled(job: RunJob, timeout: Optional[float],
                    cache_dir: Optional[str]) -> RunResult:
    """Pool entry point: run one job against this process's warm base,
    so the worker's later points of a sweep fork from memory."""
    return _execute_with_timeout(job, timeout, cache_dir, _pool_warm_base)


# ---------------------------------------------------------------------------
# the drain loop: lease -> execute -> store -> complete or fail
# ---------------------------------------------------------------------------

#: attempts before a host-faulting job parks as failed: one run + one retry
MAX_ATTEMPTS = 2
#: errors that say nothing about the job itself, so a retry may pass
HOST_FAULTS = (JobTimeoutError, OSError, BrokenProcessPool)
#: seconds between looks at a queue that has nothing to lease
POLL_S = 0.5


@dataclass(frozen=True)
class LeasedJob:
    """One leased queue entry: execute it, then complete or fail it."""

    hash: str
    job: RunJob
    attempts: int


def state_after_failure(attempts: int, host_fault: bool) -> str:
    """The retry decision every queue's ``fail`` makes: a host fault
    goes back to ``pending`` while a retry is left; anything else (a
    simulator or config error fails the same way every time) parks as
    ``failed`` at once."""
    return "pending" if host_fault and attempts < MAX_ATTEMPTS else "failed"


class _LeaseKeeper(threading.Thread):
    """Renews one lease every ``lease_s / 3`` seconds while its job
    executes, until stopped or the lease is lost; a lease that never
    expires (``lease_s=None``) starts no thread."""

    def __init__(self, queue: Any, digest: str, worker: str,
                 lease_s: Optional[float]):
        super().__init__(daemon=True)
        self._lease_s = lease_s
        self._halt = threading.Event()
        if lease_s:
            self._renew = partial(queue.heartbeat, digest, worker, lease_s)
            self.start()

    def run(self) -> None:
        while not self._halt.wait(self._lease_s / 3) and self._renew():
            pass

    def stop(self) -> None:
        self._halt.set()
        if self._lease_s:
            self.join(timeout=5.0)


def _resolved(fn: Callable[..., RunResult], *args: Any) -> Future:
    """Run ``fn`` here and now; its outcome as an already-done future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _drain(queue: Any, until: Callable[[int], bool],
           note: Callable[[LeasedJob, str, str], None], jobs: int = 1,
           timeout: Optional[float] = None, worker: str = "local",
           lease_s: Optional[float] = None, poll_s: float = POLL_S) -> int:
    """Lease a job from ``queue``, execute it, store its result, then
    complete or fail it, until ``until(completed)`` returns true (or
    raises); returns how many jobs this loop completed.

    ``queue`` is a farm ``JobQueue`` or :func:`run_jobs`' in-memory
    queue.  ``jobs == 1`` executes in-process against one
    :class:`WarmBase`; more keeps up to ``jobs`` in flight in a process
    pool.  Each lease is renewed by a :class:`_LeaseKeeper`.  ``note``
    hears ``(lease, state, error)`` as a job is leased, done or failed.
    """
    store = queue.store_dir
    warm_base = WarmBase()
    inflight: Dict[Future, Tuple[LeasedJob, _LeaseKeeper]] = {}
    completed = 0
    pool = (ProcessPoolExecutor(max_workers=jobs,
                                initializer=_init_pool_worker)
            if jobs > 1 else None)
    try:
        while not until(completed):
            while len(inflight) < jobs:
                leased = queue.lease(worker, lease_s)
                if leased is None:
                    break
                note(leased, "leased", "")
                # Submit before the keeper starts: the first submit forks
                # the pool's workers, and fork must see no other thread.
                future = pool and pool.submit(_execute_pooled, leased.job,
                                              timeout, store)
                keeper = _LeaseKeeper(queue, leased.hash, worker, lease_s)
                if future is None:      # in-process, while the keeper runs
                    future = _resolved(_execute_with_timeout, leased.job,
                                       timeout, store, warm_base)
                inflight[future] = (leased, keeper)
            if not inflight:
                time.sleep(poll_s)      # others hold the remaining leases
                continue
            ready, _ = wait(inflight, timeout=poll_s,
                            return_when=FIRST_COMPLETED)
            for future in ready:
                leased, keeper = inflight.pop(future)
                keeper.stop()
                error = future.exception()
                if error is None:
                    queue.store(leased, future.result())
                    queue.complete(leased.hash, worker)
                    completed += 1
                    note(leased, "done", "")
                else:
                    state = queue.fail(leased.hash, worker, repr(error),
                                       isinstance(error, HOST_FAULTS))
                    note(leased, state, repr(error))
    finally:
        for _leased, keeper in inflight.values():
            keeper.stop()
        if pool is not None:
            pool.shutdown()
    return completed


# ---------------------------------------------------------------------------
# on-disk result cache
# ---------------------------------------------------------------------------

def job_hash(job: RunJob) -> str:
    """Stable hash identifying a job's result on disk: the job plus
    :func:`~repro.sim.system.code_fingerprint`, so a result computed by
    other code is never served."""
    text = repr((code_fingerprint(), job.key()))
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


class _MemoryQueue:
    """The in-memory queue :func:`run_jobs` drains: a farm
    ``JobQueue``'s ``lease``/``store``/``complete``/``fail`` over one
    job list.  Cached jobs start ``done``, leases never expire, and a
    job listed twice is one entry whose result fills both positions.
    Entry ``i`` is leased as ``str(i)``.
    """

    def __init__(self, jobs_list: Sequence[RunJob],
                 cache_dir: Optional[str]):
        self.store_dir = cache_dir
        index: Dict[RunJob, int] = {}
        #: input position -> entry index
        self.positions = [index.setdefault(job, len(index))
                          for job in jobs_list]
        self.jobs = list(index)
        self.results = [_cache_load(cache_dir, job) for job in self.jobs]
        self.states = ["pending" if result is None else "done"
                       for result in self.results]
        #: one error per failed attempt
        self.errors: List[List[str]] = [[] for _ in self.jobs]

    def lease(self, _worker: str, _lease_s: Optional[float]
              ) -> Optional[LeasedJob]:
        if "pending" not in self.states:
            return None
        i = self.states.index("pending")
        self.states[i] = "leased"
        return LeasedJob(str(i), self.jobs[i], len(self.errors[i]) + 1)

    def store(self, leased: LeasedJob, result: RunResult) -> None:
        self.results[int(leased.hash)] = result
        _cache_store(self.store_dir, leased.job, result)

    def complete(self, digest: str, _worker: str) -> None:
        self.states[int(digest)] = "done"

    def fail(self, digest: str, _worker: str, error: str,
             host_fault: bool) -> str:
        i = int(digest)
        self.errors[i].append(error)
        self.states[i] = state_after_failure(len(self.errors[i]),
                                             host_fault)
        return self.states[i]


def run_jobs(jobs_list: Sequence[RunJob], jobs: int = 1,
             cache_dir: Optional[str] = None,
             timeout: Optional[float] = None,
             progress: Union[None, bool, ProgressFn] = None
             ) -> List[RunResult]:
    """Execute ``jobs_list`` and return results in input order.

    - ``jobs``: worker processes; ``<= 1`` runs in-process through the
      same job code, so results are bit-identical for a fixed seed.
    - ``cache_dir``: pickled results keyed by :func:`job_hash`; hits
      skip execution, misses are stored after the run, unreadable
      entries are recomputed with a stderr warning.  Jobs with
      ``warmup_instrs`` also share warmed-machine checkpoints under
      ``cache_dir/warmup-ckpt/`` (:func:`warmup_checkpoint_path`): the
      first job of each (workload, warmup) group builds and warms, every
      other point of the sweep forks from that base, which each
      executing process keeps in a :class:`WarmBase`.
    - ``timeout``: per-job wall-clock seconds; a timeout is a host fault.
    - ``progress``: ``True`` for a stderr progress/ETA line, or a callable
      ``(done, total, label, elapsed_seconds)``.

    A job listed twice runs once and fills both positions.  A host fault
    (:data:`HOST_FAULTS`) is retried once; any other failure, or a second
    host fault, raises :class:`ParallelRunError`.
    """
    report: Optional[ProgressFn]
    report = _stderr_progress if progress is True else (progress or None)
    queue = _MemoryQueue(jobs_list, cache_dir)
    total = len(queue.positions)
    started = time.monotonic()
    if report:
        cached = [i for i in queue.positions if queue.states[i] == "done"]
        for done, i in enumerate(cached, 1):
            report(done, total, f"{queue.jobs[i].label} (cached)",
                   time.monotonic() - started)

    def finished(_completed: int) -> bool:
        if "failed" in queue.states:
            i = queue.states.index("failed")
            first, *retries = queue.errors[i]
            raise ParallelRunError(
                f"job {queue.jobs[i].label or queue.jobs[i].workload!r} "
                + (f"failed: {first}" if not retries else
                   f"failed twice: {retries[-1]} (first attempt: {first})"))
        return queue.states.count("done") == len(queue.jobs)

    def note(leased: LeasedJob, state: str, _error: str) -> None:
        if report and state == "done":
            done = sum(queue.states[i] == "done" for i in queue.positions)
            report(done, total, leased.job.label,
                   time.monotonic() - started)

    workers = min(jobs, queue.states.count("pending"))
    _drain(queue, finished, note, jobs=max(1, workers), timeout=timeout)
    return [queue.results[i] for i in queue.positions]  # type: ignore[misc]


def run_grid(base: RunJob, axes: Mapping[str, Sequence[Any]],
             run: Callable[..., List[RunResult]] = run_jobs,
             label: Optional[Callable[[Dict[str, Any]], str]] = None,
             **run_kwargs: Any) -> Dict[tuple, RunResult]:
    """Run ``base.at(point)`` for every point of :func:`grid` ``(axes)`` in
    one ``run(jobs_list, **run_kwargs)`` batch (:func:`run_jobs` by
    default), each job labelled ``label(point)`` if given.

    Returns each result keyed by its point's values in axis order, in
    grid order, so callers read results by point, never by position.
    """
    points = grid(axes)
    jobs_list = [base.at(point if label is None
                         else {**point, "label": label(point)})
                 for point in points]
    results = run(jobs_list, **run_kwargs)
    return {tuple(point.values()): result
            for point, result in zip(points, results)}
