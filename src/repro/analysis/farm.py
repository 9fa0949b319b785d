"""The experiment farm: a shared work queue + result store over RunJobs.

:mod:`repro.analysis.parallel` fans a job list across one host's
processes; the farm lifts the same jobs into a *shared directory* so a
sweep can be served by any number of workers on any number of hosts:

- :class:`JobQueue` — a SQLite-backed queue (``<dir>/queue.sqlite``)
  with **lease/heartbeat/reclaim** semantics: a worker leases one job at
  a time, renews the lease while executing, and a job whose lease
  expires (worker killed, host lost) silently returns to ``pending`` for
  someone else.  A job that fails :data:`MAX_ATTEMPTS` times parks as
  ``failed`` with its error, mirroring the parallel runner's retry-once
  policy.
- the **result store** (``<dir>/results/``) — exactly the parallel
  runner's on-disk cache format (one ``run-<hash>.pkl`` per
  :func:`~repro.analysis.parallel.job_hash`, atomic writes), so farm
  results and ``run_jobs`` results are interchangeable bit-for-bit, and
  enqueueing a job whose result is already cached completes instantly.
  Warmup checkpoints (``warmup-ckpt/``) are shared through the same
  directory, so a whole farm warms each workload once.
- :func:`run_worker` — the ``repro farm worker`` loop: lease, execute,
  store, complete; exits when the queue drains (or polls forever with
  ``wait=True``).
- :func:`run_farm` — ``repro farm run``: expand a spec, enqueue it, and
  serve it with an **async scheduler** (:func:`serve_queue`) that
  multiplexes leasing, dispatching into a local process pool,
  heartbeating in-flight leases, and reclaiming lost ones on one event
  loop.  Without a ``queue_dir`` it degenerates to a plain
  :func:`~repro.analysis.parallel.run_jobs` call — the single-host path
  and the farm path produce bit-identical results either way.

Wall-clock reads and threads live here in the analysis layer, where
SIM003 permits them; simulated time never sees any of this.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import socket
import sqlite3
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..sim.runner import RunResult
from .parallel import (RunJob, WarmBase, _cache_load, _cache_store,
                       _execute_with_timeout, job_hash)
from .spec import ExperimentSpec, render_outputs

__all__ = ["FarmError", "JobQueue", "LeasedJob", "QueueStatus",
           "MAX_ATTEMPTS", "collect_results", "format_status",
           "queue_status", "results_dir", "run_farm", "run_worker",
           "serve_queue", "write_outputs"]

#: attempts before a job parks as failed (1 initial + 1 retry, matching
#: the parallel runner's retry-once policy)
MAX_ATTEMPTS = 2
DEFAULT_LEASE_S = 60.0
POLL_S = 0.5

STATES = ("pending", "leased", "done", "failed")


class FarmError(RuntimeError):
    """A farm run cannot complete (failed jobs, missing results, ...)."""


def results_dir(queue_dir: str) -> str:
    """The queue's shared result store (parallel-cache format)."""
    return os.path.join(queue_dir, "results")


@dataclass(frozen=True)
class LeasedJob:
    """One leased queue entry: execute it, then complete or fail it."""

    hash: str
    job: RunJob
    attempts: int


@dataclass(frozen=True)
class QueueStatus:
    """Per-state job counts, total and per spec."""

    counts: Mapping[str, int]
    specs: Mapping[str, Mapping[str, int]]
    failures: Tuple[Tuple[str, str], ...] = ()   # (label, error)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def all_done(self) -> bool:
        return self.total > 0 and self.counts.get("done", 0) == self.total


class JobQueue:
    """SQLite work queue in a (possibly network-shared) directory.

    Every operation opens a short-lived connection in WAL mode with a
    busy timeout, so any number of worker processes — on one host or
    many sharing the directory — can lease concurrently without
    corruption; SQLite serializes the tiny queue transactions while the
    long simulation work happens outside any transaction.
    """

    def __init__(self, queue_dir: str):
        self.queue_dir = queue_dir
        self.db_path = os.path.join(queue_dir, "queue.sqlite")
        os.makedirs(results_dir(queue_dir), exist_ok=True)
        with closing(self._connect()) as conn, conn:
            conn.execute("""
                CREATE TABLE IF NOT EXISTS jobs (
                    hash          TEXT PRIMARY KEY,
                    spec          TEXT NOT NULL,
                    label         TEXT NOT NULL,
                    job           BLOB NOT NULL,
                    state         TEXT NOT NULL,
                    worker        TEXT,
                    lease_expires REAL,
                    attempts      INTEGER NOT NULL DEFAULT 0,
                    error         TEXT,
                    enqueued_at   REAL NOT NULL,
                    finished_at   REAL
                )""")
            conn.execute("CREATE INDEX IF NOT EXISTS jobs_state "
                         "ON jobs (state)")

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.db_path, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    # -- producing ---------------------------------------------------------

    def enqueue(self, jobs: Sequence[RunJob], spec_name: str = "",
                now: Optional[float] = None) -> Tuple[int, int]:
        """Idempotently add jobs; returns ``(new, already_known)``.

        A job whose result already sits in the result store is recorded
        as ``done`` immediately — re-running a spec over a warm store
        only executes what is missing.
        """
        now = time.time() if now is None else now
        new = known = 0
        with closing(self._connect()) as conn, conn:
            for job in jobs:
                digest = job_hash(job)
                state = "pending"
                finished = None
                if _cache_load(results_dir(self.queue_dir), job) is not None:
                    state, finished = "done", now
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO jobs (hash, spec, label, job, "
                    "state, attempts, enqueued_at, finished_at) "
                    "VALUES (?, ?, ?, ?, ?, 0, ?, ?)",
                    (digest, spec_name, job.label,
                     pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL),
                     state, now, finished))
                if cursor.rowcount:
                    new += 1
                else:
                    known += 1
        return new, known

    # -- worker side -------------------------------------------------------

    def lease(self, worker: str, lease_s: float = DEFAULT_LEASE_S,
              now: Optional[float] = None) -> Optional[LeasedJob]:
        """Atomically claim the oldest runnable job, or None.

        Expired leases are reclaimed inside the same transaction, so a
        killed worker's job is immediately up for grabs once its lease
        lapses — no separate janitor required.
        """
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            conn.execute("BEGIN IMMEDIATE")
            self._reclaim(conn, now)
            row = conn.execute(
                "SELECT hash, job, attempts FROM jobs "
                "WHERE state = 'pending' ORDER BY enqueued_at, hash "
                "LIMIT 1").fetchone()
            if row is None:
                return None
            digest, blob, attempts = row
            conn.execute(
                "UPDATE jobs SET state = 'leased', worker = ?, "
                "lease_expires = ?, attempts = ? WHERE hash = ?",
                (worker, now + lease_s, attempts + 1, digest))
        return LeasedJob(hash=digest, job=pickle.loads(blob),
                         attempts=attempts + 1)

    def heartbeat(self, digest: str, worker: str,
                  lease_s: float = DEFAULT_LEASE_S,
                  now: Optional[float] = None) -> bool:
        """Renew a lease; False if the job is no longer ours (lease was
        reclaimed and someone else took it, or it finished)."""
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires = ? "
                "WHERE hash = ? AND worker = ? AND state = 'leased'",
                (now + lease_s, digest, worker))
            return bool(cursor.rowcount)

    def complete(self, digest: str, worker: str,
                 now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            conn.execute(
                "UPDATE jobs SET state = 'done', finished_at = ?, "
                "error = NULL WHERE hash = ? AND worker = ? "
                "AND state = 'leased'", (now, digest, worker))

    def fail(self, digest: str, worker: str, error: str,
             now: Optional[float] = None) -> str:
        """Record a failure: back to ``pending`` while attempts remain,
        else park as ``failed``.  Returns the new state."""
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT attempts FROM jobs WHERE hash = ? AND worker = ? "
                "AND state = 'leased'", (digest, worker)).fetchone()
            if row is None:
                return "lost"           # reclaimed from under us
            state = "failed" if row[0] >= MAX_ATTEMPTS else "pending"
            conn.execute(
                "UPDATE jobs SET state = ?, error = ?, worker = NULL, "
                "lease_expires = NULL, finished_at = ? WHERE hash = ?",
                (state, error, now if state == "failed" else None,
                 digest))
            return state

    def reclaim_expired(self, now: Optional[float] = None) -> int:
        """Return jobs with lapsed leases to ``pending``; count them."""
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            return self._reclaim(conn, now)

    @staticmethod
    def _reclaim(conn: sqlite3.Connection, now: float) -> int:
        cursor = conn.execute(
            "UPDATE jobs SET state = 'pending', worker = NULL, "
            "lease_expires = NULL WHERE state = 'leased' "
            "AND lease_expires < ?", (now,))
        return cursor.rowcount

    # -- observing ---------------------------------------------------------

    def states(self, hashes: Sequence[str]) -> Dict[str, str]:
        if not hashes:
            return {}
        with closing(self._connect()) as conn:
            marks = ",".join("?" * len(hashes))
            rows = conn.execute(
                f"SELECT hash, state FROM jobs WHERE hash IN ({marks})",
                list(hashes)).fetchall()
        return dict(rows)

    def status(self) -> QueueStatus:
        with closing(self._connect()) as conn:
            counts = {state: 0 for state in STATES}
            for state, n in conn.execute(
                    "SELECT state, COUNT(*) FROM jobs GROUP BY state"):
                counts[state] = n
            specs: Dict[str, Dict[str, int]] = {}
            for spec, state, n in conn.execute(
                    "SELECT spec, state, COUNT(*) FROM jobs "
                    "GROUP BY spec, state ORDER BY spec"):
                specs.setdefault(spec, {s: 0 for s in STATES})[state] = n
            failures = tuple(conn.execute(
                "SELECT label, error FROM jobs WHERE state = 'failed' "
                "ORDER BY enqueued_at, hash"))
        return QueueStatus(counts=counts, specs=specs, failures=failures)


# ---------------------------------------------------------------------------
# the standalone worker loop (repro farm worker)
# ---------------------------------------------------------------------------

def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _LeaseKeeper:
    """Background thread renewing one lease while its job executes."""

    def __init__(self, queue: JobQueue, digest: str, worker: str,
                 lease_s: float):
        self._queue = queue
        self._digest = digest
        self._worker = worker
        self._lease_s = lease_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._lease_s / 3):
            if not self._queue.heartbeat(self._digest, self._worker,
                                         self._lease_s):
                return              # lease lost; nothing left to renew

    def __enter__(self) -> "_LeaseKeeper":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_worker(queue_dir: str, worker_id: Optional[str] = None,
               lease_s: float = DEFAULT_LEASE_S, poll_s: float = POLL_S,
               max_jobs: Optional[int] = None, wait: bool = False,
               timeout: Optional[float] = None,
               log: Optional[Callable[[str], None]] = None) -> int:
    """Serve a queue directory: lease -> execute -> store -> complete.

    Returns the number of jobs this worker executed.  Exits when the
    queue has nothing pending or leased (unless ``wait``, which polls
    forever — the many-host deployment mode), or after ``max_jobs``.
    Failures are recorded in the queue (with automatic retry up to
    :data:`MAX_ATTEMPTS`), never raised: one poisonous job must not take
    a farm worker down with it.

    The lease loop owns one :class:`~repro.analysis.parallel.WarmBase`
    slot: the warm base of the last leased sweep point stays in memory,
    so consecutive points of one sweep fork from it instead of reloading
    the shared warmup checkpoint from the store.
    """
    queue = JobQueue(queue_dir)
    worker = worker_id or default_worker_id()
    store = results_dir(queue_dir)
    warm_base = WarmBase()
    log = log or (lambda _line: None)
    executed = 0
    while max_jobs is None or executed < max_jobs:
        leased = queue.lease(worker, lease_s)
        if leased is None:
            status = queue.status()
            busy = (status.counts.get("pending", 0)
                    + status.counts.get("leased", 0))
            if busy == 0 and not wait:
                break
            time.sleep(poll_s)
            continue
        log(f"[{worker}] run {leased.job.label} "
            f"(attempt {leased.attempts})")
        with _LeaseKeeper(queue, leased.hash, worker, lease_s):
            try:
                result = _execute_with_timeout(leased.job, timeout, store,
                                               warm_base)
            except Exception as exc:
                state = queue.fail(leased.hash, worker, repr(exc))
                log(f"[{worker}] FAIL {leased.job.label}: {exc!r} "
                    f"-> {state}")
                continue
        _cache_store(store, leased.job, result)
        queue.complete(leased.hash, worker)
        executed += 1
        log(f"[{worker}] done {leased.job.label}")
    return executed


# ---------------------------------------------------------------------------
# the async local scheduler (repro farm run)
# ---------------------------------------------------------------------------

async def _serve(queue: JobQueue, want: Dict[str, RunJob], jobs: int,
                 lease_s: float, timeout: Optional[float],
                 progress: Optional[Callable[[int, int, str], None]]
                 ) -> None:
    """One event loop multiplexing lease/dispatch/heartbeat/reclaim.

    Dispatches into a local :class:`ProcessPoolExecutor` while the queue
    stays authoritative: external ``repro farm worker`` processes can
    serve the same directory concurrently and the loop simply observes
    their jobs flipping to ``done``.
    """
    loop = asyncio.get_running_loop()
    worker = f"local-pool-{os.getpid()}"
    store = results_dir(queue.queue_dir)
    inflight: Dict[Any, LeasedJob] = {}        # future -> lease
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while True:
            states = queue.states(list(want))
            done = sum(1 for s in states.values() if s == "done")
            failed = [h for h, s in states.items() if s == "failed"]
            if failed:
                status = queue.status()
                detail = "; ".join(f"{label}: {error}"
                                   for label, error in status.failures)
                raise FarmError(
                    f"{len(failed)} job(s) failed after {MAX_ATTEMPTS} "
                    f"attempts: {detail}")
            if done == len(want):
                return
            while len(inflight) < jobs:
                leased = queue.lease(worker, lease_s)
                if leased is None:
                    break
                future = loop.run_in_executor(
                    pool, _execute_with_timeout, leased.job, timeout,
                    store)
                inflight[future] = leased
            if not inflight:
                # someone else holds the remaining leases; watch for
                # their completion (or their lease expiring)
                await asyncio.sleep(POLL_S)
                continue
            ready, _pending = await asyncio.wait(
                set(inflight), timeout=max(lease_s / 3, 0.05),
                return_when=asyncio.FIRST_COMPLETED)
            for future in ready:
                leased = inflight.pop(future)
                error = future.exception()
                if error is not None:
                    queue.fail(leased.hash, worker, repr(error))
                else:
                    _cache_store(store, leased.job, future.result())
                    queue.complete(leased.hash, worker)
                    if progress:
                        states = queue.states(list(want))
                        progress(sum(1 for s in states.values()
                                     if s == "done"),
                                 len(want), leased.job.label)
            for leased in inflight.values():
                queue.heartbeat(leased.hash, worker, lease_s)


def serve_queue(queue_dir: str, jobs_list: Sequence[RunJob],
                jobs: int = 1, lease_s: float = DEFAULT_LEASE_S,
                timeout: Optional[float] = None,
                progress: Optional[Callable[[int, int, str], None]] = None
                ) -> None:
    """Serve ``jobs_list`` from a queue with a local async pool, until
    every job is done (raises :class:`FarmError` on permanent failures)."""
    queue = JobQueue(queue_dir)
    want = {job_hash(job): job for job in jobs_list}
    asyncio.run(_serve(queue, want, max(1, jobs), lease_s, timeout,
                       progress))


def collect_results(queue_dir: str,
                    jobs_list: Sequence[RunJob]) -> List[RunResult]:
    """Load every job's result from the store, in input order.

    Raises :class:`FarmError` naming whatever is missing — report-time
    truth telling beats a partial table.
    """
    store = results_dir(queue_dir)
    results: List[RunResult] = []
    missing: List[str] = []
    for job in jobs_list:
        result = _cache_load(store, job)
        if result is None:
            missing.append(job.label or repr(job.workload))
        else:
            results.append(result)
    if missing:
        raise FarmError(
            f"{len(missing)}/{len(jobs_list)} results missing from "
            f"{store}: {', '.join(missing[:8])}"
            + (" ..." if len(missing) > 8 else "")
            + " (are workers still running? see 'repro farm status')")
    return results


# ---------------------------------------------------------------------------
# run + report
# ---------------------------------------------------------------------------

@dataclass
class FarmRunReport:
    """What a farm run produced: results in spec order + written files."""

    spec: ExperimentSpec
    results: List[RunResult] = field(repr=False, default_factory=list)
    output_paths: List[str] = field(default_factory=list)


def write_outputs(spec: ExperimentSpec, results: Sequence[RunResult],
                  out_dir: str) -> List[str]:
    """Render the spec's declared outputs and write them under
    ``out_dir``; returns the written paths."""
    rendered = render_outputs(spec, results)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for filename, content in rendered.items():
        path = os.path.join(out_dir, filename)
        with open(path, "w") as fh:
            fh.write(content)
        paths.append(path)
    return paths


def run_farm(spec: ExperimentSpec, queue_dir: Optional[str] = None,
             jobs: int = 1, out_dir: Optional[str] = None,
             lease_s: float = DEFAULT_LEASE_S,
             timeout: Optional[float] = None,
             cache_dir: Optional[str] = None,
             progress: Optional[Callable[[int, int, str], None]] = None
             ) -> FarmRunReport:
    """Execute a spec end to end and emit its declared outputs.

    With a ``queue_dir`` the jobs go through the shared queue and the
    async scheduler — other ``repro farm worker`` processes (any host
    sharing the directory) may serve the same queue concurrently, and
    results land in the shared store.  Without one, this is exactly
    ``run_jobs`` over the expansion (the single-host degenerate case).
    Either way, results come back in spec expansion order and are
    bit-identical for a fixed spec.
    """
    jobs_list = spec.jobs()
    if queue_dir is None:
        from .parallel import run_jobs
        results = run_jobs(jobs_list, jobs=jobs, cache_dir=cache_dir,
                           timeout=timeout,
                           progress=(lambda done, total, label, _el:
                                     progress(done, total, label))
                           if progress else None)
    else:
        queue = JobQueue(queue_dir)
        queue.enqueue(jobs_list, spec_name=spec.name)
        serve_queue(queue_dir, jobs_list, jobs=jobs, lease_s=lease_s,
                    timeout=timeout, progress=progress)
        results = collect_results(queue_dir, jobs_list)
    report = FarmRunReport(spec=spec, results=results)
    if out_dir is not None:
        report.output_paths = write_outputs(spec, results, out_dir)
    return report


def queue_status(queue_dir: str) -> QueueStatus:
    """Status of a queue directory (creates nothing beyond the schema)."""
    if not os.path.exists(os.path.join(queue_dir, "queue.sqlite")):
        raise FarmError(f"no queue at {queue_dir} "
                        "(run 'repro farm run --queue-dir' first)")
    return JobQueue(queue_dir).status()


def format_status(status: QueueStatus) -> str:
    lines = [" ".join(f"{state}={status.counts.get(state, 0)}"
                      for state in STATES)
             + f" total={status.total}"]
    for spec, counts in status.specs.items():
        lines.append(f"  {spec or '<unnamed>'}: "
                     + " ".join(f"{state}={counts.get(state, 0)}"
                                for state in STATES))
    for label, error in status.failures:
        lines.append(f"  FAILED {label}: {error}")
    return "\n".join(lines)
