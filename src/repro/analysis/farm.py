"""The experiment farm: a shared work queue + result store over RunJobs.

The farm lifts :mod:`repro.analysis.parallel`'s jobs into a *shared
directory*, so any number of workers on any number of hosts can serve
one sweep:

- :class:`JobQueue` — a SQLite queue (``<dir>/queue.sqlite``) with
  lease/heartbeat/reclaim semantics: a job whose lease expires (worker
  killed, host lost) returns to ``pending`` for someone else.  A job
  that raises a simulator or config error parks as ``failed`` with its
  error at once; one that hits a host fault does so after
  :data:`MAX_ATTEMPTS` tries.  A row enqueued by other code parks as
  ``failed`` when a worker reaches it, instead of running again.
- the result store (``<dir>/results/``) — the parallel runner's on-disk
  cache format, so farm and ``run_jobs`` results are interchangeable
  bit-for-bit and enqueueing an already-cached job completes it at once.
  Warmup checkpoints are shared through the same directory, so a whole
  farm warms each workload once.
- :func:`run_worker` (``repro farm worker``) and :func:`serve_queue`
  (``repro farm run``) drain the queue through the parallel module's
  one drain loop; they differ only in when they stop.
- :func:`run_farm` — expand a spec, enqueue it and serve it.  Without a
  ``queue_dir`` it is a plain :func:`~repro.analysis.parallel.run_jobs`
  call, with bit-identical results.

Wall-clock reads and threads live in the analysis layer, where SIM003
permits them; simulated time never sees any of this.
"""

from __future__ import annotations

import os
import pickle
import socket
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.runner import RunResult
from .parallel import (MAX_ATTEMPTS, POLL_S, LeasedJob, ProgressFn, RunJob,
                       _cache_load, _cache_store, _drain, job_hash, run_jobs,
                       state_after_failure)
from .spec import ExperimentSpec, render_outputs

__all__ = ["FarmError", "JobQueue", "LeasedJob", "QueueStatus",
           "MAX_ATTEMPTS", "collect_results", "format_status",
           "queue_status", "results_dir", "run_farm", "run_worker",
           "serve_queue", "write_outputs"]

DEFAULT_LEASE_S = 60.0

STATES = ("pending", "leased", "done", "failed")


#: the error of a queue row whose job this code would not run as enqueued
OTHER_CODE_ERROR = "enqueued by other code"


class FarmError(RuntimeError):
    """A farm run cannot complete (failed jobs, missing results, ...)."""


def _job_of_this_code(blob: bytes, digest: str) -> Optional[RunJob]:
    """The job a queue row holds, or None when the row was enqueued by
    other code: the blob does not unpickle here, or the job re-hashes
    to another digest, so its result would land under another key."""
    try:
        job = pickle.loads(blob)
        return job if job_hash(job) == digest else None
    except Exception:
        # pickle surfaces a foreign layout as almost any exception type.
        return None


def results_dir(queue_dir: str) -> str:
    """The queue's shared result store (parallel-cache format)."""
    return os.path.join(queue_dir, "results")


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
        self.store_dir = results_dir(queue_dir)
        os.makedirs(self.store_dir, exist_ok=True)
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

        Jobs are keyed by :func:`job_hash`: the job and the code that
        runs it.  A job whose result already sits in the result store is
        recorded as ``done`` immediately — re-running a spec over a warm
        store only executes what is missing.
        """
        now = time.time() if now is None else now
        new = known = 0
        with closing(self._connect()) as conn, conn:
            for job in jobs:
                digest = job_hash(job)
                state = "pending"
                finished = None
                if _cache_load(self.store_dir, job) is not None:
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
        lapses — no separate janitor required.  A row enqueued by other
        code (its job does not unpickle, or re-hashes under
        :func:`job_hash` to another digest) is parked ``failed`` with
        :data:`OTHER_CODE_ERROR` in the same transaction, and the lease
        moves on to the next pending row.
        """
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            conn.execute("BEGIN IMMEDIATE")
            self._reclaim(conn, now)
            while True:
                row = conn.execute(
                    "SELECT hash, job, attempts FROM jobs "
                    "WHERE state = 'pending' ORDER BY enqueued_at, hash "
                    "LIMIT 1").fetchone()
                if row is None:
                    return None
                digest, blob, attempts = row
                job = _job_of_this_code(blob, digest)
                if job is not None:
                    break
                conn.execute(
                    "UPDATE jobs SET state = 'failed', error = ?, "
                    "finished_at = ? WHERE hash = ?",
                    (OTHER_CODE_ERROR, now, digest))
            conn.execute(
                "UPDATE jobs SET state = 'leased', worker = ?, "
                "lease_expires = ?, attempts = ? WHERE hash = ?",
                (worker, now + lease_s, attempts + 1, digest))
        return LeasedJob(hash=digest, job=job, attempts=attempts + 1)

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

    def store(self, leased: LeasedJob, result: RunResult) -> None:
        """Write a leased job's result to the shared result store."""
        _cache_store(self.store_dir, leased.job, result)

    def complete(self, digest: str, worker: str,
                 now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            conn.execute(
                "UPDATE jobs SET state = 'done', finished_at = ?, "
                "error = NULL WHERE hash = ? AND worker = ? "
                "AND state = 'leased'", (now, digest, worker))

    def fail(self, digest: str, worker: str, error: str, host_fault: bool,
             now: Optional[float] = None) -> str:
        """Record a failure: a host fault goes back to ``pending`` while
        attempts remain, anything else parks as ``failed``
        (:func:`state_after_failure`).  Returns the new state."""
        now = time.time() if now is None else now
        with closing(self._connect()) as conn, conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT attempts FROM jobs WHERE hash = ? AND worker = ? "
                "AND state = 'leased'", (digest, worker)).fetchone()
            if row is None:
                return "lost"           # reclaimed from under us
            state = state_after_failure(row[0], host_fault)
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
# the queue's consumers: repro farm worker and repro farm run
# ---------------------------------------------------------------------------

def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(queue_dir: str, worker_id: Optional[str] = None,
               lease_s: float = DEFAULT_LEASE_S, poll_s: float = POLL_S,
               max_jobs: Optional[int] = None, wait: bool = False,
               timeout: Optional[float] = None,
               log: Optional[Callable[[str], None]] = None) -> int:
    """Serve a queue directory: lease -> execute -> store -> complete.

    Returns the number of jobs this worker executed.  Exits when the
    queue has nothing pending or leased (unless ``wait``, which polls
    forever — the many-host deployment mode), or after ``max_jobs``.
    Failures are recorded in the queue (a host fault is retried up to
    :data:`MAX_ATTEMPTS` times) and never raised: one poisonous job must
    not take a farm worker down with it.  Jobs execute in-process, so the
    points of a sweep fork from one warm base in memory.
    """
    queue = JobQueue(queue_dir)
    worker = worker_id or default_worker_id()
    log = log or (lambda _line: None)

    def idle_or_full(executed: int) -> bool:
        if max_jobs is not None and executed >= max_jobs:
            return True
        counts = queue.status().counts
        return not wait and counts["pending"] + counts["leased"] == 0

    def note(leased: LeasedJob, state: str, error: str) -> None:
        label = leased.job.label
        if state == "leased":
            log(f"[{worker}] run {label} (attempt {leased.attempts})")
        elif state == "done":
            log(f"[{worker}] done {label}")
        else:
            log(f"[{worker}] FAIL {label}: {error} -> {state}")

    return _drain(queue, idle_or_full, note, timeout=timeout, worker=worker,
                  lease_s=lease_s, poll_s=poll_s)


def serve_queue(queue_dir: str, jobs_list: Sequence[RunJob],
                jobs: int = 1, lease_s: float = DEFAULT_LEASE_S,
                timeout: Optional[float] = None,
                progress: Optional[ProgressFn] = None) -> None:
    """Serve a queue with ``jobs`` local workers until every job of
    ``jobs_list`` is done; raises :class:`FarmError` on a permanent
    failure.  External ``repro farm worker`` processes may serve the
    same queue meanwhile.  ``progress`` is ``(done, total, label,
    elapsed)``."""
    queue = JobQueue(queue_dir)
    want = list(dict.fromkeys(job_hash(job) for job in jobs_list))
    started = time.monotonic()

    def all_done(_completed: int) -> bool:
        current = list(queue.states(want).values())
        failed = current.count("failed")
        if failed:
            detail = "; ".join(f"{label}: {error}"
                               for label, error in queue.status().failures)
            raise FarmError(f"{failed} job(s) failed: {detail}")
        return current.count("done") == len(want)

    def note(leased: LeasedJob, state: str, _error: str) -> None:
        if progress and state == "done":
            done = list(queue.states(want).values()).count("done")
            progress(done, len(want), leased.job.label,
                     time.monotonic() - started)

    _drain(queue, all_done, note, jobs=max(1, jobs), timeout=timeout,
           worker=f"local-{os.getpid()}", lease_s=lease_s)


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
             progress: Optional[ProgressFn] = None) -> FarmRunReport:
    """Execute a spec end to end and emit its declared outputs.

    With a ``queue_dir`` the jobs go through the shared queue and
    :func:`serve_queue` — other ``repro farm worker`` processes (any host
    sharing the directory) may serve the same queue concurrently, and
    results land in the shared store.  Without one, this is exactly
    ``run_jobs`` over the expansion (the single-host degenerate case).
    Either way, results come back in spec expansion order and are
    bit-identical for a fixed spec.
    """
    jobs_list = spec.jobs()
    if queue_dir is None:
        results = run_jobs(jobs_list, jobs=jobs, cache_dir=cache_dir,
                           timeout=timeout, progress=progress)
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
