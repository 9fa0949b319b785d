"""Dynamic determinism sanitizer: run twice, diff everything.

The static rules catch the *patterns* that break
determinism; this is the cheap end-to-end check that nothing slipped
through: run the same configuration twice with the same seed in one
process and require the full stats tree — every counter, every latency
histogram bucket, every traced stage sum — to match bit for bit.  Any
divergence means hidden cross-run state (the PR-1 bug class), global RNG
use, or iteration over an unordered container leaking into timing, and
the report names the first divergent field so the offender is usually
obvious.

Every gate takes one :class:`~repro.analysis.parallel.RunJob`, the run
description the rest of the tool runs, so a gate checks exactly the
machine a command line describes: :func:`sanitize_determinism` (the
run-twice diff, exposed as ``repro run --sanitize`` too),
:func:`sanitize_parallel_runner`, :func:`sanitize_checkpoint_roundtrip`
and :func:`sanitize_fork_identity` (all four behind ``repro sanitize``).
Each report's label names the job it ran.

:func:`fork_identity_trees` is the component protocol's check: an
identity fork of a machine at cycle 0 must equal it in every live
attribute.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set,
                    Tuple)

if TYPE_CHECKING:
    from ..analysis.parallel import RunJob
    from ..sim.system import System


def flatten_tree(obj: Any, prefix: str = "",
                 out: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Flatten a stats tree into ``{"dotted.path": scalar}``.

    Dataclasses flatten by field, mappings by (sorted) key, sequences by
    index, sets as sorted tuples; scalars pass through.  Properties are
    deliberately ignored — they are derived from the fields already
    captured.
    """
    if out is None:
        out = {}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            name = f"{prefix}.{f.name}" if prefix else f.name
            flatten_tree(getattr(obj, f.name), name, out)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            name = f"{prefix}[{key!r}]"
            flatten_tree(obj[key], name, out)
    elif isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            flatten_tree(item, f"{prefix}[{index}]", out)
    elif isinstance(obj, (set, frozenset)):
        out[prefix] = tuple(sorted(obj, key=repr))
    else:
        out[prefix] = obj
    return out


@dataclass(frozen=True)
class Divergence:
    """First field where the two runs disagreed."""

    field: str
    first: Any
    second: Any


@dataclass
class SanitizeReport:
    """Outcome of a two-run determinism check."""

    deterministic: bool
    fields_compared: int
    divergences: List[Divergence]
    label: str = ""
    #: free-form evidence appended to :meth:`format` (e.g. the
    #: per-component carryover table of a fork-identity check)
    notes: str = ""

    @property
    def first_divergence(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    def format(self, max_divergences: int = 10) -> str:
        if self.deterministic:
            text = (f"determinism sanitizer PASS"
                    f"{f' [{self.label}]' if self.label else ''}: "
                    f"{self.fields_compared} stats fields bit-identical "
                    f"across 2 runs")
            return f"{text}\n{self.notes}" if self.notes else text
        lines = [f"determinism sanitizer FAIL"
                 f"{f' [{self.label}]' if self.label else ''}: "
                 f"{len(self.divergences)} of {self.fields_compared} "
                 f"fields diverged; first divergence:"]
        for div in self.divergences[:max_divergences]:
            lines.append(f"  {div.field}: run1={div.first!r} "
                         f"run2={div.second!r}")
        if len(self.divergences) > max_divergences:
            lines.append(f"  ... and "
                         f"{len(self.divergences) - max_divergences} more")
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def diff_trees(first: Dict[str, Any],
               second: Dict[str, Any]) -> List[Divergence]:
    """All field-level differences between two flattened trees, in key
    order; a key present in only one tree diverges against ``<absent>``."""
    divergences: List[Divergence] = []
    absent = "<absent>"
    for key in sorted(set(first) | set(second)):
        a, b = first.get(key, absent), second.get(key, absent)
        if a is absent or b is absent or a != b or type(a) is not type(b):
            divergences.append(Divergence(key, a, b))
    return divergences


def compare_trees(first: Dict[str, Any], second: Dict[str, Any],
                  label: str = "", notes: str = "") -> SanitizeReport:
    """The report of one gate: every field of two flattened trees
    compared, passing only when none diverges."""
    divergences = diff_trees(first, second)
    return SanitizeReport(
        deterministic=not divergences,
        fields_compared=len(set(first) | set(second)),
        divergences=divergences,
        label=label,
        notes=notes)


def sanitize_runs(run_fn: Callable[[], Any],
                  label: str = "") -> SanitizeReport:
    """Call ``run_fn`` twice and diff the flattened results.

    ``run_fn`` must build everything fresh on each call (config, workload,
    System) — sharing is exactly what the sanitizer exists to catch.  It
    may return any flatten-able tree (a dataclass, dict, or scalar).
    """
    return compare_trees(flatten_tree(run_fn()), flatten_tree(run_fn()),
                         label=label)


def snapshot_run(result, attribution=None) -> Dict[str, Any]:
    """Flatten one :class:`~repro.sim.runner.RunResult` into the tree the
    sanitizer compares: the full stats tree, the DRAM/ring aggregates, and
    (when traced) the per-stage attribution sums."""
    tree: Dict[str, Any] = {}
    flatten_tree(result.stats, "stats", tree)
    tree["dram.accesses"] = result.dram_accesses
    tree["dram.reads"] = result.dram_reads
    tree["dram.row_conflict_rate"] = result.dram_row_conflict_rate
    tree["ring.messages"] = result.ring_messages
    flatten_tree(list(result.per_core_ipc), "per_core_ipc", tree)
    attribution = (attribution if attribution is not None
                   else result.latency_attribution)
    if attribution is not None:
        flatten_tree(attribution, "trace.attribution", tree)
    return tree


#: job fields a gate label names up front (or, for ``trace`` and the
#: display ``label``, never)
_LABEL_FIXED = frozenset({"workload", "n_instrs", "seed", "warmup_instrs",
                          "overrides", "trace", "label"})


def _job_label(job: RunJob) -> str:
    """Name a gate's job: workload, ``n``, seed and warmup, then every
    other field that differs from its default, then the dotted
    overrides."""
    from ..analysis.parallel import RunJob
    default = RunJob(job.workload, job.n_instrs)
    words = [":".join(map(str, job.workload)), f"n={job.n_instrs}",
             f"seed={job.seed}", f"warmup={job.warmup_instrs}"]
    words += [f"{f.name}={getattr(job, f.name)}"
              for f in dataclasses.fields(job) if f.name not in _LABEL_FIXED
              and getattr(job, f.name) != getattr(default, f.name)]
    words += [f"{path}={value}" for path, value in job.overrides]
    return " ".join(words)


def sanitize_determinism(job: RunJob) -> SanitizeReport:
    """Two-run determinism check of one job.

    Each run builds config, workload and System from scratch and warms
    under the job's own config
    (:func:`~repro.analysis.parallel.run_direct`).  A traced job
    (``job.trace``) compares the traced stage sums too, so the check also
    covers the tracing subsystem's own determinism; a job with
    ``warmup_instrs`` puts the warmup boundary under the gate.
    """
    from ..analysis.parallel import run_direct
    return sanitize_runs(lambda: snapshot_run(run_direct(job)),
                         label=_job_label(job))


# ---------------------------------------------------------------------------
# component-state flattening (snapshot-level divergence localization)
# ---------------------------------------------------------------------------

#: recursion ceiling for :func:`flatten_state`; deeper nesting flattens to
#: a marker rather than chasing arbitrarily linked object graphs
STATE_MAX_DEPTH = 16

_SCALARS = (bool, int, float, str, bytes, type(None))


def flatten_state(obj: Any, prefix: str = "",
                  out: Optional[Dict[str, Any]] = None,
                  _depth: int = 0,
                  _seen: Optional[Set[int]] = None) -> Dict[str, Any]:
    """Flatten an arbitrary state tree (e.g. ``System.snapshot()``) into
    ``{"component.path[key]": scalar}`` for divergence localization.

    Tolerant where :func:`flatten_tree` is strict: any object exposing
    ``__dict__`` or ``__slots__`` recurses by (sorted) attribute, cycles
    flatten to a ``<cycle>`` marker, nesting beyond
    :data:`STATE_MAX_DEPTH` flattens to ``<max-depth>``, callable leaves
    (C event objects, which expose neither) flatten to their type name,
    and any other leaf that is neither a scalar nor a container to
    ``repr()`` — so no ``id()``-dependent value reaches the output.
    """
    if out is None:
        out = {}
    if _seen is None:
        _seen = set()
    key = prefix or "<root>"
    if isinstance(obj, enum.Enum):
        out[key] = f"{type(obj).__name__}.{obj.name}"
        return out
    if isinstance(obj, _SCALARS):
        out[key] = obj
        return out
    if _depth >= STATE_MAX_DEPTH:
        out[key] = "<max-depth>"
        return out
    oid = id(obj)
    if oid in _seen:
        out[key] = "<cycle>"
        return out
    _seen.add(oid)
    try:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                flatten_state(getattr(obj, f.name),
                              f"{key}.{f.name}" if prefix else f.name,
                              out, _depth + 1, _seen)
        elif isinstance(obj, dict):
            if isinstance(obj, OrderedDict):
                # Insertion order IS state for OrderedDicts (LRU stacks,
                # FIFO TLBs): two snapshots with the same key/value pairs
                # in different recency order must diverge here.
                out[f"{key}<order>"] = tuple(repr(k) for k in obj)
            for k in sorted(obj, key=repr):
                flatten_state(obj[k], f"{key}[{k!r}]", out,
                              _depth + 1, _seen)
        elif isinstance(obj, (list, tuple, deque)):
            for index, item in enumerate(obj):
                flatten_state(item, f"{key}[{index}]", out,
                              _depth + 1, _seen)
        elif isinstance(obj, (set, frozenset)):
            out[key] = tuple(sorted(map(repr, obj)))
        elif hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
            names = (sorted(vars(obj)) if hasattr(obj, "__dict__")
                     else sorted(s for s in type(obj).__slots__
                                 if hasattr(obj, s)))
            label = f"{key}<{type(obj).__name__}>" if prefix else key
            for name in names:
                flatten_state(getattr(obj, name), f"{label}.{name}",
                              out, _depth + 1, _seen)
        elif callable(obj):
            out[key] = type(obj).__name__
        else:
            out[key] = repr(obj)
    finally:
        _seen.discard(oid)
    return out


def fork_identity_trees(parent: System
                        ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The live state of ``parent`` and of its no-override fork, flattened
    from the two ``System`` objects themselves, plus one
    ``carryover[path]`` entry per reseated component (``kept/total`` for
    the fork, ``total/total`` for the parent).

    ``parent`` must be at cycle 0 (fresh, or at the warmup/measure
    boundary).  The two trees are equal exactly when the fork carries
    every bit of warmed state and every statistic of ``parent`` sits at
    its construction value, as it does in the freshly built fork: a
    snapshot that drops an attribute, a ``reset_stats`` that misses a
    counter and a ``reseat`` that misreads ``config_state()`` all show up
    as a differing field (or an exception), in whatever class they sit.
    """
    fork, report = parent.fork()
    first = flatten_state(parent, "system")
    second = flatten_state(fork, "system")
    for path, (kept, total) in report.entries.items():
        first[f"carryover[{path}]"] = f"{total}/{total}"
        second[f"carryover[{path}]"] = f"{kept}/{total}"
    return first, second


def diff_system_states(first: Any, second: Any,
                       label: str = "") -> SanitizeReport:
    """Diff two state trees (``System.snapshot()`` dicts or any two
    component snapshots), localizing each divergence to a component +
    field path — e.g. ``cores[2].l1.sets[14][...]`` — so a checkpoint or
    determinism failure names the offending structure directly."""
    return compare_trees(flatten_state(first), flatten_state(second),
                         label=label)


# ---------------------------------------------------------------------------
# end-to-end gates: parallel runner & checkpoint round trip
# ---------------------------------------------------------------------------

def sanitize_parallel_runner(job: RunJob, jobs: int = 2) -> SanitizeReport:
    """Serial vs parallel-runner equivalence gate (``--jobs`` mode).

    Runs ``job`` untraced with the EMC as given and flipped, through
    :func:`~repro.analysis.parallel.run_jobs` once with ``jobs=1``
    (in-process) and once with ``jobs=N`` (worker processes), then
    requires every result bit-identical.  Divergence means the worker
    path leaks state the serial path does not (or vice versa).
    """
    from ..analysis.parallel import run_jobs

    batch = [replace(job, emc=on, trace=False)
             for on in (job.emc, not job.emc)]
    serial = run_jobs(batch, jobs=1)
    parallel = run_jobs(batch, jobs=jobs)
    first: Dict[str, Any] = {}
    second: Dict[str, Any] = {}
    for index, (a, b) in enumerate(zip(serial, parallel)):
        for tree, result in ((first, a), (second, b)):
            for field, value in snapshot_run(result).items():
                tree[f"job{index}.{field}"] = value
    return compare_trees(first, second,
                         label=f"serial-vs-jobs={jobs} {_job_label(job)}")


def sanitize_checkpoint_roundtrip(job: RunJob) -> SanitizeReport:
    """Checkpoint/resume bit-identity gate.

    Run 1 warms ``job`` up inline, writes the boundary checkpoint, and
    measures; run 2 resumes from that checkpoint file and measures.  The
    full result tree (every stats counter, and the traced attribution
    when ``job.trace``) must match bit for bit — the warmed machine state
    must be indistinguishable from its pickled round trip.  A job without
    ``warmup_instrs`` warms for a quarter of ``n_instrs``.
    """
    import os
    import tempfile

    from ..analysis.parallel import build_job_config, build_job_workload
    from ..sim.runner import run_built
    from ..sim.system import System
    from ..trace import Tracer

    job = replace(job, warmup_instrs=job.warmup_instrs
                  or max(1, job.n_instrs // 4))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "warmup-boundary.ckpt")
        system = System(build_job_config(job), build_job_workload(job),
                        tracer=Tracer() if job.trace else None)
        system.warmup(job.warmup_instrs)
        system.checkpoint(checkpoint)
        first = snapshot_run(run_built(system))
        resumed = System.from_checkpoint(
            checkpoint, tracer=Tracer() if job.trace else None)
        second = snapshot_run(run_built(resumed))
    return compare_trees(first, second,
                         label=f"checkpoint-roundtrip {_job_label(job)}")


def sanitize_fork_identity(job: RunJob) -> SanitizeReport:
    """Fork/reseat contract gate (``repro sanitize --fork-identity``).

    Three parts, each contributing prefixed divergences:

    - ``identity.*`` — forking with **no** overrides must reproduce the
      live parent machine bit for bit (:func:`fork_identity_trees`:
      every attribute, including OrderedDict recency order and every
      statistic) with every carryover ratio at 1.0; the fork's pickle
      round trip doubles as a serialization-identity check.
    - ``inert.*`` — forking under *warmup-inert* overrides (``emc.*``
      sizing while the EMC stays disabled) must produce the same measured
      statistics as warming a fresh machine under the overridden config:
      configuration that cannot influence the warmup trajectory must not
      influence the forked machine either.
    - ``fork-determinism.*`` — forking twice under *aggressive* overrides
      (EMC on, a prefetcher, an L1 resize, DRAM timing) must yield
      bit-identical machines, and the forked machine must run to
      completion.  Timing-affecting overrides legitimately change what a
      fresh warmup would have produced, so this part checks determinism
      and viability, not equality with a from-scratch warmup; the
      per-component carryover table lands in the report's ``notes``.

    Every machine is ``job``'s, untraced.  Part 1 holds ``job``'s own
    EMC, predictor and prefetcher; parts 2 and 3 run with no prefetcher
    and the EMC off whatever ``job`` says, since the inert overrides are
    inert only while the EMC is off.  A job without ``warmup_instrs``
    warms for half of ``n_instrs``.
    """
    from ..analysis.parallel import (build_job_config, build_job_workload,
                                     run_direct)
    from ..sim.runner import run_built
    from ..sim.system import System

    job = replace(job, trace=False, warmup_instrs=job.warmup_instrs
                  or max(1, job.n_instrs // 2))
    neutral = replace(job, prefetcher="none", emc=False)

    def warmed_parent(job: RunJob) -> System:
        system = System(build_job_config(job), build_job_workload(job))
        system.warmup(job.warmup_instrs)
        return system

    first: Dict[str, Any] = {}
    second: Dict[str, Any] = {}

    def compare(part: str, a: Dict[str, Any], b: Dict[str, Any]) -> None:
        first.update((f"{part}.{key}", value) for key, value in a.items())
        second.update((f"{part}.{key}", value) for key, value in b.items())

    # -- part 1: no-override fork is the identity -----------------------
    compare("identity", *fork_identity_trees(warmed_parent(job)))

    # -- part 2: warmup-inert overrides match a from-scratch warmup -----
    inert = {"emc.num_contexts": 4, "emc.data_cache_ways": 8}
    forked, _ = warmed_parent(neutral).fork(inert)
    compare("inert", snapshot_run(run_built(forked)),
            snapshot_run(run_direct(neutral.at(inert))))

    # -- part 3: aggressive forks are deterministic and viable ----------
    aggressive = {"emc.enabled": True, "prefetch.kind": "stream",
                  "l1.ways": 4, "dram.t_cas": 20}
    parent = warmed_parent(neutral)
    fork_a, report_a = parent.fork(aggressive)
    fork_b, _ = parent.fork(aggressive)
    compare("fork-determinism", flatten_state(fork_a.snapshot()),
            flatten_state(fork_b.snapshot()))
    fork_a.run()                        # raises on deadlock/timeout

    return compare_trees(first, second,
                         label=f"fork-identity {_job_label(job)}",
                         notes="aggressive-fork " + report_a.format())
