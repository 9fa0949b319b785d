"""Parameter-sweep utility: run a grid of configuration variants over one
workload and collect the metrics of interest.

Used by the CLI's ``sweep`` subcommand; :func:`grid_overrides` is also
the one grid expander behind the farm's spec matrices.  Sweepable fields
address nested config dataclasses with dotted paths
(``emc.num_contexts``, ``dram.channels``, ``llc.latency``).

Grid points are independent simulations, so :func:`sweep_jobs` routes
them through the parallel experiment executor
(:mod:`repro.analysis.parallel`) and accepts ``jobs``, ``cache_dir``,
and ``progress`` arguments.  With the base job's ``warmup_instrs`` set,
the whole grid shares one warmup: every point forks the same warmed base
machine (prefetcher off, EMC off, no overrides) under its own config —
see ``System.fork`` — so an N-point sweep with a ``cache_dir`` warms up
exactly once, and each point's :attr:`RunResult.fork_carryover` records
how much warmed state survived its config change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..sim.runner import RunResult
from ..uarch.params import get_config_field, set_config_field
from .parallel import RunJob, run_jobs

__all__ = ["SweepPoint", "SweepResult", "get_config_field",
           "grid_overrides", "set_config_field", "sweep_jobs"]


@dataclass
class SweepPoint:
    """One grid point: the overrides applied and the run's results."""

    overrides: Dict[str, Any]
    result: RunResult

    @property
    def performance(self) -> float:
        return self.result.aggregate_ipc


@dataclass
class SweepResult:
    points: List[SweepPoint] = field(default_factory=list)

    def best(self, key: Optional[Callable[[SweepPoint], float]] = None
             ) -> SweepPoint:
        key = key or (lambda p: p.performance)
        return max(self.points, key=key)

    def table(self, metrics: Mapping[str, Callable[[SweepPoint], Any]]
              ) -> List[dict]:
        """Rows of {override fields..., metric columns...}."""
        rows = []
        for point in self.points:
            row = dict(point.overrides)
            for name, fn in metrics.items():
                row[name] = fn(point)
            rows.append(row)
        return rows


def grid_overrides(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Expand a grid into its cross product, in deterministic order."""
    names = list(grid)
    return [dict(zip(names, values))
            for values in itertools.product(*(grid[n] for n in names))]


def sweep_jobs(grid: Mapping[str, Sequence[Any]], base_job: RunJob,
               jobs: int = 1, cache_dir: Optional[str] = None,
               timeout: Optional[float] = None,
               progress=None) -> SweepResult:
    """Run the cross product of ``grid`` as variants of ``base_job``.

    Each point is ``base_job`` with the point's dotted-path overrides
    appended, fanned out through :func:`repro.analysis.parallel.run_jobs`
    (so ``jobs``, ``cache_dir``, ``timeout``, and ``progress`` behave as
    documented there).  Point order — and therefore result order — is the
    deterministic grid cross-product order regardless of worker count.
    """
    all_overrides = grid_overrides(grid)
    jobs_list = []
    for overrides in all_overrides:
        merged = base_job.overrides + tuple(sorted(overrides.items()))
        label = ",".join(f"{k}={v}" for k, v in overrides.items())
        jobs_list.append(replace(base_job, overrides=merged,
                                 label=f"{base_job.label}[{label}]"))
    results = run_jobs(jobs_list, jobs=jobs, cache_dir=cache_dir,
                       timeout=timeout, progress=progress)
    return SweepResult(points=[
        SweepPoint(overrides=o, result=r)
        for o, r in zip(all_overrides, results)])
