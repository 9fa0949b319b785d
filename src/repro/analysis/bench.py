"""Simulator-throughput microbench (``repro bench``).

Measures how fast the *host* executes one fixed, representative
simulation — simulated cycles and instructions retired per wall-clock
second — NOT simulated performance.  The configuration is pinned (one
quad-core mix, EMC on, stream prefetcher, a warmup window, tracing off)
so the number is comparable across revisions: CI attaches one
``BENCH_<rev>.json`` per run as a non-gating artifact, making simulator
slowdowns visible as a trend instead of a surprise.

Wall-clock reads live here, in the analysis layer, where SIM003 permits
them; the simulation itself never sees host time.  The reported wall
time covers the whole run — warmup plus measure — while the cycle and
instruction counts come from the measured window only, so the rates are
a consistent (if slightly conservative) basis for rev-to-rev comparison,
not an absolute events-per-second claim.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass
from typing import Final, Optional, Tuple

from .parallel import RunJob, run_direct

#: the pinned bench configuration — change it and historical artifacts
#: stop being comparable, so don't
BENCH_MIX = "H4"
BENCH_N_INSTRS = 6000
BENCH_WARMUP = 2000
BENCH_PREFETCHER = "stream"
BENCH_SEED = 1
BENCH_REPEATS = 3

#: the pinned bench run, as the one run description
BENCH_JOB: Final[RunJob] = RunJob(
    workload=("mix", BENCH_MIX), n_instrs=BENCH_N_INSTRS,
    prefetcher=BENCH_PREFETCHER, emc=True, seed=BENCH_SEED,
    warmup_instrs=BENCH_WARMUP)

#: CI trend gate: fail when ``instrs_per_s`` drops more than this
#: fraction below the previous revision's artifact
TREND_REGRESSION_LIMIT = 0.20


@dataclass(frozen=True)
class BenchResult:
    """Best-of-N host-throughput measurement of the pinned bench run."""

    rev: str
    wall_s: float
    cycles_per_s: float
    instrs_per_s: float
    total_cycles: int
    total_instrs: int
    repeats: int
    # The machine the pinned bench ran on, recorded so the trend gate
    # never compares rates across fabrics or machine shapes.  Defaults
    # (trailing, for compatibility with pre-topology artifacts) describe
    # the historical pinned run.
    topology: str = "ring"
    machine: str = "quad"

    def to_json(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        return (f"repro bench [{self.rev}] best of {self.repeats}: "
                f"{self.wall_s:.3f} s wall, "
                f"{self.cycles_per_s:,.0f} cycles/s, "
                f"{self.instrs_per_s:,.0f} instrs/s "
                f"({self.total_cycles} cycles / {self.total_instrs} "
                f"instrs measured)")


def current_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def run_bench(repeats: int = BENCH_REPEATS,
              out_dir: Optional[str] = None
              ) -> Tuple[BenchResult, Optional[str]]:
    """Run the pinned bench ``repeats`` times; keep the fastest.

    Each repetition rebuilds config and workload from scratch (the build
    cost is part of what a revision can regress).  The simulator is
    deterministic, so the simulated counts are identical across
    repetitions and best-of-N only de-noises the host timing.  When
    ``out_dir`` is given, writes ``BENCH_<rev>.json`` there and returns
    its path alongside the result.

    Raises :class:`ValueError` for ``repeats < 1`` — silently clamping
    would report a measurement that never happened.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best_wall = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        # Warm under the target config, not a shared-warmup fork: the
        # pinned simulated counts must stay comparable across revisions.
        run = run_direct(BENCH_JOB)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            result = run
    cycles = result.stats.total_cycles
    instrs = result.stats.total_instructions()
    bench = BenchResult(
        rev=current_rev(),
        wall_s=round(best_wall, 4),
        cycles_per_s=round(cycles / best_wall, 1),
        instrs_per_s=round(instrs / best_wall, 1),
        total_cycles=cycles,
        total_instrs=instrs,
        repeats=repeats,
        topology=result.config.ring.topology,
        machine={4: "quad", 8: "eight"}.get(
            result.config.num_cores, f"{result.config.num_cores}-core"),
    )
    path = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"BENCH_{bench.rev}.json")
        with open(path, "w") as fh:
            json.dump(bench.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return bench, path


def load_baseline(path: str) -> Optional[dict]:
    """Load a previous ``BENCH_<rev>.json`` for trend comparison.

    ``path`` may be the JSON file itself or a directory containing one or
    more ``BENCH_*.json`` (a downloaded CI artifact); with several, the
    most recently modified wins.  Returns None when nothing usable is
    there — a missing baseline soft-passes the gate (first run, expired
    artifact), it does not fail it.
    """
    candidate = path
    if os.path.isdir(path):
        names = [os.path.join(path, n) for n in os.listdir(path)
                 if n.startswith("BENCH_") and n.endswith(".json")]
        if not names:
            return None
        candidate = max(names, key=os.path.getmtime)
    try:
        with open(candidate) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    rate = data.get("instrs_per_s")
    if not isinstance(rate, (int, float)) or rate <= 0:
        return None
    return data


def check_trend(bench: BenchResult, baseline: dict,
                limit: float = TREND_REGRESSION_LIMIT) -> Tuple[bool, str]:
    """Compare ``instrs_per_s`` against a baseline artifact.

    Returns ``(ok, message)``: ok is False only when throughput dropped
    by more than ``limit`` (a fraction, e.g. 0.20 = 20%).  A baseline
    measured on a different fabric or machine shape is not comparable —
    simulating a mesh or more cores costs different host work per
    simulated instruction — so the gate soft-passes and says why
    (artifacts predating these fields describe the historical
    ring/quad pinned run).
    """
    prev_topology = baseline.get("topology", "ring")
    prev_machine = baseline.get("machine", "quad")
    if (prev_topology, prev_machine) != (bench.topology, bench.machine):
        return True, (
            f"bench trend skipped: baseline "
            f"{baseline.get('rev', 'unknown')} ran on "
            f"{prev_topology}/{prev_machine}, current {bench.rev} on "
            f"{bench.topology}/{bench.machine} — rates not comparable")
    prev = float(baseline["instrs_per_s"])
    change = bench.instrs_per_s / prev - 1.0
    message = (f"bench trend {baseline.get('rev', 'unknown')} -> "
               f"{bench.rev}: "
               f"{prev:,.0f} -> {bench.instrs_per_s:,.0f} instrs/s "
               f"({change:+.1%}; gate: -{limit:.0%})")
    return change >= -limit, message
