"""The four benchmark workloads, driven through the simulator's public
entry points: ``build_mix``/``build_scaled_mix`` + ``System`` for the two
machine runs, ``load_spec`` + ``run_farm`` for the fork sweep, and
``lint_paths`` for simlint.

Each workload is one repeatable *operation* split into ``setup`` (what
happens before the first simulated or linted work) and ``work``.  The
sizes are fixed here; the seed is the only input that varies.  ``work``
returns an :class:`Outcome`: the counters the reference oracle checks,
the work done and its host time, and the simulated per-layer totals.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space (fresh farm cache dirs), inside the checkout.
SCRATCH = ROOT / ".perfbench"

#: Sizes: instructions per core (trace length) and warmup instructions
#: per core.  The measured window is the trace's remaining length.
EMC_QUAD = dict(mix="H3", n_instrs=9000, warmup=2000)
STREAM_MESH8 = dict(mix="H1", n_instrs=4500, warmup=1000)
FORK_SWEEP_SPEC = Path(__file__).resolve().parent / "fork_sweep.yaml"


@dataclass
class Outcome:
    """What one operation produced."""

    #: outputs checked against the committed references (JSON-able)
    counters: Any
    #: units of work done (simulated instructions, linted source lines)
    work_items: int
    #: host seconds that work took
    work_s: float
    #: simulated instructions per simulated cycle (None: not a simulation)
    sim_ipc: Optional[float] = None
    #: simulated EMC speed-up over the no-EMC point (fork_sweep only)
    emc_speedup: Optional[float] = None
    #: raw simulated totals behind the per-layer ratios (see ``sim_raw``)
    raw: Dict[str, float] = field(default_factory=dict)
    #: overall fork carryover ratio per forked point (fork_sweep only)
    carryover: List[float] = field(default_factory=list)


def sim_raw(stats, dram_accesses: int, dram_row_conflicts: int,
            fabric) -> Dict[str, float]:
    """Simulated totals of one run, summable across runs."""
    cores = stats.cores
    emc = stats.emc
    return {
        "instructions": stats.total_instructions(),
        "cycles": stats.total_cycles,
        "core_cycles": stats.total_cycles * len(cores),
        "full_window_stall_cycles": sum(c.full_window_stall_cycles
                                        for c in cores),
        "llc_misses": sum(c.llc_misses for c in cores),
        "dependent_misses": sum(c.dependent_misses for c in cores),
        "miss_latency_total": stats.core_miss_latency.total,
        "miss_latency_count": stats.core_miss_latency.count,
        "dram_accesses": dram_accesses,
        "dram_row_conflicts": dram_row_conflicts,
        "fabric_messages": fabric.messages,
        "fabric_hops": fabric.total_hops,
        "fabric_latency": fabric.total_latency,
        "chains_generated": emc.chains_generated,
        "chains_executed": emc.chains_executed,
        "llc_misses_from_emc": stats.llc_misses_from_emc,
        "llc_misses_from_core": stats.llc_misses_from_core,
        "bypass_true_pos": emc.bypass_true_pos,
        "bypass_false_pos": emc.bypass_false_pos,
        "bypass_false_neg": emc.bypass_false_neg,
        "prefetches_issued": stats.prefetches_issued,
        "prefetches_useful": stats.prefetches_useful,
    }


def oracle_counters(stats, dram_reads: int, fabric) -> Dict[str, int]:
    """The simulated outputs every run must reproduce exactly."""
    return {
        "cycles": stats.total_cycles,
        "instructions": stats.total_instructions(),
        "dram_reads": dram_reads,
        "fabric_messages": fabric.messages,
        "emc_chains_executed": stats.emc.chains_executed,
    }


class Workload:
    name = ""
    why = ""
    #: caches and predictors are warmed before the measured window
    warmed = True

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def work(self, state: Any) -> Outcome:
        raise NotImplementedError

    def cleanup(self, state: Any) -> None:
        """Release what ``setup`` made; not timed."""


class _MachineRun(Workload):
    """One warmed ``System`` run of a Table 3 mix."""

    size: Dict[str, Any] = {}

    def config(self, seed: int):
        raise NotImplementedError

    def build(self, seed: int):
        raise NotImplementedError

    def setup(self, seed: int):
        from repro.sim.system import System
        cfg = self.config(seed)
        return System(cfg, self.build(seed))

    def work(self, system) -> Outcome:
        system.warmup(self.size["warmup"])
        start = time.perf_counter()
        stats = system.run()
        work_s = time.perf_counter() - start
        dram = system.dram_stats
        fabric = system.ring.stats
        return Outcome(
            counters=oracle_counters(stats, sum(d.reads for d in dram),
                                     fabric),
            work_items=stats.total_instructions(), work_s=work_s,
            sim_ipc=stats.total_instructions() / stats.total_cycles,
            raw=sim_raw(stats, sum(d.accesses for d in dram),
                        sum(d.row_conflicts for d in dram), fabric))


class EmcQuad(_MachineRun):
    name = "emc_quad"
    why = ("the paper's mechanism: dependent-miss chains offloaded to the "
           "EMC with MAP-I on a quad-core H3 mix; core event dispatch "
           "dominates host time")
    size = EMC_QUAD

    def config(self, seed: int):
        from repro.uarch.params import quad_core_config
        cfg = quad_core_config(prefetcher="stream", emc=True, seed=seed)
        cfg.emc.predictor.kind = "map-i"
        return cfg

    def build(self, seed: int):
        from repro.workloads.mixes import build_mix
        return build_mix(self.size["mix"], self.size["n_instrs"], seed=seed)


class StreamMesh8(_MachineRun):
    name = "stream_mesh8"
    why = ("bandwidth-bound eight-core H1 on a 2-MC mesh with the EMC off: "
           "memsys and fabric heavy, and an EMC change must not move it")
    size = STREAM_MESH8

    def config(self, seed: int):
        from repro.uarch.params import eight_core_config
        cfg = eight_core_config(prefetcher="stream", emc=False, num_mcs=2,
                                seed=seed)
        cfg.ring.topology = "mesh"
        return cfg

    def build(self, seed: int):
        from repro.workloads.mixes import build_scaled_mix
        return build_scaled_mix(self.size["mix"], 8, self.size["n_instrs"],
                                seed=seed)


@dataclass
class _SweepState:
    spec: Any
    jobs: List[Any]
    tmp: Path


class ForkSweep(Workload):
    name = "fork_sweep"
    why = ("a 6-point farm spec run in-process from one shared warmup: the "
           "only workload where fork, checkpoint and analysis dominate")

    def setup(self, seed: int) -> _SweepState:
        from repro.analysis import spec as spec_module
        SCRATCH.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="fork_sweep-", dir=SCRATCH))
        spec = spec_module.load_spec(str(FORK_SWEEP_SPEC))
        spec = dataclasses.replace(spec, seeds=(seed,))
        return _SweepState(spec=spec, jobs=spec.jobs(), tmp=tmp)

    def work(self, state: _SweepState) -> Outcome:
        from repro.analysis.farm import run_farm
        start = time.perf_counter()
        report = run_farm(state.spec, jobs=1,
                          cache_dir=str(state.tmp / "cache"),
                          out_dir=str(state.tmp / "out"))
        work_s = time.perf_counter() - start
        points = {}
        raw: Dict[str, float] = {}
        carryover = []
        ipc = {}
        for job, result in zip(state.jobs, report.results):
            points[job.label] = oracle_counters(
                result.stats, result.dram_reads, result.ring)
            ipc[(job.prefetcher, job.emc, job.predictor)] = result.throughput
            conflicts = round(result.dram_row_conflict_rate
                              * result.dram_accesses)
            for key, value in sim_raw(result.stats, result.dram_accesses,
                                      conflicts, result.ring).items():
                raw[key] = raw.get(key, 0) + value
            if result.fork_carryover:
                kept = sum(k for k, _t in result.fork_carryover.values())
                total = sum(t for _k, t in result.fork_carryover.values())
                carryover.append(kept / total if total else 1.0)
        return Outcome(
            counters=points, work_items=int(raw["instructions"]),
            work_s=work_s,
            sim_ipc=math.exp(statistics.fmean(map(math.log, ipc.values()))),
            emc_speedup=(ipc[("stream", True, "map-i")]
                         / ipc[("stream", False, "map-i")]),
            raw=raw, carryover=carryover)

    def cleanup(self, state: _SweepState) -> None:
        shutil.rmtree(state.tmp, ignore_errors=True)


@dataclass
class _LintState:
    engine: Any
    files: List[Path]
    baseline: Any


class LintSrc(Workload):
    name = "lint_src"
    why = ("simlint over src/ with the committed baseline: the lint layer's "
           "wall time, which no simulation touches")
    warmed = False

    def __init__(self) -> None:
        self._lines: Optional[int] = None

    def setup(self, seed: int) -> _LintState:
        # A user pays the lint package's import on every run, so each
        # operation imports it afresh (from the bytecode cache).
        for name in [m for m in sys.modules
                     if m == "repro.lint" or m.startswith("repro.lint.")]:
            del sys.modules[name]
        engine = importlib.import_module("repro.lint.engine")
        baseline = importlib.import_module("repro.lint.baseline")
        files = engine.iter_python_files(["src"])
        # The seed orders the files: results must not depend on it.
        random.Random(seed).shuffle(files)
        return _LintState(engine=engine, files=files,
                          baseline=baseline.Baseline.load(
                              "simlint-baseline.json"))

    def work(self, state: _LintState) -> Outcome:
        start = time.perf_counter()
        result = state.engine.lint_paths(state.files,
                                         baseline=state.baseline)
        work_s = time.perf_counter() - start
        if self._lines is None:
            self._lines = sum(
                len(path.read_text(encoding="utf-8").splitlines())
                for path in state.files)
        return Outcome(
            counters={"findings": len(result.findings),
                      "codes": sorted({f.rule for f in result.findings})},
            work_items=self._lines, work_s=work_s)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (EmcQuad(), StreamMesh8(), ForkSweep(), LintSrc())}
