"""repro — reproduction of "Accelerating Dependent Cache Misses with an
Enhanced Memory Controller" (Hashemi et al., ISCA 2016).

An execute-driven, event-based multi-core timing simulator (out-of-order
cores, ring interconnect, distributed LLC, DDR3 DRAM with batch scheduling,
stream/GHB/Markov prefetchers) plus the paper's contribution: runtime
dependence-chain extraction at the core and chain execution at an Enhanced
Memory Controller.

Quickstart::

    from repro import quad_core_config, build_mix, run_system
    cfg = quad_core_config(prefetcher="ghb", emc=True)
    workload = build_mix("H4", n_instrs=20_000)
    result = run_system(cfg, workload)
    print(result.aggregate_ipc, result.stats.emc_miss_fraction())

A run described by value (picklable, cacheable, what the CLI, sweeps,
figure drivers and the farm all use)::

    from repro import RunJob, execute_job
    job = RunJob(workload=("mix", "H4"), n_instrs=20_000,
                 prefetcher="ghb", emc=True)
    result = execute_job(job)
"""

from .sim.runner import (PREFETCHER_CONFIGS, RunResult,
                         apply_config_overrides, run_system, speedup)
from .sim.stats import SimStats
from .sim.system import DeadlockError, SimTimeoutError, System
from .trace import (LatencyAttribution, NullTracer, RequestTrace, Stage,
                    TraceError, Tracer)
from .analysis.parallel import (RunJob, build_job_config,
                                build_job_workload, execute_job, run_jobs)
from .uarch.params import (DRAMConfig, EMCConfig, PrefetchConfig,
                           SystemConfig, eight_core_config, quad_core_config,
                           with_dram_geometry)
from .workloads.mixes import (MIX_NAMES, MIXES, build_eight_core_mix,
                              build_homogeneous, build_mix, build_named)
from .workloads.spec import (HIGH_INTENSITY, LOW_INTENSITY, PROFILES,
                             build_trace)

__version__ = "1.0.0"

__all__ = [
    "System", "SystemConfig", "SimStats", "RunResult", "DeadlockError",
    "SimTimeoutError",
    "quad_core_config", "eight_core_config", "with_dram_geometry",
    "DRAMConfig", "EMCConfig", "PrefetchConfig",
    "run_system", "speedup", "PREFETCHER_CONFIGS", "apply_config_overrides",
    "RunJob", "build_job_config", "build_job_workload", "execute_job",
    "run_jobs",
    "Tracer", "NullTracer", "LatencyAttribution", "RequestTrace", "Stage",
    "TraceError",
    "MIXES", "MIX_NAMES", "build_mix", "build_named", "build_homogeneous",
    "build_eight_core_mix", "build_trace",
    "HIGH_INTENSITY", "LOW_INTENSITY", "PROFILES",
    "__version__",
]
