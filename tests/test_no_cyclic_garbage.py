"""A run makes no cyclic garbage.

The event loops run with the cyclic collector paused (``_gc_paused``), so
every reference cycle a run creates stays in memory until the loop ends:
a run's peak memory would grow with its length.  Refcounting alone frees
what a run makes only while none of it forms a cycle: a retired uop's
wake-up list is empty, and no EMC request is held by a self-scheduling
closure.  Checked on each machine under both core ticks and both event
wheels, while the machine is alive.
"""

import gc

import pytest

from repro.analysis.parallel import (RunJob, build_job_config,
                                     build_job_workload)
from repro.sim import events
from repro.sim.events import PythonEventWheel
from repro.sim.system import System
from repro.trace import Tracer

from .wheels import WHEELS

N = 400

MACHINES = {
    "h4_ring": RunJob(("mix", "H4"), N, warmup_instrs=100),
    "h3_emc_mapi_stream": RunJob(("mix", "H3"), N, warmup_instrs=100,
                                 emc=True, prefetcher="stream"),
    "h3_emc_hermes_ghb": RunJob(("mix", "H3"), N, warmup_instrs=100,
                                emc=True, prefetcher="ghb",
                                predictor="hermes"),
    "h1_mesh8_2mc_emc": RunJob(("eight", "H1"), 300, warmup_instrs=100,
                               num_mcs=2, emc=True, fabric="mesh"),
    "h4_emc_traced": RunJob(("mix", "H4"), N, warmup_instrs=100, emc=True,
                            trace=True),
}


@pytest.mark.parametrize("wheel_class", WHEELS,
                         ids=[w.__qualname__ for w in WHEELS])
@pytest.mark.parametrize("job", MACHINES.values(), ids=MACHINES.keys())
def test_a_run_leaves_no_cyclic_garbage(job, wheel_class, tick,
                                        monkeypatch):
    if wheel_class is PythonEventWheel:
        monkeypatch.setattr(events, "_kernel", None)
    system = System(build_job_config(job), build_job_workload(job),
                    tracer=Tracer() if job.trace else None)
    assert type(system.wheel) is wheel_class
    system.warmup(job.warmup_instrs)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        stats = system.run()
        garbage = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert sum(core.instructions for core in stats.cores) > 0
    assert garbage == 0
