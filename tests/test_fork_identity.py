"""An identity fork of a warmed machine equals its parent, live.

Every farm sweep forks one warmup into N points, so a fork must carry
every bit of warmed state.  The check compares the two ``System``
objects themselves, not their snapshots
(:func:`~repro.lint.sanitize.fork_identity_trees`): an attribute a
snapshot or reseat drops, in any component, reads differently in the
fork; a counter ``reset_stats`` misses keeps its warmup value in the
parent, while the freshly built fork holds its construction value; and a
``reseat`` reading a config key ``config_state()`` never writes raises.
Run on six machines, under both core ticks and both event wheels.
"""

import importlib
import pkgutil
from collections import deque

import pytest

import repro
from repro.analysis.parallel import (RunJob, build_job_config,
                                     build_job_workload)
from repro.lint.sanitize import compare_trees, fork_identity_trees
from repro.sim import events
from repro.sim.component import SimComponent
from repro.sim.events import PythonEventWheel
from repro.sim.system import System

from .wheels import WHEELS

N = 400

MACHINES = {
    "h4_ring_stream": RunJob(("mix", "H4"), N, warmup_instrs=100,
                             prefetcher="stream"),
    "h4_ring_ghb": RunJob(("mix", "H4"), N, warmup_instrs=100,
                          prefetcher="ghb"),
    "h4_mesh": RunJob(("mix", "H4"), N, warmup_instrs=100, fabric="mesh"),
    "h3_emc_hermes_markov_stream": RunJob(
        ("mix", "H3"), N, warmup_instrs=100, emc=True, predictor="hermes",
        prefetcher="markov+stream"),
    # The chain cache is off by default; this machine warms one.
    "h3_emc_mapi_stream": RunJob(
        ("mix", "H3"), N, warmup_instrs=100, emc=True, prefetcher="stream",
        overrides=(("emc.chain_cache_entries", 16),)),
    "h1_mesh8_2mc_emc": RunJob(("eight", "H1"), 300, warmup_instrs=100,
                               num_mcs=2, emc=True, fabric="mesh"),
}


def boundary(job):
    system = System(build_job_config(job), build_job_workload(job))
    system.warmup(job.warmup_instrs)
    return system


@pytest.mark.parametrize("wheel_class", WHEELS,
                         ids=[w.__qualname__ for w in WHEELS])
@pytest.mark.parametrize("job", MACHINES.values(), ids=MACHINES.keys())
def test_identity_fork_equals_its_live_parent(job, wheel_class, tick,
                                              monkeypatch):
    if wheel_class is PythonEventWheel:
        monkeypatch.setattr(events, "_kernel", None)
    parent = boundary(job)
    assert type(parent.wheel) is wheel_class
    report = compare_trees(*fork_identity_trees(parent))
    assert report.fields_compared > 50_000
    assert report.deterministic, report.format()


def test_a_flattened_c_kernel_machine_holds_no_address(tick):
    # A leaf flattened by repr() would carry the object's address, and
    # two machines could then never compare equal.
    job = MACHINES["h3_emc_mapi_stream"]
    parent, _fork = fork_identity_trees(boundary(job))
    assert not [key for key, value in parent.items() if "0x" in str(value)]


def reached_components(system):
    """The type of every ``SimComponent`` reachable from ``system``."""
    found, seen, stack = set(), set(), [system]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, SimComponent):
            found.add(type(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, deque)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def concrete_components():
    """Every ``SimComponent`` subclass under ``repro`` that has no
    subclass of its own."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = set(), [SimComponent]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if not sub.__subclasses__():
                found.add(sub)
    return found


def test_every_component_class_is_in_a_machine_of_the_identity_set():
    reached = set()
    for job in MACHINES.values():
        reached |= reached_components(boundary(job))
    missing = sorted(cls.__qualname__
                     for cls in concrete_components() - reached)
    assert not missing, f"no identity machine holds {missing}"
