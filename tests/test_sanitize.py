"""Tests for the dynamic determinism sanitizer (repro.lint.sanitize)."""

import random
from dataclasses import dataclass, field

import pytest

from repro.analysis.parallel import RunJob
from repro.lint.sanitize import (Divergence, diff_trees, flatten_tree,
                                 sanitize_determinism, sanitize_runs)


def h4(n_instrs, **fields):
    """One quad-core H4 job, as the gates take it."""
    return RunJob(workload=("mix", "H4"), n_instrs=n_instrs, **fields)


@dataclass
class Inner:
    hits: int = 0
    buckets: list = field(default_factory=list)


@dataclass
class Outer:
    name: str = "x"
    inner: Inner = field(default_factory=Inner)
    per_core: dict = field(default_factory=dict)


# -- flatten_tree -----------------------------------------------------------

def test_flatten_tree_dataclasses_dicts_and_sequences():
    tree = flatten_tree(Outer(name="run", inner=Inner(3, [1, 2]),
                              per_core={1: 9, 0: 8}))
    assert tree == {
        "name": "run",
        "inner.hits": 3,
        "inner.buckets[0]": 1,
        "inner.buckets[1]": 2,
        "per_core[0]": 8,
        "per_core[1]": 9,
    }


def test_flatten_tree_sets_are_order_independent():
    assert flatten_tree({"s": {3, 1, 2}}) == {"['s']": (1, 2, 3)}


# -- diff_trees -------------------------------------------------------------

def test_diff_trees_reports_value_and_type_divergence():
    divs = diff_trees({"a": 1, "b": 2.0, "c": 3},
                      {"a": 1, "b": 2, "d": 4})
    assert [d.field for d in divs] == ["b", "c", "d"]
    # b: same value, different type (2.0 vs 2) still diverges — the
    # sanitizer demands bit-identical trees.
    assert divs[0] == Divergence("b", 2.0, 2)
    assert divs[1].second == "<absent>"
    assert divs[2].first == "<absent>"


def test_diff_trees_identical_is_empty():
    assert diff_trees({"a": 1.5}, {"a": 1.5}) == []


# -- sanitize_runs ----------------------------------------------------------

def test_sanitize_runs_pass_on_pure_function():
    report = sanitize_runs(lambda: {"ipc": 1.25, "cycles": 800},
                           label="toy")
    assert report.deterministic
    assert report.fields_compared == 2
    assert "PASS" in report.format()
    assert "toy" in report.format()


def test_sanitize_runs_catches_cross_run_state():
    calls = []

    def leaky():
        calls.append(1)
        return {"cycles": 100 + len(calls)}

    report = sanitize_runs(leaky)
    assert not report.deterministic
    assert report.first_divergence == Divergence("['cycles']", 101, 102)
    assert "FAIL" in report.format()
    assert "cycles" in report.format()


# -- end-to-end on the real simulator ---------------------------------------

def test_quad_mix_is_deterministic():
    report = sanitize_determinism(h4(400, emc=True, trace=True))
    assert report.deterministic, report.format()
    # The snapshot covers the full stats tree plus the traced stage sums.
    assert report.fields_compared > 100
    assert any(d for d in [report.label] if "H4" in d)


def test_trace_adds_attribution_fields():
    traced = sanitize_determinism(h4(300, trace=True))
    untraced = sanitize_determinism(h4(300))
    assert traced.deterministic and untraced.deterministic
    assert traced.fields_compared > untraced.fields_compared


def test_sanitizer_detects_injected_unseeded_rng(monkeypatch):
    """Acceptance check: plant exactly the fault class SIM002 polices —
    a hot-path decision driven by the process-global RNG — and the
    sanitizer must flag the run as non-deterministic."""
    from repro.memsys.dram import DRAMChannel

    random.seed(0xBAD)  # make the *test* reproducible; the fault is that
    # the two sanitizer runs consume different slices of this stream.
    orig = DRAMChannel.bank_of

    def leaky_bank_of(self, line):
        return (orig(self, line) + random.getrandbits(1)) % len(self.banks)

    monkeypatch.setattr(DRAMChannel, "bank_of", leaky_bank_of)
    report = sanitize_determinism(h4(400, emc=True, trace=True))
    assert not report.deterministic
    first = report.first_divergence
    assert first is not None
    assert first.first != first.second
    assert "FAIL" in report.format()


def test_sanitize_cli(capsys):
    from repro.cli import main as repro_main
    rc = repro_main(["sanitize", "--mix", "H1", "-n", "300"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "determinism sanitizer PASS" in out


def test_run_sanitize_flag(capsys):
    from repro.cli import main as repro_main
    rc = repro_main(["run", "--mix", "H1", "-n", "300", "--sanitize"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


# -- every gate checks the job the command line describes -------------------

GATES = ("sanitize_determinism", "sanitize_parallel_runner",
         "sanitize_checkpoint_roundtrip", "sanitize_fork_identity")


def test_sanitize_cli_hands_every_gate_one_job(monkeypatch, capsys):
    import repro.lint.sanitize as sanitize
    from repro.cli import main as repro_main
    from repro.lint.sanitize import SanitizeReport
    seen = {}

    def recorder(name):
        def gate(job, **kwargs):
            seen[name] = job
            return SanitizeReport(True, 0, [], label=name)
        return gate

    for name in GATES:
        monkeypatch.setattr(sanitize, name, recorder(name))
    rc = repro_main(["sanitize", "--topology", "mesh", "--predictor",
                     "hermes", "--jobs", "2", "--checkpoint-roundtrip",
                     "--fork-identity"])
    capsys.readouterr()
    assert rc == 0
    assert set(seen) == set(GATES)
    assert len(set(seen.values())) == 1
    job = seen["sanitize_determinism"]
    assert isinstance(job, RunJob)
    assert (job.fabric, job.predictor) == ("mesh", "hermes")
    assert job.overrides == ()


def test_run_sanitize_calls_the_determinism_gate(monkeypatch, capsys):
    import repro.lint.sanitize as sanitize
    from repro.cli import main as repro_main
    from repro.lint.sanitize import SanitizeReport
    seen = []

    def gate(job):
        seen.append(job)
        return SanitizeReport(True, 0, [], label="gate")

    monkeypatch.setattr(sanitize, "sanitize_determinism", gate)
    rc = repro_main(["run", "--mix", "H1", "-n", "300", "--warmup", "100",
                     "--topology", "mesh", "--sanitize"])
    capsys.readouterr()
    assert rc == 0
    assert seen == [RunJob(workload=("mix", "H1"), n_instrs=300,
                           warmup_instrs=100, fabric="mesh")]


MESH_HERMES = {"fabric": "mesh", "predictor": "hermes"}


def test_parallel_and_roundtrip_gates_build_the_overridden_machine(
        monkeypatch):
    import repro.analysis.parallel as parallel
    from repro.lint.sanitize import (sanitize_checkpoint_roundtrip,
                                     sanitize_parallel_runner)
    machines = []
    real_build = parallel.build_job_config
    real_run_jobs = parallel.run_jobs

    def build(job):
        cfg = real_build(job)
        machines.append((cfg.ring.topology, cfg.emc.predictor.kind))
        return cfg

    def run_jobs(batch, **kwargs):
        for job in batch:
            build(job)
        return real_run_jobs(batch, **kwargs)

    monkeypatch.setattr(parallel, "build_job_config", build)
    monkeypatch.setattr(parallel, "run_jobs", run_jobs)
    reports = [
        sanitize_checkpoint_roundtrip(h4(300, emc=True, warmup_instrs=75,
                                         **MESH_HERMES)),
        sanitize_parallel_runner(h4(300, emc=True, **MESH_HERMES), jobs=2)]
    assert all(report.deterministic for report in reports)
    assert all("fabric=mesh predictor=hermes" in report.label
               for report in reports)
    assert machines and set(machines) == {("mesh", "hermes")}


def test_fork_identity_gate_checks_the_overridden_machine(monkeypatch):
    import repro.analysis.parallel as parallel
    from repro.lint.sanitize import sanitize_fork_identity
    from repro.sim.system import System
    machines = []
    real_build, real_fork = parallel.build_job_config, System.fork

    def record(cfg):
        machines.append((cfg.ring.topology, cfg.emc.predictor.kind))

    def build(job):
        cfg = real_build(job)
        record(cfg)
        return cfg

    def fork(self, *args, **kwargs):
        child, report = real_fork(self, *args, **kwargs)
        record(child.cfg)
        return child, report

    monkeypatch.setattr(parallel, "build_job_config", build)
    monkeypatch.setattr(System, "fork", fork)
    report = sanitize_fork_identity(h4(300, warmup_instrs=100,
                                       **MESH_HERMES))
    assert report.deterministic, report.format()
    assert "fabric=mesh" in report.label
    assert "predictor=hermes" in report.label
    # Three warmed parents, the inert part's from-scratch machine, and
    # four forks: every machine the gate checks is the overridden one.
    assert len(machines) == 8 and set(machines) == {("mesh", "hermes")}


def test_fork_identity_part_one_holds_the_jobs_own_machine(monkeypatch):
    """Part 1 (the live identity) warms the job as given, EMC and
    prefetcher included; the inert overrides are inert only while the
    EMC is off, so parts 2 and 3 warm EMC-off, prefetcher-none
    machines."""
    from repro.lint.sanitize import sanitize_fork_identity
    from repro.sim.system import System
    warmed = []
    real_warmup = System.warmup

    def warmup(self, *args, **kwargs):
        warmed.append((self.cfg.emc.enabled, self.cfg.prefetch.kind))
        return real_warmup(self, *args, **kwargs)

    monkeypatch.setattr(System, "warmup", warmup)
    report = sanitize_fork_identity(h4(300, emc=True, prefetcher="stream",
                                       warmup_instrs=100))
    assert report.deterministic, report.format()
    assert "prefetcher=stream emc=True" in report.label
    # The identity part's parent, then the inert part's parent and its
    # from-scratch machine, then the aggressive part's parent.
    assert warmed == [(True, "stream")] + [(False, "none")] * 3


def test_eight_core_mesh_job_passes_determinism_and_roundtrip():
    """A job the old mix-only gate signatures could not express: the
    eight-core machine with two memory controllers on a mesh, the only
    machine whose snapshot holds two DRAM systems (and, in the
    aggressive fork, two EMCs)."""
    from repro.lint.sanitize import (sanitize_checkpoint_roundtrip,
                                     sanitize_fork_identity)
    job = RunJob(workload=("eight", "H1"), n_instrs=300, num_mcs=2,
                 fabric="mesh", warmup_instrs=75)
    reports = [sanitize_determinism(job), sanitize_checkpoint_roundtrip(job),
               sanitize_fork_identity(job)]
    for report in reports:
        assert report.deterministic, report.format()
        assert "eight:H1" in report.label
        assert "num_mcs=2 fabric=mesh" in report.label
