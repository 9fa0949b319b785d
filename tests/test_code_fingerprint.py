"""The code fingerprint: the one identity of results, warmup checkpoints
and farm stores.

It must cover every simulator source (a new package by default) and
nothing that never runs inside a simulation, and it must cost nothing
at import.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sim.system import System, code_fingerprint
from repro.uarch.params import quad_core_config
from repro.workloads.mixes import build_mix

PACKAGE = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("fingerprint") / "repro"
    shutil.copytree(PACKAGE, root, ignore=shutil.ignore_patterns(
        "__pycache__", "__kernel__"))
    return root


def _fingerprint(root):
    return code_fingerprint.__wrapped__(root)   # bypass the process cache


def test_copy_of_the_package_has_the_package_fingerprint(package_copy):
    assert _fingerprint(package_copy) == code_fingerprint()


@pytest.mark.parametrize("rel, counts", [
    ("uarch/params.py", True),
    ("core/_tick.c", True),
    ("analysis/parallel.py", True),
    ("lint/engine.py", False),
])
def test_one_changed_byte_changes_the_fingerprint(package_copy, rel, counts):
    path = package_copy / rel
    original = path.read_bytes()
    before = _fingerprint(package_copy)
    path.write_bytes(original[:-1] + bytes([original[-1] ^ 1]))
    try:
        assert (_fingerprint(package_copy) != before) is counts
    finally:
        path.write_bytes(original)


def test_fingerprint_is_computed_once_and_never_at_import():
    probe = (
        "import repro.cli, repro.analysis.farm\n"
        "from repro.analysis.parallel import RunJob, job_hash\n"
        "from repro.sim.system import code_fingerprint\n"
        "assert code_fingerprint.cache_info().currsize == 0\n"
        "job = RunJob(workload=('mix', 'H4'), n_instrs=100)\n"
        "job_hash(job), job_hash(job)\n"
        "assert code_fingerprint.cache_info().misses == 1\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


def test_snapshot_header_is_component_and_config_only():
    system = System(quad_core_config(), build_mix("H4", 100, seed=1))
    headers = []

    def walk(node):
        if isinstance(node, dict):
            if "component" in node:
                headers.append(node)
            for value in node.values():
                walk(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                walk(value)

    walk(system.snapshot())
    assert headers
    assert all("config" in h and "version" not in h for h in headers)
