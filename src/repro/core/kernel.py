"""Build and load the C kernels: the core tick (``_tick.c``), the event
wheel (``repro/sim/_wheel.c``) and the pointer-chase layout
(``repro/workloads/_layout.c``).  Each has a pure-Python twin that stays
its reference and its fallback.

The first import compiles a kernel with the interpreter's C compiler
(``sysconfig`` ``CC``, gcc on Linux) against ``Python.h`` into
``__kernel__/`` beside this file, named by the source's stem and a hash
of the C source and the interpreter's extension suffix; later imports
load that build.  A source edit or another interpreter gets a fresh
build, and concurrent first imports race safely (each builds to a
private file, then renames).

Nothing needs ``pip install`` or ``setup.py build_ext``: a plain
checkout with ``src`` on the path builds on first use.  If there is no
compiler or the build fails, :func:`load_source` warns once and returns
None, and the caller runs its pure-Python twin.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import warnings
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

SOURCE = Path(__file__).with_name("_tick.c")
CACHE_DIR = Path(__file__).with_name("__kernel__")
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def source_hash(source: Optional[Path] = None) -> str:
    """Short hash of a kernel source (default: the tick kernel's) and
    the extension suffix."""
    digest = hashlib.sha256((source or SOURCE).read_bytes())
    digest.update(EXT_SUFFIX.encode())
    return digest.hexdigest()[:12]


def _build(source: Path, target: Path) -> None:
    compiler = shlex.split(sysconfig.get_config_var("CC") or "gcc")
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    cmd = [*compiler, "-O2", "-shared", "-fPIC", "-fno-strict-aliasing",
           f"-I{sysconfig.get_paths()['include']}", str(source),
           "-o", str(tmp)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(cmd)} failed: {proc.stderr.strip()[-400:]}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def load_source(name: str, source: Path, fallback: str,
                setup: Optional[Callable[[ModuleType], None]] = None
                ) -> Optional[ModuleType]:
    """The extension module ``name`` built from ``source`` (its last
    dotted component is the source's stem), once ``setup(module)`` has
    run, or None after one warning that the ``fallback`` runs instead."""
    try:
        target = CACHE_DIR / f"{source.stem}_{source_hash(source)}{EXT_SUFFIX}"
        if not target.exists():
            CACHE_DIR.mkdir(exist_ok=True)
            _build(source, target)
        spec = importlib.util.spec_from_file_location(name, target)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {target}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if setup is not None:
            setup(module)
    except Exception as exc:    # no compiler, failed build, layout change
        warnings.warn(f"C kernel {source.name} unavailable, running the "
                      f"{fallback}: {exc}", RuntimeWarning, stacklevel=3)
        return None
    return module


def load(*layout: object) -> Optional[ModuleType]:
    """The tick kernel module (the ``TickEvent`` and ``Completion``
    callables) once ``setup(*layout)`` has bound the slot layout, or
    None."""
    return load_source(f"{__package__}._tick", SOURCE, "pure-Python tick",
                       lambda module: module.setup(*layout))
