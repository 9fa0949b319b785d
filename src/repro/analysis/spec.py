"""Declarative YAML experiment specs: the matrix language of the farm.

A spec file describes an entire sweep — the cross product of a
``matrix:`` over workloads, prefetchers, the EMC switch, and any dotted
:class:`~repro.uarch.params.SystemConfig` path (DRAM timings, EMC
sizing, …) — plus ``include:``/``exclude:`` filters, ``samples:`` seeds,
a ``warmup:`` window, and the ``outputs:`` (tables and ASCII figures) to
emit from the results.  ``load_spec`` validates the file with
line-precise errors and expands it *deterministically* into the existing
picklable :class:`~repro.analysis.parallel.RunJob` list through the one
grid expander the figure drivers and the CLI use
(:func:`~repro.analysis.parallel.grid` and
:meth:`~repro.analysis.parallel.RunJob.at`), so everything downstream
(config-hash caching, fork-based shared warmup, the work queue in
:mod:`repro.analysis.farm`) is exactly the machinery the figure drivers
already use.

The full key-by-key schema reference lives in
``docs/experiments-farm.md``; :data:`DOCUMENTED_KEYS` is the registry a
test compares against that document, so the two cannot drift apart.

Design rules:

- **Every error carries a line.**  Parsing keeps a YAML-node line map,
  and :class:`SpecError` formats as ``file.yaml:12: message``.
- **Expansion is a pure function of the file.**  Axes expand in
  declaration order, seeds innermost, filters applied before seeds;
  parsing the same bytes twice yields the same job list.
- **Duplicate points are rejected, not deduplicated.**  Two matrix
  points that resolve to the same :meth:`RunJob.key` (e.g. ``H4`` and
  ``mix:H4`` in one workload axis) are a spec bug worth a loud error.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Any, Callable, Dict, Final, List, Mapping, Optional,
                    Sequence, Tuple)

from ..sim.runner import PREFETCHER_CONFIGS, RunResult
from ..uarch.params import (PREDICTORS, TOPOLOGIES, quad_core_config,
                            set_config_field)
from ..workloads.mixes import MIX_NAMES
from ..workloads.spec import PROFILES
from .figures import bar_chart
from .parallel import RunJob, grid
from .report import format_markdown_table, format_table

__all__ = ["ExperimentSpec", "FigureSpec", "SpecError", "TableSpec",
           "DOCUMENTED_KEYS", "METRICS", "RESERVED_AXES", "load_spec",
           "parse_spec", "render_outputs"]


class SpecError(ValueError):
    """A spec file failed validation; formats as ``file:line: message``."""

    def __init__(self, message: str, filename: str = "<spec>",
                 line: Optional[int] = None):
        self.message = message
        self.filename = filename
        self.line = line
        where = filename if line is None else f"{filename}:{line}"
        super().__init__(f"{where}: {message}")


# ---------------------------------------------------------------------------
# schema registry (compared against docs/experiments-farm.md by a test)
# ---------------------------------------------------------------------------

TOP_LEVEL_KEYS: Final[frozenset] = frozenset({
    "name", "description", "matrix", "include", "exclude", "samples",
    "n_instrs", "warmup", "max_cycles", "trace", "outputs"})
OUTPUT_KEYS: Final[frozenset] = frozenset({"tables", "figures"})
TABLE_KEYS: Final[frozenset] = frozenset({
    "name", "columns", "metrics", "format"})
FIGURE_KEYS: Final[frozenset] = frozenset({
    "name", "x", "value", "where", "normalize_to"})
#: matrix axes with farm-level meaning; every other axis must be a
#: dotted SystemConfig path (``dram.t_rcd``, ``emc.num_contexts``, …)
RESERVED_AXES: Final[frozenset] = frozenset({
    "workload", "prefetcher", "emc", "num_mcs", "topology", "num_cores",
    "predictor"})
TABLE_FORMATS: Final[Tuple[str, ...]] = ("md", "csv", "txt")

#: metric name -> extractor over a RunResult (the values tables/figures
#: can report); constant by construction
METRICS: Final[Mapping[str, Callable[[RunResult], Any]]] = MappingProxyType({
    "ipc": lambda r: r.aggregate_ipc,
    "cycles": lambda r: r.stats.total_cycles,
    "instructions": lambda r: r.stats.total_instructions(),
    "dram_reads": lambda r: r.dram_reads,
    "dram_row_conflict_rate": lambda r: r.dram_row_conflict_rate,
    "ring_messages": lambda r: r.ring_messages,
    "fabric_hops": lambda r: r.ring.total_hops if r.ring else 0,
    "fabric_avg_latency": lambda r: r.ring.avg_latency if r.ring else 0.0,
    "emc_miss_fraction": lambda r: r.stats.emc_miss_fraction(),
    "dependent_miss_fraction": lambda r: r.stats.dependent_miss_fraction(),
    "energy_chip_j": lambda r: r.energy.chip,
    "energy_dram_j": lambda r: r.energy.dram,
    "bypass_precision": lambda r: r.stats.emc.bypass_precision,
    "bypass_recall": lambda r: r.stats.emc.bypass_recall,
})

#: every key the validator accepts, as documented in
#: docs/experiments-farm.md (one ``### `key``` heading each)
DOCUMENTED_KEYS: Final[frozenset] = frozenset(
    TOP_LEVEL_KEYS | OUTPUT_KEYS | TABLE_KEYS | FIGURE_KEYS
    | RESERVED_AXES | set(METRICS))


# ---------------------------------------------------------------------------
# YAML parsing with a line map
# ---------------------------------------------------------------------------

Path = Tuple[Any, ...]


def _require_yaml():
    try:
        import yaml
    except ImportError as exc:            # pragma: no cover - env-specific
        raise SpecError(
            "PyYAML is required for experiment specs "
            "(pip install pyyaml)") from exc
    return yaml


def _compose(text: str, filename: str):
    yaml = _require_yaml()
    try:
        node = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise SpecError(f"invalid YAML: {exc}", filename, line) from exc
    if node is None:
        raise SpecError("empty spec", filename, 1)
    return yaml, node


def _convert(yaml, node, path: Path, lines: Dict[Path, int],
             filename: str) -> Any:
    """YAML node -> plain value, recording 1-based lines per path.

    ``setdefault`` so a mapping key's own line (recorded by the parent
    before recursing) wins over the line of its block-style value, which
    starts one line later.
    """
    lines.setdefault(path, node.start_mark.line + 1)
    if isinstance(node, yaml.MappingNode):
        out: Dict[str, Any] = {}
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                raise SpecError("mapping keys must be plain scalars",
                                filename, key_node.start_mark.line + 1)
            key = str(yaml.SafeLoader("").construct_object(key_node))
            if key in out:
                raise SpecError(f"duplicate key {key!r}", filename,
                                key_node.start_mark.line + 1)
            lines[path + (key,)] = key_node.start_mark.line + 1
            out[key] = _convert(yaml, value_node, path + (key,), lines,
                                filename)
        return out
    if isinstance(node, yaml.SequenceNode):
        return [_convert(yaml, item, path + (i,), lines, filename)
                for i, item in enumerate(node.value)]
    return yaml.SafeLoader("").construct_object(node, deep=True)


def _line(lines: Mapping[Path, int], path: Path) -> Optional[int]:
    """Line of ``path``, falling back to the nearest recorded ancestor."""
    while path:
        if path in lines:
            return lines[path]
        path = path[:-1]
    return lines.get(())


# ---------------------------------------------------------------------------
# the validated spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableSpec:
    """One declared output table: grouped columns + aggregated metrics."""

    name: str
    columns: Tuple[str, ...]
    metrics: Tuple[str, ...]
    format: str = "md"

    @property
    def filename(self) -> str:
        return f"{self.name}.{self.format}"


@dataclass(frozen=True)
class FigureSpec:
    """One declared ASCII bar figure: metric ``value`` over axis ``x``."""

    name: str
    x: str
    value: str = "ipc"
    where: Tuple[Tuple[str, Any], ...] = ()
    normalize_to: Optional[Any] = None

    @property
    def filename(self) -> str:
        return f"{self.name}.txt"


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment spec, ready to expand into ``RunJob``s."""

    name: str
    description: str
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]   # declaration order
    include: Tuple[Tuple[Tuple[str, Tuple[Any, ...]], ...], ...]
    exclude: Tuple[Tuple[Tuple[str, Tuple[Any, ...]], ...], ...]
    seeds: Tuple[int, ...]
    n_instrs: int = 5000
    warmup: int = 0
    max_cycles: int = 50_000_000
    trace: bool = False
    tables: Tuple[TableSpec, ...] = ()
    figures: Tuple[FigureSpec, ...] = ()
    path: str = "<spec>"

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _values in self.axes)

    def points(self) -> List[Dict[str, Any]]:
        """Filtered matrix points (no seeds), in deterministic order."""
        return [point for point in grid(dict(self.axes))
                if (not self.include
                    or any(_matches(point, e) for e in self.include))
                and not any(_matches(point, e) for e in self.exclude)]

    def runs(self) -> List[Tuple[Dict[str, Any], int]]:
        """``(point, seed)`` of every job, seeds innermost: the order of
        :meth:`jobs` and of the results :func:`render_outputs` reads."""
        return [(point, seed) for point in self.points()
                for seed in self.seeds]

    def jobs(self) -> List[RunJob]:
        """Expand to one :class:`RunJob` per (filtered point, seed).

        Each job is :meth:`RunJob.at` of the point, with the ``workload``
        string parsed and the ``topology`` axis naming the ``fabric``
        field.  Deterministic: axes in declaration order, seeds
        innermost.  Raises :class:`SpecError` if two points collapse onto
        the same job identity.
        """
        base = RunJob((), self.n_instrs, max_cycles=self.max_cycles,
                      trace=self.trace, warmup_instrs=self.warmup)
        out: List[RunJob] = []
        seen: Dict[tuple, str] = {}
        for point, seed in self.runs():
            fields = dict(point, workload=_parse_workload(
                point["workload"], self.path, None))
            if "topology" in fields:
                fields["fabric"] = fields.pop("topology")
            job = base.at({"seed": seed, **fields,
                           "label": self._label(point, seed)})
            key = job.key()
            if key in seen:
                raise SpecError(
                    f"duplicate experiment point: {job.label!r} is "
                    f"the same run as {seen[key]!r} (matrix values "
                    "normalize to one job identity)", self.path)
            seen[key] = job.label
            out.append(job)
        return out

    def _label(self, point: Mapping[str, Any], seed: int) -> str:
        knobs = ",".join(f"{k}={_fmt(v)}" for k, v in point.items()
                         if k != "workload")
        return (f"{self.name}/{point['workload']}"
                + (f"[{knobs}]" if knobs else "")
                + (f"#s{seed}" if len(self.seeds) > 1 else ""))


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


def _matches(point: Mapping[str, Any],
             entry: Tuple[Tuple[str, Tuple[Any, ...]], ...]) -> bool:
    """Does a point match one include/exclude entry?  Every axis named by
    the entry must hold one of the entry's values for that axis."""
    return all(point[axis] in values for axis, values in entry)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _err(filename: str, lines: Mapping[Path, int], path: Path,
         message: str) -> SpecError:
    return SpecError(message, filename, _line(lines, path))


def _expect(value: Any, kind: type, what: str, filename: str,
            lines: Mapping[Path, int], path: Path) -> Any:
    ok = (isinstance(value, int) and not isinstance(value, bool)
          if kind is int else isinstance(value, kind))
    if not ok:
        raise _err(filename, lines, path,
                   f"{what} must be {kind.__name__}, got "
                   f"{type(value).__name__} ({value!r})")
    return value


def _parse_workload(text: Any, filename: str,
                    err: Optional[Callable[[str], SpecError]]
                    ) -> Tuple[Any, ...]:
    """``H4`` | ``mix:H4`` | ``eight:H3`` | ``homog:mcf[:8]`` |
    ``named:a+b+c+d`` -> RunJob workload tuple."""
    def fail(message: str) -> SpecError:
        if err is not None:
            return err(message)
        return SpecError(message, filename)

    if not isinstance(text, str) or not text:
        raise fail(f"workload must be a string, got {text!r}")
    kind, _sep, arg = text.partition(":")
    if not _sep:
        kind, arg = "mix", text
    if kind == "mix":
        if arg not in MIX_NAMES:
            raise fail(f"unknown mix {arg!r}; known: "
                       f"{', '.join(MIX_NAMES)}")
        return ("mix", arg)
    if kind == "eight":
        if arg not in MIX_NAMES:
            raise fail(f"unknown mix {arg!r}; known: "
                       f"{', '.join(MIX_NAMES)}")
        return ("eight", arg)
    if kind == "homog":
        name, _sep2, cores_text = arg.partition(":")
        cores = 4
        if _sep2:
            if cores_text not in ("4", "8"):
                raise fail(f"homog core count must be 4 or 8, got "
                           f"{cores_text!r}")
            cores = int(cores_text)
        if name not in PROFILES:
            raise fail(f"unknown benchmark {name!r}")
        return ("homog", name, cores)
    if kind == "named":
        names = tuple(arg.split("+"))
        if len(names) not in (4, 8):
            raise fail(f"named workloads need 4 or 8 '+'-joined "
                       f"benchmarks, got {len(names)}")
        unknown = [n for n in names if n not in PROFILES]
        if unknown:
            raise fail(f"unknown benchmark(s) {', '.join(unknown)}")
        return ("named",) + names
    raise fail(f"unknown workload kind {kind!r}; use mix:, eight:, "
               "homog:, or named:")


def _validate_axis(axis: str, values: List[Any], filename: str,
                   lines: Mapping[Path, int], path: Path) -> Tuple[Any, ...]:
    if not isinstance(values, list) or not values:
        raise _err(filename, lines, path,
                   f"matrix axis {axis!r} must be a non-empty list")
    seen = set()
    for i, value in enumerate(values):
        try:
            marker = (type(value).__name__, value)
        except TypeError:
            raise _err(filename, lines, path + (i,),
                       f"axis value {value!r} is not a scalar") from None
        if marker in seen:
            raise _err(filename, lines, path + (i,),
                       f"duplicate value {value!r} in axis {axis!r}")
        seen.add(marker)
    if axis == "workload":
        for i, value in enumerate(values):
            _parse_workload(
                value, filename,
                lambda m, _i=i: _err(filename, lines, path + (_i,), m))
    elif axis == "prefetcher":
        for i, value in enumerate(values):
            if value not in PREFETCHER_CONFIGS:
                raise _err(filename, lines, path + (i,),
                           f"unknown prefetcher {value!r}; known: "
                           f"{', '.join(PREFETCHER_CONFIGS)}")
    elif axis == "emc":
        for i, value in enumerate(values):
            if not isinstance(value, bool):
                raise _err(filename, lines, path + (i,),
                           f"emc values must be booleans, got {value!r}")
    elif axis == "num_mcs":
        for i, value in enumerate(values):
            if value not in (1, 2) or isinstance(value, bool):
                raise _err(filename, lines, path + (i,),
                           f"num_mcs must be 1 or 2, got {value!r}")
    elif axis == "topology":
        for i, value in enumerate(values):
            if value not in TOPOLOGIES:
                raise _err(filename, lines, path + (i,),
                           f"unknown topology {value!r}; known: "
                           f"{', '.join(TOPOLOGIES)}")
    elif axis == "predictor":
        for i, value in enumerate(values):
            if value not in PREDICTORS:
                raise _err(filename, lines, path + (i,),
                           f"unknown predictor {value!r}; known: "
                           f"{', '.join(PREDICTORS)}")
    elif axis == "num_cores":
        for i, value in enumerate(values):
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise _err(filename, lines, path + (i,),
                           f"num_cores must be a positive integer, got "
                           f"{value!r}")
    else:
        # a dotted SystemConfig path: prove each value lands
        probe = quad_core_config()
        for i, value in enumerate(values):
            try:
                set_config_field(probe, axis, value)
            except Exception as exc:
                raise _err(
                    filename, lines, path + (i,),
                    f"bad config override {axis}={value!r}: {exc}"
                ) from exc
    return tuple(values)


def _validate_filter(entries: Any, which: str,
                     axes: Mapping[str, Tuple[Any, ...]], filename: str,
                     lines: Mapping[Path, int], path: Path
                     ) -> Tuple[Tuple[Tuple[str, Tuple[Any, ...]], ...], ...]:
    if not isinstance(entries, list):
        raise _err(filename, lines, path,
                   f"{which} must be a list of axis->value mappings")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not entry:
            raise _err(filename, lines, path + (i,),
                       f"{which} entries must be non-empty mappings")
        pairs = []
        for axis, wanted in entry.items():
            apath = path + (i, axis)
            if axis not in axes:
                raise _err(filename, lines, apath,
                           f"{which} names unknown axis {axis!r}; "
                           f"matrix axes: {', '.join(axes)}")
            values = wanted if isinstance(wanted, list) else [wanted]
            for value in values:
                if value not in axes[axis]:
                    raise _err(
                        filename, lines, apath,
                        f"{which} value {value!r} is not in axis "
                        f"{axis!r} ({list(axes[axis])})")
            pairs.append((axis, tuple(values)))
        out.append(tuple(pairs))
    return tuple(out)


def _validate_seeds(samples: Any, filename: str,
                    lines: Mapping[Path, int], path: Path
                    ) -> Tuple[int, ...]:
    if isinstance(samples, int) and not isinstance(samples, bool):
        if samples < 1:
            raise _err(filename, lines, path,
                       f"samples must be >= 1, got {samples}")
        return tuple(range(1, samples + 1))
    if isinstance(samples, list):
        seeds = []
        for i, seed in enumerate(samples):
            _expect(seed, int, "each samples seed", filename, lines,
                    path + (i,))
            if seed in seeds:
                raise _err(filename, lines, path + (i,),
                           f"duplicate seed {seed} in samples")
            seeds.append(seed)
        if not seeds:
            raise _err(filename, lines, path,
                       "samples list must not be empty")
        return tuple(seeds)
    raise _err(filename, lines, path,
               f"samples must be an int or a list of seeds, got "
               f"{samples!r}")


def _check_keys(mapping: Mapping[str, Any], allowed: frozenset,
                what: str, filename: str, lines: Mapping[Path, int],
                path: Path) -> None:
    for key in mapping:
        if key not in allowed:
            raise _err(filename, lines, path + (key,),
                       f"unknown {what} key {key!r}; expected one of: "
                       f"{', '.join(sorted(allowed))}")


def _validate_table(entry: Any, axes: Sequence[str], multi_seed: bool,
                    filename: str, lines: Mapping[Path, int],
                    path: Path) -> TableSpec:
    if not isinstance(entry, dict):
        raise _err(filename, lines, path, "each table must be a mapping")
    _check_keys(entry, TABLE_KEYS, "table", filename, lines, path)
    name = _expect(entry.get("name"), str, "table name", filename, lines,
                   path + ("name",))
    columns = entry.get("columns", list(axes) + (["seed"] if multi_seed
                                                 else []))
    _expect(columns, list, "table columns", filename, lines,
            path + ("columns",))
    for i, column in enumerate(columns):
        if column not in axes and column != "seed":
            raise _err(filename, lines, path + ("columns", i),
                       f"unknown column {column!r}; columns are matrix "
                       f"axes ({', '.join(axes)}) or 'seed'")
    metrics = entry.get("metrics", ["ipc"])
    _expect(metrics, list, "table metrics", filename, lines,
            path + ("metrics",))
    for i, metric in enumerate(metrics):
        if metric not in METRICS:
            raise _err(filename, lines, path + ("metrics", i),
                       f"unknown metric {metric!r}; known: "
                       f"{', '.join(sorted(METRICS))}")
    fmt = entry.get("format", "md")
    if fmt not in TABLE_FORMATS:
        raise _err(filename, lines, path + ("format",),
                   f"unknown table format {fmt!r}; known: "
                   f"{', '.join(TABLE_FORMATS)}")
    return TableSpec(name=name, columns=tuple(columns),
                     metrics=tuple(metrics), format=fmt)


def _validate_figure(entry: Any, axes: Mapping[str, Tuple[Any, ...]],
                     filename: str, lines: Mapping[Path, int],
                     path: Path) -> FigureSpec:
    if not isinstance(entry, dict):
        raise _err(filename, lines, path, "each figure must be a mapping")
    _check_keys(entry, FIGURE_KEYS, "figure", filename, lines, path)
    name = _expect(entry.get("name"), str, "figure name", filename,
                   lines, path + ("name",))
    x = entry.get("x")
    if x not in axes:
        raise _err(filename, lines, path + ("x",),
                   f"figure x must be a matrix axis, got {x!r} "
                   f"(axes: {', '.join(axes)})")
    value = entry.get("value", "ipc")
    if value not in METRICS:
        raise _err(filename, lines, path + ("value",),
                   f"unknown metric {value!r}; known: "
                   f"{', '.join(sorted(METRICS))}")
    where = entry.get("where", {})
    if not isinstance(where, dict):
        raise _err(filename, lines, path + ("where",),
                   "figure where must be an axis->value mapping")
    for axis, wanted in where.items():
        if axis not in axes:
            raise _err(filename, lines, path + ("where", axis),
                       f"where names unknown axis {axis!r}")
        if wanted not in axes[axis]:
            raise _err(filename, lines, path + ("where", axis),
                       f"where value {wanted!r} is not in axis "
                       f"{axis!r} ({list(axes[axis])})")
    normalize_to = entry.get("normalize_to")
    if normalize_to is not None and normalize_to not in axes[x]:
        raise _err(filename, lines, path + ("normalize_to",),
                   f"normalize_to value {normalize_to!r} is not in axis "
                   f"{x!r} ({list(axes[x])})")
    return FigureSpec(name=name, x=x, value=value,
                      where=tuple(sorted(where.items())),
                      normalize_to=normalize_to)


def parse_spec(text: str, filename: str = "<spec>") -> ExperimentSpec:
    """Parse + validate spec YAML; every failure is a line-tagged
    :class:`SpecError`."""
    yaml, node = _compose(text, filename)
    lines: Dict[Path, int] = {}
    doc = _convert(yaml, node, (), lines, filename)
    if not isinstance(doc, dict):
        raise SpecError("spec must be a YAML mapping", filename, 1)
    _check_keys(doc, TOP_LEVEL_KEYS, "spec", filename, lines, ())

    if "matrix" not in doc:
        raise SpecError("spec needs a 'matrix' mapping", filename, 1)
    matrix = doc["matrix"]
    if not isinstance(matrix, dict) or not matrix:
        raise _err(filename, lines, ("matrix",),
                   "matrix must be a non-empty mapping of axis -> values")
    if "workload" not in matrix:
        raise _err(filename, lines, ("matrix",),
                   "matrix needs a 'workload' axis (e.g. workload: [H4])")
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    for axis, values in matrix.items():
        axes.append((axis, _validate_axis(axis, values, filename, lines,
                                          ("matrix", axis))))
    axis_map = dict(axes)

    include = _validate_filter(doc.get("include", []), "include",
                               axis_map, filename, lines, ("include",))
    exclude = _validate_filter(doc.get("exclude", []), "exclude",
                               axis_map, filename, lines, ("exclude",))
    seeds = _validate_seeds(doc.get("samples", 1), filename, lines,
                            ("samples",))

    name = doc.get("name", "experiment")
    _expect(name, str, "name", filename, lines, ("name",))
    description = doc.get("description", "")
    _expect(description, str, "description", filename, lines,
            ("description",))
    n_instrs = _expect(doc.get("n_instrs", 5000), int, "n_instrs",
                       filename, lines, ("n_instrs",))
    if n_instrs < 1:
        raise _err(filename, lines, ("n_instrs",),
                   f"n_instrs must be >= 1, got {n_instrs}")
    warmup = _expect(doc.get("warmup", 0), int, "warmup", filename,
                     lines, ("warmup",))
    if warmup < 0:
        raise _err(filename, lines, ("warmup",),
                   f"warmup must be >= 0, got {warmup}")
    max_cycles = _expect(doc.get("max_cycles", 50_000_000), int,
                         "max_cycles", filename, lines, ("max_cycles",))
    if max_cycles < 1:
        raise _err(filename, lines, ("max_cycles",),
                   f"max_cycles must be >= 1, got {max_cycles}")
    trace = doc.get("trace", False)
    if not isinstance(trace, bool):
        raise _err(filename, lines, ("trace",),
                   f"trace must be a boolean, got {trace!r}")

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise _err(filename, lines, ("outputs",),
                   "outputs must be a mapping with 'tables'/'figures'")
    _check_keys(outputs, OUTPUT_KEYS, "outputs", filename, lines,
                ("outputs",))
    axis_names = [axis for axis, _values in axes]
    tables_doc = outputs.get("tables", [])
    _expect(tables_doc, list, "outputs.tables", filename, lines,
            ("outputs", "tables"))
    tables = tuple(
        _validate_table(entry, axis_names, len(seeds) > 1, filename,
                        lines, ("outputs", "tables", i))
        for i, entry in enumerate(tables_doc))
    figures_doc = outputs.get("figures", [])
    _expect(figures_doc, list, "outputs.figures", filename, lines,
            ("outputs", "figures"))
    figures = tuple(
        _validate_figure(entry, axis_map, filename, lines,
                         ("outputs", "figures", i))
        for i, entry in enumerate(figures_doc))
    seen_names = set()
    for out in tables + figures:
        if out.filename in seen_names:
            raise _err(filename, lines, ("outputs",),
                       f"duplicate output file {out.filename!r}")
        seen_names.add(out.filename)

    spec = ExperimentSpec(
        name=name, description=description, axes=tuple(axes),
        include=include, exclude=exclude, seeds=seeds,
        n_instrs=n_instrs, warmup=warmup, max_cycles=max_cycles,
        trace=trace, tables=tables, figures=figures, path=filename)
    points = spec.points()
    if not points:
        raise _err(filename, lines, ("include",) if include else
                   ("exclude",),
                   "include/exclude filters leave no matrix points")
    for point in points:
        num_mcs = point.get("num_mcs", 1)
        if num_mcs == 1:
            continue
        machine = RunJob(_parse_workload(point["workload"], filename, None),
                         n_instrs).machine
        if machine != "eight":
            raise _err(filename, lines,
                       ("matrix", "num_mcs",
                        axis_map["num_mcs"].index(num_mcs)),
                       f"num_mcs={num_mcs} needs an eight-core workload; "
                       f"{point['workload']} runs on the {machine} "
                       "machine, which has one memory controller")
    spec.jobs()                # surface duplicate-point errors at load
    return spec


def load_spec(path: str) -> ExperimentSpec:
    """Load and validate an experiment spec file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec: {exc}", str(path)) from exc
    return parse_spec(text, filename=str(path))


# ---------------------------------------------------------------------------
# output rendering (tables + ASCII figures over the collected results)
# ---------------------------------------------------------------------------

@dataclass
class _Row:
    point: Dict[str, Any]
    seed: int
    result: RunResult = field(repr=False, default=None)  # set by _rows


def _rows(spec: ExperimentSpec,
          results: Sequence[RunResult]) -> List[_Row]:
    runs = spec.runs()
    if len(runs) != len(results):
        raise ValueError(f"result count mismatch: spec expands to "
                         f"{len(runs)} jobs, got {len(results)} results")
    return [_Row(point=point, seed=seed, result=result)
            for (point, seed), result in zip(runs, results)]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _render_table(table: TableSpec, rows: List[_Row]) -> str:
    groups: Dict[tuple, List[_Row]] = {}
    for row in rows:
        key = tuple(row.seed if c == "seed" else row.point[c]
                    for c in table.columns)
        groups.setdefault(key, []).append(row)
    headers = list(table.columns) + list(table.metrics)
    body = []
    for key, members in groups.items():
        cells = [_fmt(v) for v in key]
        for metric in table.metrics:
            fn = METRICS[metric]
            cells.append(format(_mean([fn(m.result) for m in members]),
                                ".4g"))
        body.append(tuple(cells))
    if table.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(headers)
        writer.writerows(body)
        return buffer.getvalue()
    if table.format == "txt":
        return format_table(headers, body) + "\n"
    return format_markdown_table(headers, body) + "\n"


def _render_figure(figure: FigureSpec, rows: List[_Row],
                   title_prefix: str) -> str:
    where = dict(figure.where)
    fn = METRICS[figure.value]
    by_x: Dict[Any, List[float]] = {}
    for row in rows:
        if all(row.point[a] == v for a, v in where.items()):
            by_x.setdefault(row.point[figure.x], []).append(fn(row.result))
    bars = [(_fmt(x), _mean(values)) for x, values in by_x.items()]
    subtitle = (" | " + ",".join(f"{a}={_fmt(v)}"
                                 for a, v in where.items())
                if where else "")
    title = (f"{title_prefix}: {figure.name} — {figure.value} by "
             f"{figure.x}{subtitle}")
    if figure.normalize_to is not None:
        if figure.normalize_to not in by_x:
            raise ValueError(
                f"figure {figure.name!r}: normalize_to value "
                f"{figure.normalize_to!r} was filtered out by 'where' "
                "or include/exclude")
        base = _mean(by_x[figure.normalize_to])
        bars = [(label, value / base if base else 0.0)
                for label, value in bars]
        title += f" (normalized to {_fmt(figure.normalize_to)})"
        return bar_chart(bars, title=title, baseline=1.0) + "\n"
    return bar_chart(bars, title=title) + "\n"


def render_outputs(spec: ExperimentSpec, results: Sequence[RunResult]
                   ) -> Dict[str, str]:
    """Render every declared output over ``results`` (which must align
    with ``spec.jobs()`` order).  Returns ``{filename: content}``."""
    rows = _rows(spec, results)
    out: Dict[str, str] = {}
    for table in spec.tables:
        out[table.filename] = _render_table(table, rows)
    for figure in spec.figures:
        out[figure.filename] = _render_figure(figure, rows, spec.name)
    return out
