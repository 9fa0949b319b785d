"""Uniform component-state protocol for the phased run lifecycle.

Every stateful simulator class implements :class:`SimComponent`, which
partitions each component's mutable state into three layers:

**workload-derived state**
    What the simulated program put there: trace positions, cache/TLB
    contents keyed by addresses, predictor tables, page tables, DRAM
    open rows.  This is what snapshots carry.

**statistics**
    Counters that :meth:`SimComponent.reset_stats` zeroes.  A machine is
    snapshotted only at cycle 0 with an empty event wheel — freshly
    built, or at the warmup/measure boundary right after every
    statistic was reset — so each statistic sits at its construction
    value in the snapshotted machine and in any machine it is seated
    into.  Snapshots carry none of them.

**config-derived state**
    Structure sizes, latencies, policy objects, and wiring — everything
    reconstructible from :class:`~repro.uarch.params.SystemConfig`.
    Snapshots do not serialize it; they carry only a small *descriptor*
    (:meth:`SimComponent.config_state`) recording the projection of the
    configuration that the workload payload's interpretation depends on
    (geometry, capacities, identity, policy kind).

The protocol methods:

``reset_stats()``
    Zero every statistical counter the component owns without touching
    architectural state (cache contents, predictor tables, clocks).
    Used at the warmup/measure boundary so figures report only the
    region of interest, and the reason snapshots need no statistics.

``config_state() -> dict``
    The config-derived descriptor described above.  ``restore`` demands
    it match the live component exactly; ``reseat`` reads the snapshot's
    copy to remap workload state across a config change.

``snapshot() -> dict``
    Capture the workload-derived layer as a picklable dict (header:
    ``component``/``config``).  Components whose
    in-flight state holds callbacks (MSHR waiters, DRAM request
    callbacks, EMC pending lines) require a *quiesced* machine (empty
    event wheel) and raise :class:`SnapshotError` otherwise;
    :meth:`System.snapshot <repro.sim.system.System.snapshot>` further
    demands cycle 0.

``reseat(state, report, path)``
    The one way a snapshot goes back in: adopt it into a component whose
    configuration may differ from the snapshot's, re-hashing contents
    into new geometries where sizes changed and invalidating only what
    genuinely cannot carry over.  Records per-component kept/total
    counts into a :class:`CarryoverReport`.  Under an unchanged
    configuration everything carries and the component ends up
    bit-identical to the one snapshotted.

``restore(state)``
    The strict same-config resume, defined once on
    :class:`SimComponent`: it rejects a snapshot whose component name or
    config descriptor differs from the live one anywhere in the tree,
    then reseats it.  A checkpoint resume is a fork into the
    same configuration.

Snapshots are *shallow* captures: outer containers are copied, interior
objects are shared with the live component.  Serialize (pickle) or diff
a snapshot immediately; do not hold one across further simulation.

The contract has one check, the live fork identity
(:func:`repro.lint.sanitize.fork_identity_trees`): a no-override fork of
a machine at cycle 0 must equal its parent in every attribute of every
component, compared on the live objects, not on their snapshots.  So
``snapshot``/``reseat`` must carry all workload-derived state,
``reset_stats`` must leave every statistic at its construction value
(the value the freshly built fork holds), and ``reseat`` must read only
the descriptor keys ``config_state`` writes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

#: the header keys every component snapshot carries
_HEADER = ("component", "config")


class SnapshotError(RuntimeError):
    """A snapshot or restore was attempted in an invalid state (pending
    callbacks, component/config mismatch, malformed payload)."""


class CarryoverReport:
    """Accounting of how much workload-derived state survived a reseat.

    Components record ``(kept, total)`` entry counts under a
    slash-separated path (``"cores[0]/l1"``, ``"hierarchy/dram"``) as
    they adopt a snapshot into a possibly re-configured machine.  A
    component whose entire payload carries over records
    ``kept == total``; invalidated state shows up as ``kept < total``.
    """

    def __init__(self) -> None:
        self.entries: "OrderedDict[str, Tuple[int, int]]" = OrderedDict()

    def record(self, path: str, kept: int, total: int) -> None:
        prev_kept, prev_total = self.entries.get(path, (0, 0))
        self.entries[path] = (prev_kept + kept, prev_total + total)

    def ratio(self, path: str) -> float:
        kept, total = self.entries[path]
        return kept / total if total else 1.0

    def overall(self) -> float:
        kept = sum(k for k, _t in self.entries.values())
        total = sum(t for _k, t in self.entries.values())
        return kept / total if total else 1.0

    def as_dict(self) -> Dict[str, Tuple[int, int]]:
        """Plain-dict view for embedding in results (picklable)."""
        return dict(self.entries)

    def format(self) -> str:
        lines = ["carryover by component (kept/total):"]
        for path, (kept, total) in self.entries.items():
            ratio = kept / total if total else 1.0
            lines.append(f"  {path:<28s} {kept:>8d}/{total:<8d} "
                         f"{ratio:>6.1%}")
        lines.append(f"  {'overall':<28s} {self.overall():>24.1%}")
        return "\n".join(lines)


class SimComponent:
    """Base class for the uniform component-state protocol.

    Subclasses implement :meth:`reset_stats`, :meth:`config_state`,
    :meth:`snapshot` and :meth:`reseat`; ``snapshot`` dicts carry a
    ``component``/``config`` header written by :meth:`_header` and
    verified by :meth:`_check`.  :meth:`restore` is defined here only.
    A snapshot carries no version: a fork's is made and consumed in one
    process, and a checkpoint's is guarded by the payload's code
    fingerprint (:func:`repro.sim.system.code_fingerprint`).
    """

    def reset_stats(self) -> None:
        raise NotImplementedError

    def config_state(self) -> Dict[str, Any]:
        """Config-derived descriptor: the projection of configuration
        the workload payload's interpretation depends on.  Components
        whose payload is config-independent return ``{}``."""
        return {}

    def snapshot(self) -> Dict[str, Any]:
        raise NotImplementedError

    def reseat(self, state: Dict[str, Any], report: CarryoverReport,
               path: str = "") -> None:
        """Adopt ``state`` into a possibly re-configured component,
        recording what carried over into ``report`` under ``path``."""
        raise NotImplementedError

    def restore(self, state: Dict[str, Any]) -> None:
        """Adopt a snapshot taken under this exact configuration.

        Every component header in ``state`` must match the live
        component's own snapshot (name and config descriptor);
        the first one that differs is named in the :class:`SnapshotError`.
        The state then goes in through :meth:`reseat`.
        """
        mismatch = _header_mismatch(state, self.snapshot(),
                                    type(self).__name__)
        if mismatch is not None:
            raise SnapshotError(f"cannot restore: {mismatch}")
        self.reseat(state, CarryoverReport())

    # -- header helpers ------------------------------------------------------
    def _header(self) -> Dict[str, Any]:
        return {"component": type(self).__name__,
                "config": self.config_state()}

    def _check(self, state: Dict[str, Any],
               match_config: bool = True) -> Dict[str, Any]:
        """Verify a snapshot's header against this component; return it.

        With ``match_config`` (components that cannot reseat across a
        config change) the snapshot's config descriptor must equal the
        live component's; the others pass ``match_config=False`` and
        handle the mismatch themselves.
        """
        if not isinstance(state, dict):
            raise SnapshotError(
                f"{type(self).__name__}: snapshot is not a dict: "
                f"{type(state).__name__}")
        name = state.get("component")
        if name != type(self).__name__:
            raise SnapshotError(
                f"snapshot for component {name!r} offered to "
                f"{type(self).__name__}")
        if match_config:
            live = self.config_state()
            saved = state.get("config")
            if saved != live:
                raise SnapshotError(
                    f"{type(self).__name__}: cannot reseat across a "
                    f"config change: {_config_diff(saved, live)}")
        return state


def _config_diff(saved: Any, live: Dict[str, Any]) -> str:
    saved = saved if isinstance(saved, dict) else {}
    keys = sorted(key for key in set(saved) | set(live)
                  if saved.get(key) != live.get(key))
    return f"{keys} differ (snapshot {saved!r} != live {live!r})"


def _header_mismatch(saved: Any, live: Any, path: str) -> Optional[str]:
    """Walk ``live`` (a fresh snapshot) beside ``saved``; describe the
    first component header ``saved`` does not match as ``"path: what"``,
    or return None when every header agrees."""
    if isinstance(live, dict):
        if "component" in live and "config" in live:
            if not isinstance(saved, dict):
                return (f"{path}: {type(saved).__name__} is not a "
                        f"{live['component']} snapshot")
            if saved.get("component") != live["component"]:
                return (f"{path}: snapshot of {saved.get('component')!r}, "
                        f"live {live['component']!r}")
            if saved.get("config") != live["config"]:
                return (f"{path}: config "
                        f"{_config_diff(saved.get('config'), live['config'])}"
                        f"; reseat() adopts across a config change")
        if not isinstance(saved, dict):
            return None
        for key, value in live.items():
            if key in _HEADER:
                continue
            where = (f"{path}.{key}" if isinstance(key, str)
                     else f"{path}[{key!r}]")
            found = _header_mismatch(saved.get(key), value, where)
            if found is not None:
                return found
    elif isinstance(live, (list, tuple)) and isinstance(saved, (list, tuple)):
        for index, (item, value) in enumerate(zip(saved, live)):
            found = _header_mismatch(item, value, f"{path}[{index}]")
            if found is not None:
                return found
    return None


# -- generic helpers ---------------------------------------------------------

def reset_dataclass_stats(obj: Any,
                          preserve: Iterable[str] = ()) -> None:
    """Reset a stats dataclass to its construction defaults, in place.

    ``preserve`` names identity fields kept verbatim at every nesting
    level (e.g. ``core_id``/``benchmark`` on ``CoreStats``).  Nested
    dataclasses and lists of dataclasses recurse; plain containers are
    cleared; scalars take their declared field default.
    """
    keep = frozenset(preserve)
    for f in fields(obj):
        if f.name in keep:
            continue
        value = getattr(obj, f.name)
        if is_dataclass(value) and not isinstance(value, type):
            reset_dataclass_stats(value, keep)
        elif isinstance(value, dict):
            value.clear()
        elif isinstance(value, list):
            if value and is_dataclass(value[0]):
                for item in value:
                    reset_dataclass_stats(item, keep)
            else:
                value.clear()
        elif f.default is not MISSING:
            setattr(obj, f.name, f.default)
        elif isinstance(value, bool):
            setattr(obj, f.name, False)
        elif isinstance(value, int):
            setattr(obj, f.name, 0)
        elif isinstance(value, float):
            setattr(obj, f.name, 0.0)
        else:
            raise SnapshotError(
                f"cannot reset {type(obj).__name__}.{f.name}: no default "
                f"and unknown type {type(value).__name__}")


def require_empty(component: SimComponent, **named: Any) -> None:
    """Raise :class:`SnapshotError` unless every named container is empty.

    Used by components whose in-flight state carries callbacks and can
    therefore only be snapshotted on a quiesced machine.
    """
    for name, container in named.items():
        if container:
            raise SnapshotError(
                f"{type(component).__name__}: cannot snapshot with "
                f"{len(container)} pending entries in {name} "
                f"(quiesce the machine first)")


def rebase_clock(value: int, origin: int) -> int:
    """Rebase an absolute-cycle field when the wheel rewinds to zero.

    Clamped at zero: these fields are only ever consumed through
    ``max(now, x)`` or ``x > now`` comparisons, so any value at or
    before the boundary is equivalent to \"free now\".
    """
    return max(0, value - origin)


def rebase_clock_map(mapping: Dict[Any, int], origin: int) -> None:
    """In-place :func:`rebase_clock` over a dict's values, dropping
    entries that rebase to zero (equivalent to absent)."""
    stale = [key for key, value in mapping.items() if value <= origin]
    for key in stale:
        del mapping[key]
    for key in mapping:
        mapping[key] = mapping[key] - origin


__all__ = [
    "SimComponent",
    "SnapshotError",
    "CarryoverReport",
    "reset_dataclass_stats",
    "require_empty",
    "rebase_clock",
    "rebase_clock_map",
]
