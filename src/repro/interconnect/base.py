"""Abstract interconnect fabric: the `SimComponent` face of the on-chip
network plus the shared link-reservation timing model.

Concrete topologies (the bi-directional :class:`~repro.interconnect.ring.
Ring`, the XY-routed :class:`~repro.interconnect.mesh.Mesh2D`) provide
only the routing — the ordered list of directed link keys a message
crosses — while this base owns everything the rest of the simulator
sees: the ``send`` contract, per-link next-free clocks, the stats
accounting, and snapshot/reseat/rebase.  That split is what
makes the fabric swappable: `System` and the memory hierarchy talk to
``Interconnect`` and never to a topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Final, List, Mapping, Tuple

from ..sim.component import (CarryoverReport, SimComponent,
                             rebase_clock_map, reset_dataclass_stats)
from ..sim.events import EventWheel
from ..uarch.params import FabricConfig


@dataclass(slots=True)
class FabricStats:
    """Message/hop/latency counters, identical across topologies.
    Window: the whole run, every message until the post-finish drain
    ends."""

    control_messages: int = 0
    data_messages: int = 0
    emc_control_messages: int = 0
    emc_data_messages: int = 0
    total_hops: int = 0
    control_hops: int = 0
    data_hops: int = 0
    emc_control_hops: int = 0
    emc_data_hops: int = 0
    total_latency: int = 0
    emc_latency: int = 0

    @property
    def messages(self) -> int:
        return self.control_messages + self.data_messages

    @property
    def emc_messages(self) -> int:
        return self.emc_control_messages + self.emc_data_messages

    @property
    def emc_hops(self) -> int:
        return self.emc_control_hops + self.emc_data_hops

    @property
    def avg_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0

    @property
    def avg_emc_latency(self) -> float:
        n = self.emc_messages
        return self.emc_latency / n if n else 0.0


#: (kind, emc) -> (message counters, hop counters) to bump on a send.
#: EMC-tagged traffic counts into both the plain field and its ``emc_*``
#: mirror (the Section 6.5 overhead accounting subsets total traffic).
_STAT_FIELDS: Final[Mapping[Tuple[str, bool],
                            Tuple[Tuple[str, ...], Tuple[str, ...]]]] = \
    MappingProxyType({
        ("ctrl", False): (("control_messages",), ("control_hops",)),
        ("ctrl", True): (("control_messages", "emc_control_messages"),
                         ("control_hops", "emc_control_hops")),
        ("data", False): (("data_messages",), ("data_hops",)),
        ("data", True): (("data_messages", "emc_data_messages"),
                         ("data_hops", "emc_data_hops")),
    })


class Interconnect(SimComponent):
    """Base fabric connecting ``num_stops`` stops (cores then MCs).

    ``send`` asks the topology for the directed links a message crosses
    (:meth:`_links`), reserves each (per-link next-free times, data
    messages occupying links longer than control messages per Table 1's
    8 B vs 64 B widths), and schedules the delivery callback at arrival.
    """

    #: registry name of the topology; each subclass overrides this.
    topology = "abstract"

    def __init__(self, num_stops: int, cfg: FabricConfig,
                 wheel: EventWheel) -> None:
        if num_stops < 2:
            raise ValueError(
                f"a {self.topology} needs at least two stops")
        self.num_stops = num_stops
        self.cfg = cfg
        self.wheel = wheel
        self.stats = FabricStats()
        # Link occupancy: topology-defined link key -> next free time.
        self._link_free: Dict[tuple, int] = {}

    # -- SimComponent protocol ------------------------------------------
    # Architectural: per-link next-free clocks; statistical: FabricStats.
    def reset_stats(self) -> None:
        reset_dataclass_stats(self.stats)

    def config_state(self) -> dict:
        return {"topology": self.topology, "num_stops": self.num_stops}

    def snapshot(self) -> dict:
        state = self._header()
        state["link_free"] = dict(self._link_free)
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot; across a stop-count or topology change the
        per-link busy clocks name links that no longer exist, so they
        drop (the links are simply free)."""
        # Any fabric's snapshot is acceptable here — a ring-warmed
        # machine forks into a mesh and vice versa — so relabel a
        # sibling topology's header before the usual checks; the config
        # comparison below then lands in the everything-drops branch.
        if (isinstance(state, dict)
                and state.get("component") != type(self).__name__
                and "topology" in (state.get("config") or {})):
            state = dict(state, component=type(self).__name__)
        state = self._check(state, match_config=False)
        saved = state["link_free"]
        self._link_free.clear()
        if state["config"] == self.config_state():
            self._link_free.update(saved)
            report.record(path, len(saved), len(saved))
        else:
            report.record(path, 0, len(saved))

    def rebase(self, origin: int) -> None:
        """Rebase link clocks when the wheel rewinds to zero."""
        rebase_clock_map(self._link_free, origin)

    # -- topology hook --------------------------------------------------
    def _links(self, src: int, dst: int, kind: str) -> List[tuple]:
        """Directed link keys a ``kind`` message crosses from ``src`` to
        ``dst``, in traversal order (empty when ``src == dst``)."""
        raise NotImplementedError

    # -- the send contract ----------------------------------------------
    def send(self, src: int, dst: int, kind: str,
             callback: Callable[[], None], emc: bool = False) -> int:
        """Send a message; returns its delivery latency in cycles.

        ``kind`` is "ctrl" or "data".  ``emc`` tags EMC-related traffic
        for the Section 6.5 overhead accounting.
        """
        if kind not in ("ctrl", "data"):
            raise ValueError(
                f"unknown {self.topology} message kind: {kind}")
        occupancy = (self.cfg.control_occupancy if kind == "ctrl"
                     else self.cfg.data_occupancy)
        links = self._links(src, dst, kind)

        time = self.wheel.now
        for key in links:
            start = max(time, self._link_free.get(key, 0))
            self._link_free[key] = start + occupancy
            time = start + self.cfg.link_cycles

        latency = time - self.wheel.now
        self._count_send(kind, emc, len(links), latency)
        self.wheel.schedule(latency, callback)
        return latency

    def _count_send(self, kind: str, emc: bool, hops: int,
                    latency: int) -> None:
        stats = self.stats
        message_fields, hop_fields = _STAT_FIELDS[kind, emc]
        for name in message_fields:
            setattr(stats, name, getattr(stats, name) + 1)
        stats.total_hops += hops
        for name in hop_fields:
            setattr(stats, name, getattr(stats, name) + hops)
        stats.total_latency += latency
        if emc:
            stats.emc_latency += latency
