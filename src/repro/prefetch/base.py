"""Prefetcher framework.

Prefetchers observe demand accesses at the LLC (the paper prefetches into
the LLC) and emit candidate line addresses.  Feedback-Directed Prefetching
(FDP) throttles the issue degree based on measured accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim.component import (CarryoverReport, SimComponent,
                             reset_dataclass_stats)


@dataclass
class PrefetchStats:
    """Issued, useful, late and dropped prefetch candidates.  Window: the
    whole run, until the post-finish drain ends."""

    issued: int = 0
    useful: int = 0
    late: int = 0
    dropped: int = 0

    @property
    def accuracy(self) -> float:
        return self.useful / self.issued if self.issued else 0.0


class Prefetcher(SimComponent):
    """Base class: observe accesses, propose prefetch line addresses.

    State split: pattern tables declared by subclasses via
    ``_arch_snapshot``/``_arch_restore`` are architectural (kept warm
    across the warmup/measure boundary); :class:`PrefetchStats` is
    statistical.
    """

    name = "none"

    def __init__(self) -> None:
        self.stats = PrefetchStats()

    def observe(self, line: int, pc: int, core: int,
                hit: bool) -> List[int]:
        """Called on each LLC demand access; returns candidate lines."""
        return []

    # -- SimComponent protocol -----------------------------------------------
    def _arch_snapshot(self) -> dict:
        """Subclass hook: capture pattern-table state."""
        return {}

    def _arch_restore(self, arch: dict) -> None:
        """Subclass hook: adopt pattern-table state in place."""

    def reset_stats(self) -> None:
        reset_dataclass_stats(self.stats)

    def config_state(self) -> dict:
        # The policy kind is the whole descriptor: pattern tables only
        # make sense to the algorithm that built them.
        return {"kind": self.name}

    def snapshot(self) -> dict:
        state = self._header()
        state["arch"] = self._arch_snapshot()
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot when the policy kind matches; a different
        prefetcher starts cold (its tables cannot be translated).  The
        snapshot may come from a different Prefetcher subclass, so the
        kind comparison happens before any header check."""
        if (isinstance(state, dict)
                and state.get("config") == self.config_state()):
            state = self._check(state)
            self._arch_restore(state["arch"])
            report.record(path, 1, 1)
        else:
            report.record(path, 0, 1)

    # -- stats mutation API (SIM005: counters change only via the owner) -----
    def note_issued(self) -> None:
        """A candidate of this prefetcher was issued to memory."""
        self.stats.issued += 1

    def note_useful(self) -> None:
        """A demand access hit a line this prefetcher brought in."""
        self.stats.useful += 1

    def note_late(self) -> None:
        """A demand arrived while the prefetch was still in flight."""
        self.stats.late += 1

    def note_dropped(self) -> None:
        """A candidate was dropped (MSHRs full or filtered out)."""
        self.stats.dropped += 1


class NullPrefetcher(Prefetcher):
    """No prefetching (the paper's baseline)."""

    name = "none"


class CompositePrefetcher(Prefetcher):
    """Runs several prefetchers side by side (e.g. Markov+stream).

    The composite owns ``issued/useful/late/dropped`` for all its parts:
    the hierarchy counts through the composite's ``note_*``, so the
    parts' own ``stats`` stay 0 and which part proposed a candidate is
    not recorded."""

    def __init__(self, parts: List[Prefetcher]) -> None:
        super().__init__()
        self.parts = parts
        self.name = "+".join(p.name for p in parts)

    def observe(self, line: int, pc: int, core: int,
                hit: bool) -> List[int]:
        out: List[int] = []
        for part in self.parts:
            out.extend(part.observe(line, pc, core, hit))
        return out

    def _arch_snapshot(self) -> dict:
        return {"parts": [part.snapshot() for part in self.parts]}

    def _arch_restore(self, arch: dict) -> None:
        for part, saved in zip(self.parts, arch["parts"]):
            part.restore(saved)


class FDPThrottle(SimComponent):
    """Feedback-Directed Prefetching: dynamic degree between 1 and 32.

    Accuracy is sampled over fixed-size windows of issued prefetches; high
    accuracy ramps the degree up, low accuracy ramps it down.  The degree
    caps how many of a prefetcher's candidates are actually issued per
    observation.
    """

    HIGH_ACCURACY = 0.75
    LOW_ACCURACY = 0.40
    WINDOW = 64

    def __init__(self, min_degree: int = 1, max_degree: int = 32) -> None:
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.degree = max(2, min_degree)
        self._window_issued = 0
        self._window_useful = 0

    def record_issue(self, count: int = 1) -> None:
        self._window_issued += count
        if self._window_issued >= self.WINDOW:
            self._adapt()

    def record_useful(self, count: int = 1) -> None:
        self._window_useful += count

    def _adapt(self) -> None:
        accuracy = (self._window_useful / self._window_issued
                    if self._window_issued else 0.0)
        if accuracy >= self.HIGH_ACCURACY:
            self.degree = min(self.max_degree, self.degree * 2)
        elif accuracy < self.LOW_ACCURACY:
            self.degree = max(self.min_degree, self.degree // 2)
        self._window_issued = 0
        self._window_useful = 0

    def clamp(self, candidates: List[int]) -> List[int]:
        return candidates[: self.degree]

    # -- SimComponent protocol -----------------------------------------------
    # The adapted degree and in-progress accuracy window are control
    # (architectural) state: they carry across the warmup/measure boundary
    # like any other learned predictor state.
    def reset_stats(self) -> None:
        pass

    def config_state(self) -> dict:
        return {"min_degree": self.min_degree,
                "max_degree": self.max_degree}

    def snapshot(self) -> dict:
        state = self._header()
        state["degree"] = self.degree
        state["window"] = (self._window_issued, self._window_useful)
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """The adapted degree clamps into the live [min, max] range;
        the in-progress accuracy window always carries."""
        state = self._check(state, match_config=False)
        self.degree = min(self.max_degree,
                          max(self.min_degree, state["degree"]))
        self._window_issued, self._window_useful = state["window"]
        kept = 1 if self.degree == state["degree"] else 0
        report.record(path, kept, 1)
