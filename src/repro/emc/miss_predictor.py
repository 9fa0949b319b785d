"""LLC hit/miss prediction at the EMC (Section 4.3), as a registry.

The bypass decision — should an EMC load skip the on-chip hierarchy and
go straight to DRAM? — is a swappable mechanism, mirroring the
interconnect split: :class:`OffChipPredictor` owns everything the rest
of the simulator sees (the ``predict_miss``/``update`` contract, the
per-core learned tables, snapshot/reseat including cross-kind
re-seating), while each concrete predictor provides only its table
payload and the prediction function over it.

Two kinds are registered:

``map-i``
    The paper's choice (after Qureshi & Loh's MAP-I): per-core arrays of
    3-bit saturating counters hashed by the PC of the miss-causing
    instruction.  Predict miss at or above threshold.

``hermes``
    A perceptron-based off-chip predictor in the style of Hermes
    (PAPERS.md): per-core integer weight tables over several hashed
    program features — the PC, the PC xor the page offset, the last-N
    LLC-outcome history, and the cacheline offset — summed against an
    activation threshold, with saturating train-on-outcome updates.

``build_predictor`` dispatches on :class:`~repro.uarch.params.
PredictorConfig`'s ``kind``; `System` and the memory hierarchy talk to
``OffChipPredictor`` and never to a concrete kind.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..sim.component import CarryoverReport, SimComponent
from ..uarch.params import (CACHE_LINE_BYTES, PAGE_BYTES, PREDICTORS,
                            PredictorConfig)

__all__ = ["OffChipPredictor", "MissPredictor", "HermesPerceptron",
           "build_predictor"]


def _payload_size(payload: Any) -> int:
    """Number of learned scalars in one per-core table payload.

    Works on any registered kind's payload shape (nested lists/dicts of
    ints), so cross-kind reseat can account a foreign snapshot's size
    without interpreting it.
    """
    if isinstance(payload, dict):
        return sum(_payload_size(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(_payload_size(v) for v in payload)
    return 1


class OffChipPredictor(SimComponent):
    """Base off-chip (LLC hit/miss) predictor behind the EMC bypass.

    Learned state is a per-core table (:meth:`_new_table` builds one,
    :meth:`_copy_table` deep-copies one); the base owns snapshotting and
    re-seating of the ``{core: payload}`` map.  The tables are
    architectural — they stay warm across the warmup/measure boundary;
    the predictor owns no statistical counters (accuracy accounting
    lives in :class:`~repro.sim.stats.EMCStats`).
    """

    #: registry name of the predictor; each subclass overrides this.
    kind = "abstract"

    def __init__(self) -> None:
        self._tables: Dict[int, Any] = {}

    # -- the predict/update contract ------------------------------------
    def predict_miss(self, core: int, pc: int, vaddr: int = 0) -> bool:
        """True when the load should bypass the LLC and go to DRAM."""
        raise NotImplementedError

    def update(self, core: int, pc: int, was_miss: bool,
               vaddr: int = 0) -> None:
        """Train on an observed LLC outcome."""
        raise NotImplementedError

    # -- table hooks -----------------------------------------------------
    def _new_table(self) -> Any:
        raise NotImplementedError

    def _copy_table(self, table: Any) -> Any:
        raise NotImplementedError

    def _adoptable(self, saved_config: dict) -> bool:
        """Can a same-kind snapshot captured under ``saved_config`` still
        train this instance's tables meaningfully?"""
        raise NotImplementedError

    def _table(self, core: int) -> Any:
        table = self._tables.get(core)
        if table is None:
            table = self._new_table()
            self._tables[core] = table
        return table

    # -- SimComponent protocol -------------------------------------------
    def reset_stats(self) -> None:
        pass

    def config_state(self) -> dict:
        return {"kind": self.kind}

    def snapshot(self) -> dict:
        state = self._header()
        state["tables"] = {core: self._copy_table(table)
                          for core, table in self._tables.items()}
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot, accounting kept/total per core table.

        Same kind, adoptable geometry: tables carry whole.  Same kind
        under a table resize, or a *different* predictor kind (a
        MAP-I-warmed machine forking into a Hermes EMC, or back): the
        learned state means nothing to the new tables, so every core's
        payload drops with 0/len accounting and the predictor restarts
        cold.
        """
        # Any registered predictor's snapshot is acceptable here, so
        # relabel a sibling kind's header before the usual checks; the
        # kind comparison below then lands in the everything-drops
        # branch.
        if (isinstance(state, dict)
                and state.get("component") != type(self).__name__
                and "kind" in (state.get("config") or {})):
            state = dict(state, component=type(self).__name__)
        state = self._check(state, match_config=False)
        saved_config = state.get("config") or {}
        carry = (saved_config.get("kind") == self.kind
                 and self._adoptable(saved_config))
        self._tables.clear()
        for core in sorted(state["tables"]):
            table = state["tables"][core]
            total = _payload_size(table)
            if carry:
                self._tables[core] = self._copy_table(table)
                report.record(f"{path}/core{core}", total, total)
            else:
                report.record(f"{path}/core{core}", 0, total)


class MissPredictor(OffChipPredictor):
    """MAP-I: per-core arrays of 3-bit counters indexed by a PC hash."""

    kind = "map-i"
    COUNTER_MAX = 7

    def __init__(self, cfg: PredictorConfig) -> None:
        super().__init__()
        if not cfg.entries or cfg.entries & (cfg.entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = cfg.entries
        self.threshold = cfg.threshold

    def _new_table(self) -> List[int]:
        return [self.COUNTER_MAX // 2] * self.entries

    def _copy_table(self, table: List[int]) -> List[int]:
        return list(table)

    def _adoptable(self, saved_config: dict) -> bool:
        # Counter tables carry across a threshold change (the counters
        # are outcome history, the threshold only interprets them) but
        # not across a resize — the PC hash changes, so old counters
        # would train the wrong slots.
        return saved_config["entries"] == self.entries

    def _index(self, pc: int) -> int:
        return (pc ^ (pc >> 10)) & (self.entries - 1)

    def predict_miss(self, core: int, pc: int, vaddr: int = 0) -> bool:
        return self._table(core)[self._index(pc)] >= self.threshold

    def update(self, core: int, pc: int, was_miss: bool,
               vaddr: int = 0) -> None:
        table = self._table(core)
        index = self._index(pc)
        if was_miss:
            table[index] = min(self.COUNTER_MAX, table[index] + 1)
        else:
            table[index] = max(0, table[index] - 1)

    def config_state(self) -> dict:
        return {"kind": self.kind, "entries": self.entries,
                "threshold": self.threshold}


class HermesPerceptron(OffChipPredictor):
    """Hermes-style perceptron over hashed program features.

    Each core owns one weight table per feature plus a last-N LLC
    outcome history register; a prediction sums the four indexed weights
    and compares against the activation threshold.  Training is
    perceptron-style: only when the prediction was wrong or the sum's
    magnitude is inside the training threshold do the touched weights
    move (toward the observed outcome, saturating at ±``weight_max``).
    """

    kind = "hermes"
    NUM_FEATURES = 4

    def __init__(self, cfg: PredictorConfig) -> None:
        super().__init__()
        entries = cfg.hermes_entries
        if not entries or entries & (entries - 1):
            raise ValueError("hermes_entries must be a power of two")
        self.entries = entries
        self.history_len = cfg.hermes_history
        self.weight_max = cfg.hermes_weight_max
        self.activation = cfg.hermes_activation
        self.training_threshold = cfg.hermes_training_threshold

    def _new_table(self) -> dict:
        return {"history": 0,
                "weights": [[0] * self.entries
                            for _ in range(self.NUM_FEATURES)]}

    def _copy_table(self, table: dict) -> dict:
        return {"history": table["history"],
                "weights": [list(row) for row in table["weights"]]}

    def _adoptable(self, saved_config: dict) -> bool:
        # Weights carry only when the whole table geometry matches; the
        # activation/training thresholds, like MAP-I's threshold, only
        # interpret the weights and may differ.
        return (saved_config["entries"] == self.entries
                and saved_config["history_len"] == self.history_len
                and saved_config["weight_max"] == self.weight_max)

    def _hash(self, value: int) -> int:
        return (value ^ (value >> 7) ^ (value >> 15)) & (self.entries - 1)

    def _indices(self, pc: int, vaddr: int, history: int) -> List[int]:
        page_offset = vaddr & (PAGE_BYTES - 1)
        line_offset = vaddr & (CACHE_LINE_BYTES - 1)
        return [self._hash(pc),
                self._hash(pc ^ page_offset),
                self._hash(history),
                self._hash((line_offset << 4) ^ pc >> 4)]

    def _sum(self, table: dict, pc: int, vaddr: int) -> int:
        indices = self._indices(pc, vaddr, table["history"])
        return sum(row[index]
                   for row, index in zip(table["weights"], indices))

    def predict_miss(self, core: int, pc: int, vaddr: int = 0) -> bool:
        table = self._table(core)
        return self._sum(table, pc, vaddr) >= self.activation

    def update(self, core: int, pc: int, was_miss: bool,
               vaddr: int = 0) -> None:
        table = self._table(core)
        total = self._sum(table, pc, vaddr)
        predicted = total >= self.activation
        if predicted != was_miss or abs(total) <= self.training_threshold:
            delta = 1 if was_miss else -1
            indices = self._indices(pc, vaddr, table["history"])
            for row, index in zip(table["weights"], indices):
                row[index] = max(-self.weight_max,
                                 min(self.weight_max, row[index] + delta))
        table["history"] = (((table["history"] << 1) | int(was_miss))
                            & ((1 << self.history_len) - 1))

    def config_state(self) -> dict:
        return {"kind": self.kind, "entries": self.entries,
                "history_len": self.history_len,
                "weight_max": self.weight_max}


def build_predictor(cfg: PredictorConfig) -> OffChipPredictor:
    """Instantiate the predictor named by ``cfg.kind``."""
    kind = cfg.kind
    if kind == "map-i":
        return MissPredictor(cfg)
    if kind == "hermes":
        return HermesPerceptron(cfg)
    raise ValueError(f"unknown predictor: {kind!r} "
                     f"(known: {', '.join(PREDICTORS)})")
