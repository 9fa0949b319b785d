"""Clean shared base: snapshot dispatches to a subclass hook.

Subclasses in ``memsys/`` are judged against this snapshot (virtual
dispatch: ``self._arch_snapshot()`` resolves to the override).
"""

from repro.sim.component import SimComponent


class TimingBase(SimComponent):
    """Base component whose snapshot delegates to ``_arch_snapshot``."""

    def snapshot(self) -> dict:
        state = self._header()
        state.update(self._arch_snapshot())
        return state

    def _arch_snapshot(self) -> dict:
        return {}
