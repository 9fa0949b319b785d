"""Built-in simlint rules; importing this package registers SIM001–SIM013.

Rules sharing one analysis live together: :mod:`.determinism`
(SIM002/SIM003/SIM013, over the project graph's source classification
and taint fixpoint), :mod:`.ownership` (SIM005/SIM008, one
classification of mutated attribute chains) and :mod:`.timing` (SIM004/SIM007/SIM009, one
scan of simulated-time sinks).  SIM010–SIM012 check the component
protocol against the graph's class tables; SIM001 and SIM006 are
single-statement checks.
"""

from . import (determinism, ownership, sim001_shared_state,
               sim006_mutable_defaults, sim010_snapshot_completeness,
               sim011_reset_coverage, sim012_config_state_drift, timing)

__all__ = [
    "determinism",
    "ownership",
    "sim001_shared_state",
    "sim006_mutable_defaults",
    "sim010_snapshot_completeness",
    "sim011_reset_coverage",
    "sim012_config_state_drift",
    "timing",
]
