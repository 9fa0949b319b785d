"""Built-in simlint rules; importing this package registers them.

Rules sharing one analysis live together: :mod:`.determinism`
(SIM002/SIM003/SIM013, over the project graph's source classification
and taint fixpoint), :mod:`.ownership` (SIM005/SIM008, one
classification of mutated attribute chains) and :mod:`.timing` (SIM004/SIM007/SIM009, one
scan of simulated-time sinks).  SIM001 and SIM006 are single-statement
checks.
"""

from . import (determinism, ownership, sim001_shared_state,
               sim006_mutable_defaults, timing)

__all__ = [
    "determinism",
    "ownership",
    "sim001_shared_state",
    "sim006_mutable_defaults",
    "timing",
]
