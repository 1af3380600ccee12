"""Exact checks of two-qubit teleportation through a four-qubit
cluster-state channel.

The package root exports the run contract: configure a ``RunConfig``,
``run`` it in one of four modes (``enumerate``, ``sample``, ``derive``,
``verify``), then read the ``Report`` or write it with ``emit_report``.
The per-mode runners, the integer branch maps and the repair certificate
live in ``harness`` and ``protocol``.  The dense six-qubit state-vector
simulator that the tests use as a reference lives in ``statevec``,
``gates``, ``measurement`` and the assembly functions of ``protocol``, and
is imported from there."""

# StateVector and apply_single are not part of the contract: the benchmark
# tests check their rebinding through the package root.  They leave the
# root when the dense simulator leaves src/.
from .statevec import StateVector
from .gates import apply_single
from .measurement import BELL_OUTCOMES, BellOutcome
from .protocol import CorrectionOp, InputState, Scheme, table_lookup
from .harness import InputSummary, Report, RunConfig, emit_report, run

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "Scheme", "run", "Report", "InputSummary", "emit_report",
    "BellOutcome", "BELL_OUTCOMES", "CorrectionOp", "InputState", "table_lookup",
    "StateVector", "apply_single",
    "__version__",
]
