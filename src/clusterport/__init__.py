"""Exact checks of two-qubit teleportation through a four-qubit
cluster-state channel: integer branch maps, certified repairs, a small
verification CLI, and a dense state-vector simulator as a reference."""

from .statevec import (
    StateVector,
    fidelity,
    format_state,
    relabel,
    tensor,
)
from .gates import PAULIS, apply_cz, apply_single
from .measurement import (
    BELL_OUTCOMES,
    BellOutcome,
    ProjectionResult,
    project_bell,
    sample_bell,
)
from .protocol import (
    CHANNEL_LABELS,
    INPUT_LABELS,
    OUTPUT_RELABELING,
    CorrectionOp,
    InputState,
    Scheme,
    apply_correction,
    assemble_total,
    cluster_state,
    collapse_branch,
    make_input,
    pauli_pair_fidelities,
    random_input,
    table_lookup,
    target_state,
)
from .harness import (
    InputSummary,
    Report,
    RunConfig,
    emit_report,
    run,
    run_derivation,
    run_enumeration,
    run_montecarlo,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "StateVector",
    "fidelity",
    "format_state",
    "relabel",
    "tensor",
    "PAULIS",
    "apply_cz",
    "apply_single",
    "BELL_OUTCOMES",
    "BellOutcome",
    "ProjectionResult",
    "project_bell",
    "sample_bell",
    "CHANNEL_LABELS",
    "INPUT_LABELS",
    "OUTPUT_RELABELING",
    "CorrectionOp",
    "InputState",
    "Scheme",
    "apply_correction",
    "assemble_total",
    "cluster_state",
    "collapse_branch",
    "make_input",
    "pauli_pair_fidelities",
    "random_input",
    "table_lookup",
    "target_state",
    "InputSummary",
    "Report",
    "RunConfig",
    "emit_report",
    "run",
    "run_derivation",
    "run_enumeration",
    "run_montecarlo",
    "run_verification",
    "__version__",
]
