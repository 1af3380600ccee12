"""The package's public names, and the names the benchmark tracer binds.

The benchmark wraps functions by module path (``benchmarks/tracer.py``
``TARGETS``) and checks the rebinding through a few more names, so removing
any of them breaks the benchmark, not just a caller.
"""

import importlib.util
from pathlib import Path

import clusterport

PUBLIC_NAMES = [
    "BELL_OUTCOMES",
    "BellOutcome",
    "CHANNEL_LABELS",
    "CorrectionOp",
    "INPUT_LABELS",
    "InputState",
    "InputSummary",
    "OUTPUT_RELABELING",
    "PAULIS",
    "ProjectionResult",
    "Report",
    "RunConfig",
    "Scheme",
    "StateVector",
    "__version__",
    "apply_correction",
    "apply_cz",
    "apply_single",
    "assemble_total",
    "cluster_state",
    "collapse_branch",
    "emit_report",
    "fidelity",
    "format_state",
    "make_input",
    "pauli_pair_fidelities",
    "project_bell",
    "random_input",
    "relabel",
    "run",
    "run_derivation",
    "run_enumeration",
    "run_montecarlo",
    "run_verification",
    "sample_bell",
    "table_lookup",
    "target_state",
    "tensor",
]

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_public_names_are_pinned():
    assert sorted(clusterport.__all__) == PUBLIC_NAMES
    assert len(clusterport.__all__) == len(set(clusterport.__all__)) == 38
    for name in clusterport.__all__:
        assert hasattr(clusterport, name), name


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for mod, attr in targets:
        module = getattr(clusterport, mod)
        assert callable(getattr(module, attr)), f"{mod}.{attr}"


def test_names_the_benchmark_rebinds_resolve():
    assert clusterport.protocol.apply_single is clusterport.gates.apply_single
    assert clusterport.apply_single is clusterport.gates.apply_single
    assert clusterport.StateVector is clusterport.statevec.StateVector
    assert clusterport.harness._RUNNERS["sample"] is clusterport.harness.run_montecarlo
