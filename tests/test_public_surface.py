"""The package's public names, and the names the benchmark tracer binds.

The benchmark wraps functions by module path (``benchmarks/tracer.py``
``TARGETS``) and checks the rebinding through a few more names, so removing
any of them breaks the benchmark, not just a caller.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import clusterport

PUBLIC_NAMES = [
    "BELL_OUTCOMES",
    "BellOutcome",
    "CorrectionOp",
    "InputState",
    "InputSummary",
    "Report",
    "RunConfig",
    "Scheme",
    "StateVector",
    "__version__",
    "apply_single",
    "emit_report",
    "run",
    "table_lookup",
]

# Reached through their modules only: the dense reference and the per-mode
# runners.
MODULE_NAMES = {
    "statevec": ["fidelity", "format_state", "relabel", "tensor"],
    "gates": ["PAULIS", "apply_cz"],
    "measurement": ["ProjectionResult", "project_bell", "sample_bell"],
    "protocol": [
        "CHANNEL_LABELS",
        "INPUT_LABELS",
        "OUTPUT_RELABELING",
        "apply_correction",
        "assemble_total",
        "cluster_state",
        "collapse_branch",
        "make_input",
        "pauli_pair_fidelities",
        "random_input",
        "target_state",
    ],
    "harness": ["run_derivation", "run_enumeration", "run_montecarlo", "run_verification"],
}

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_public_names_are_pinned():
    assert sorted(clusterport.__all__) == PUBLIC_NAMES
    assert len(clusterport.__all__) == len(set(clusterport.__all__)) == 14
    for name in clusterport.__all__:
        assert hasattr(clusterport, name), name


@pytest.mark.parametrize("mod,name", [(m, n) for m, names in MODULE_NAMES.items() for n in names])
def test_module_names_are_not_at_the_root(mod, name):
    module = importlib.import_module(f"clusterport.{mod}")
    assert hasattr(module, name)
    with pytest.raises(ImportError):
        exec(f"from clusterport import {name}", {})


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for mod, attr in targets:
        module = importlib.import_module(f"clusterport.{mod}")
        assert callable(getattr(module, attr)), f"{mod}.{attr}"


def test_names_the_benchmark_rebinds_resolve():
    assert clusterport.protocol.apply_single is clusterport.gates.apply_single
    assert clusterport.apply_single is clusterport.gates.apply_single
    assert clusterport.StateVector is clusterport.statevec.StateVector
    assert clusterport.harness._RUNNERS["sample"] is clusterport.harness.run_montecarlo
