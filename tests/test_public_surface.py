"""The package's public names, the names the benchmark tracer binds, and
the modules each kind of run loads.

The benchmark wraps functions by module path (``benchmarks/tracer.py``
``TARGETS``) and checks the rebinding through a few more names, so removing
any of them breaks the benchmark, not just a caller.  The tracer finds its
target modules in ``sys.modules``, so a bare ``import clusterport`` must put
them all there, even the ones that load numpy only on first use.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import types
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

# Reached through their modules only: the numpy side of enumerate and
# sample, the dense reference and the per-mode runners.
MODULE_NAMES = {
    "exact": [
        "BELL_SIGNS",
        "CLUSTER_SIGNS",
        "PAULI_NAMES",
        "PAULI_PAIRS",
        "branch_maps",
        "certified_repairs",
        "repaired_map",
    ],
    "floatpath": [
        "DISPLAY_TOL",
        "INPUT_BLOCK",
        "SAMPLE_BLOCK",
        "cell_thresholds",
        "check_coeffs",
        "display_rotation",
        "format_states",
        "index_thresholds",
        "map_inputs",
        "outcome_cells",
        "random_inputs",
        "repair_branches",
        "sample_outcome_pairs",
    ],
    "statevec": ["fidelity", "format_state", "relabel", "tensor"],
    "gates": ["PAULIS", "apply_cz"],
    "measurement": ["ProjectionResult", "draw_index", "project_bell", "sample_bell"],
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

HERE = Path(__file__).resolve().parent
TRACER = HERE.parent / "benchmarks" / "tracer.py"


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


def run_python(code: str, *flags: str) -> str:
    """Run ``code`` in a fresh interpreter, started with ``flags``, that
    imports this package and these tests; its standard output."""
    src = Path(clusterport.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(HERE)])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_derive_and_verify_never_load_numpy(tmp_path):
    # nor csv, typing, dataclasses (with inspect), pathlib or the argparse
    # family (argparse, gettext, shutil), at import or in any run, and json
    # and re, which json imports, only for a JSON report; -S, so that no .pth
    # file in site-packages loads them before the package does
    out = tmp_path / "report"
    stdout = run_python(f"""
import sys
import clusterport.cli

def loaded(*allowed):
    banned = ("numpy", "csv", "typing", "dataclasses", "inspect", "pathlib", "json",
              "argparse", "gettext", "shutil", "re")
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in banned and name.split(".")[0] not in allowed)

print(loaded())
for fmts, allowed in ((("csv", "text"), ()), (("json",), ("json", "re"))):
    for scheme in ("1", "2"):
        for mode in ("derive", "verify"):
            for fmt in fmts:
                argv = [mode, "--scheme", scheme, "--format", fmt, "--out", {str(out)!r}]
                assert clusterport.cli.main(argv) == 0, argv
    print(loaded(*allowed), "json" in sys.modules)
""", "-S")
    assert stdout == "[]\n[] False\n[] True\n"


def test_enumerate_and_sample_never_run_the_dense_reference(tmp_path):
    # a lazy module that has run is a plain module again; type() reads the
    # class without running it
    out = tmp_path / "report"
    stdout = run_python(f"""
import sys
import types
import clusterport.cli
for scheme, coeffs in (("1", "0.6,0.8j"), ("2", "0.5,0.5,0.5,-0.5j")):
    for mode in ("enumerate", "sample"):
        for fmt in ("json", "csv", "text"):
            for inputs in ([], ["--coeffs", coeffs]):
                argv = [mode, "--scheme", scheme, "--format", fmt, *inputs, "--out", {str(out)!r}]
                assert clusterport.cli.main(argv) == 0, argv
dense = ("statevec", "gates", "measurement", "protocol")
print([mod for mod in dense if type(sys.modules[f"clusterport.{{mod}}"]) is types.ModuleType])
print("clusterport.floatpath" in sys.modules, "numpy" in sys.modules)
""")
    assert stdout == "[]\nTrue True\n"


def test_bare_import_registers_every_tracer_module():
    # all but cli, the entry point, which the benchmark worker imports itself
    targets = sorted({mod for mod, _ in tracer_targets()} - {"cli"})
    stdout = run_python(f"""
import sys
import clusterport
targets = {targets!r}
missing = [mod for mod in targets if f"clusterport.{{mod}}" not in sys.modules]
assert not missing, missing
assert "numpy" not in sys.modules
import test_public_surface
test_public_surface.test_names_the_benchmark_rebinds_resolve()
print("numpy" in sys.modules)
""")
    assert stdout == "True\n"  # resolving the dense names loads numpy


def test_threads_share_the_first_load():
    # each thread's first run loads floatpath and numpy; none may see the
    # module half run
    stdout = run_python("""
import threading
from clusterport import RunConfig, run

passed = []
configs = [RunConfig(scheme=2, mode="enumerate", random_inputs=2), RunConfig(scheme=1, mode="sample")]
threads = [threading.Thread(target=lambda cfg=cfg: passed.append(run(cfg).passed)) for cfg in configs * 3]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(sum(passed), any(t.is_alive() for t in threads))
""")
    assert stdout == "6 False\n"
