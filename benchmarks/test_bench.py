"""Tests of the benchmark itself: the report checker, the tracer and the
output contract.  Run with ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import clusterport  # noqa: E402
import clusterport.cli  # noqa: E402
import clusterport.harness  # noqa: E402

import checker  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(tmp_path: Path, argv: list[str]) -> bytes:
    out = tmp_path / "report"
    assert clusterport.cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _replace(old: str, new: str, count: int = 1):
    def doctor(data: bytes) -> bytes:
        text = data.decode()
        assert old in text, old
        return text.replace(old, new, count).encode()
    return doctor


def _json_edit(edit):
    def doctor(data: bytes) -> bytes:
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()
    return doctor


def _drop_line(k: int):
    def doctor(data: bytes) -> bytes:
        lines = data.decode().splitlines(keepends=True)
        return "".join(lines[:k] + lines[k + 1:]).encode()
    return doctor


def _branch(key, value, i=0):
    return _json_edit(lambda d: d["branches"][i].__setitem__(key, value))


def _cell(key, value, i=0):
    return _json_edit(lambda d: d["verdicts"][i].__setitem__(key, value))


def _negate_state(doc):
    b = doc["branches"][3]
    b["state"] = b["state"].replace(" + ", " + -", 1)


def _pile_counts(doc):
    # all trials on one outcome pair: counts still sum, uniformity does not hold
    first, *rest = doc["branches"]
    first["count"], first["frequency"] = doc["config"]["trials"], 1.0
    doc["branches"] = [first]


def _bump_count(doc):
    b = doc["branches"][0]
    b["count"] += 1
    b["frequency"] = b["count"] / doc["config"]["trials"]


ENUM = ["enumerate", "--scheme", "2", "--random-inputs", "3", "--seed", "5"]
ENUM1 = ["enumerate", "--scheme", "1", "--random-inputs", "3", "--seed", "5"]
SAMPLE = ["sample", "--scheme", "2", "--trials", "800", "--seed", "9", "--format", "json",
          "--coeffs=0.5,0.5j,-0.5,0.5"]

DOCTORED = {
    "enumerate-json-probability": (ENUM + ["--format", "json"], _branch("probability", 0.07)),
    "enumerate-json-fidelity": (ENUM + ["--format", "json"], _branch("fidelity", 0.99)),
    "enumerate-json-state": (ENUM + ["--format", "json"], _json_edit(_negate_state)),
    "enumerate-json-correction": (ENUM + ["--format", "json"], _branch("correction", "CZ+XX")),
    "enumerate-json-cz-dropped": (ENUM + ["--format", "json"], _branch("correction", "II")),
    "enumerate-csv-missing-row": (ENUM1 + ["--format", "csv"], _drop_line(5)),
    "enumerate-csv-correction": (ENUM1 + ["--format", "csv"], _replace(",IZ\n", ",XX\n")),
    "enumerate-text-probability": (ENUM1 + ["--format", "text"], _replace("0.0625 ", "0.0626 ")),
    "enumerate-text-verdict": (ENUM1 + ["--format", "text"], _replace("result: PASS", "result: FAIL")),
    "sample-counts-sum": (SAMPLE, _json_edit(_bump_count)),
    "sample-not-uniform": (SAMPLE, _json_edit(_pile_counts)),
    "sample-state": (SAMPLE, _json_edit(_negate_state)),
    "sample-other-input": (SAMPLE, _replace('"0+0.5j"', '"0-0.5j"', 2)),
    "derive-listed-not-derived": (["derive", "--scheme", "2", "--format", "json"], _cell("listed", ["CZ+XX"])),
    "derive-derived-incomplete": (["derive", "--scheme", "1", "--format", "json"], _cell("derived", ["IZ"])),
    "derive-text-listed": (["derive", "--scheme", "2", "--format", "text"],
                           _replace("listed=CZ+II", "listed=CZ+II|CZ+ZZ")),
    "verify-json-mismatch": (["verify", "--scheme", "2", "--format", "json"], _cell("verdict", "mismatch")),
    "verify-csv-mismatch": (["verify", "--scheme", "1", "--format", "csv"],
                            _replace("exact-up-to-global-phase", "mismatch")),
    "verify-text-mismatch": (["verify", "--scheme", "1", "--format", "text"],
                             _replace("exact-up-to-global-phase", "mismatch")),
    "truncated": (ENUM + ["--format", "json"], lambda data: data[: len(data) // 2]),
}


@pytest.mark.parametrize("case", sorted(DOCTORED))
def test_checker_rejects_doctored_report(tmp_path, case):
    argv, doctor = DOCTORED[case]
    data = _report(tmp_path, argv)
    assert checker.check_report(argv, data) == []
    assert checker.check_report(argv, doctor(data)) != []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checker_accepts_every_workload_kind(tmp_path, name):
    for index in range(workloads.BATCH[name]):
        inv = workloads.invocation(name, 3, index)
        argv = list(inv.argv)
        if name == "sweep":  # same kinds, fewer inputs
            argv[argv.index("--random-inputs") + 1] = "4"
        assert checker.check_report(argv, _report(tmp_path, argv)) == [], inv.kind


def test_reference_maps_give_every_branch_probability_one_sixteenth():
    for k in checker.branch_maps().values():
        assert abs(k.conj().T @ k - 0.0625 * checker.np.eye(4)).max() < 1e-15


def test_failed_exit_counts_as_failed(tmp_path):
    calls = [{"index": 0, "traced": False, "file": "missing", "code": 1, "wall_s": 0.1,
              "cpu_s": 0.1, "error": None}]
    rows = run.check_calls("tables", 0, calls, tmp_path)
    assert rows[0]["problems"] == ["exit code 1"]


def test_speed_scaling_follows_the_kernel_around_each_time():
    n = speed.NOMINAL_S
    assert speed.scale([1.0, 1.0], [n, n, 3 * n]) == [1.0, 0.5]
    with pytest.raises(ValueError):
        speed.scale([1.0], [n])


def test_kernel_runs_with_the_collector_off(monkeypatch):
    seen = []
    real = speed._kernel
    monkeypatch.setattr(speed, "_kernel", lambda rounds: (seen.append(gc.isenabled()), real(rounds)))
    speed.kernel_seconds(0.02)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_invocations_follow_the_seed():
    for name in workloads.WORKLOADS:
        a = [workloads.invocation(name, 11, i).argv for i in range(20)]
        assert a == [workloads.invocation(name, 11, i).argv for i in range(20)]
        assert a != [workloads.invocation(name, 12, i).argv for i in range(20)]


# -- tracer ----------------------------------------------------------------


def _is_wrapper(obj) -> bool:
    return getattr(obj, "__qualname__", "").startswith("Tracer._wrap.")


def _bound_wrappers() -> int:
    """Tracing wrappers reachable from any clusterport namespace."""
    n = sum(1 for ns in Tracer._namespaces() for v in ns.values() if _is_wrapper(v))
    return n + _is_wrapper(clusterport.StateVector.__init__)


def test_install_rebinds_every_importing_namespace_and_restores():
    h = clusterport.harness
    originals = {
        "gates": clusterport.gates.apply_single,
        "protocol": clusterport.protocol.apply_single,
        "package": clusterport.apply_single,
        "runner": h._RUNNERS["sample"],
        "init": clusterport.StateVector.__init__,
    }
    tracer = Tracer(TARGETS + (("harness", "run_montecarlo"),))
    tracer.install()
    try:
        assert clusterport.gates.apply_single is not originals["gates"]
        assert clusterport.protocol.apply_single is clusterport.gates.apply_single
        assert clusterport.apply_single is clusterport.gates.apply_single
        assert h._RUNNERS["sample"] is not originals["runner"]
        assert clusterport.StateVector.__init__ is not originals["init"]
        assert len(tracer.installed_sites()) > len(TARGETS)
    finally:
        tracer.uninstall()
    assert clusterport.gates.apply_single is originals["gates"]
    assert clusterport.protocol.apply_single is originals["protocol"]
    assert clusterport.apply_single is originals["package"]
    assert h._RUNNERS["sample"] is originals["runner"]
    assert clusterport.StateVector.__init__ is originals["init"]
    assert tracer.installed_sites() == [] and _bound_wrappers() == 0


def _job(tmp_path: Path, trace: bool) -> dict:
    """One batch of ``tables``, the shortest workload."""
    return {"workload": "tables", "seed": 4, "seconds": 0.01, "trace": trace, "out_dir": str(tmp_path)}


def _spy_on_calls(monkeypatch) -> list:
    seen = []
    real = worker.call

    def spy(argv, out_path):
        seen.append((out_path.name, _bound_wrappers()))
        return real(argv, out_path)

    monkeypatch.setattr(worker, "call", spy)
    return seen


def test_untraced_calls_run_with_no_wrapper_bound(tmp_path, monkeypatch):
    seen = _spy_on_calls(monkeypatch)
    worker.run_untraced(_job(tmp_path, False), tmp_path, [])
    worker.run_traced(_job(tmp_path, True), tmp_path, Tracer())
    assert seen and all(n == 0 for name, n in seen if ".traced." not in name)
    assert all(n > 0 for name, n in seen if ".traced." in name)


def test_traced_call_counts_repeat_exactly(tmp_path):
    summaries = []
    for k in range(2):
        tracer = Tracer()
        out = tmp_path / str(k)
        out.mkdir()
        calls = worker.run_traced(_job(out, True), out, tracer)
        assert all(c["code"] == 0 for c in calls)
        summaries.append(tracer.summary())
    counts = [{name: v["calls"] for name, v in s.items()} for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == workloads.BATCH["tables"]  # plain calls are not traced
    assert counts[0]["gates.apply_single"] > 0


def test_traced_run_starts_no_batch_past_its_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "trace_batches", lambda name, seconds: 3)
    monkeypatch.setattr(worker, "TRACE_BUDGET", 0.0)
    calls = worker.run_traced(_job(tmp_path, True), tmp_path, Tracer())
    assert len(calls) == 2 * workloads.BATCH["tables"]


def test_untraced_call_refuses_a_bound_wrapper(tmp_path):
    stray = Tracer()
    stray.install()
    try:
        with pytest.raises(RuntimeError, match="still bound"):
            worker.run_traced(_job(tmp_path, True), tmp_path, stray)
    finally:
        stray.uninstall()


# -- output contract -------------------------------------------------------


def _names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_metric_names_match_benchmark_json():
    rows = [{"traced": t, "branches": 16, "wall_s": 0.1, "problems": []} for t in (False, True)]
    layers = {name: {"calls": 1, "self_s": 0.1, "extra": 0} for name in Tracer().names}
    assert set(run.layer_metrics(layers, rows)) == _names("per_layer")
    assert set(run.e2e_metrics([0.1], [0.1, 0.1], rows, 1024)) == _names("end_to_end")
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_a_checked_result():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tables", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.BATCH["tables"]
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert len(record["setup_s_samples"]) == run.SETUP_STARTS
    assert len(record["kernel_s"]) == result["attempted"] + 1


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tables", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
