"""Benchmark of the clusterport CLI, end to end or traced per layer.

    python3 benchmarks/run.py --workload {sweep,shots,tables} --seed N --seconds S --trace {0,1}

It benchmarks the package source in ``src/`` beside this directory.  Every
run starts fresh interpreters with BLAS/OpenMP threads pinned to one:

1. ``SETUP_STARTS`` probes that only import ``clusterport.cli``, timed from
   process start; their median is ``setup_s``.
2. One worker that calls ``cli.main(argv)`` for the workload's invocations
   (see ``workloads.py``), each writing its report with ``--out``.  With
   ``--trace 0`` it runs whole batches for ``--seconds``.  With ``--trace 1``
   it makes a fixed number of invocations, each once plain and once under
   the outside-in tracer (``tracer.py``), for the per-layer metrics.
3. ``checker.py`` checks every report independently of the package; an
   invocation fails on a nonzero exit or a rejected report.

End-to-end times are scaled to a nominal machine speed with the reference
kernel in ``speed.py``, timed in the same process around every timed
start and call; the record keeps the unscaled values.

Standard output ends with two JSON lines: a record (environment, set-up
samples, every invocation with its report digest) and the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checker
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 15
# The worker's part of a run scales with --seconds (a traced run stops
# starting batches after worker.TRACE_BUDGET times it), so the limit on
# set-up and worker together does too; 160 s at --seconds 20.
LIMIT_MARGIN_S = 40.0
LIMIT_PER_SECOND = 6.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def start_child(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (start to imported)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    line = proc.stdout.readline()
    try:
        return proc, float(line) - t0
    except ValueError:
        finish(proc, b"", deadline)
        raise BenchError(f"worker exited with code {proc.returncode} before importing clusterport.cli") from None


def finish(proc: subprocess.Popen, stdin: bytes, deadline: float) -> None:
    try:
        proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_calls(name: str, seed: int, calls: list[dict], out_dir: Path) -> list[dict]:
    """Check every report; in a traced run the traced report must equal the plain one."""
    rows = []
    for c in calls:
        inv = workloads.invocation(name, seed, c["index"])
        path = out_dir / c["file"]
        data = path.read_bytes() if path.is_file() else b""
        if c["code"] == 0:
            problems = checker.check_report(inv.argv, data)
        else:
            problems = [f"exit code {c['code']}"] + ([c["error"]] if c["error"] else [])
        rows.append({
            "index": c["index"], "kind": inv.kind, "traced": c["traced"], "branches": inv.branches,
            "code": c["code"], "wall_s": c["wall_s"], "cpu_s": c["cpu_s"],
            "digest": hashlib.sha256(data).hexdigest(), "problems": problems[:5],
        })
    plain = {r["index"]: r["digest"] for r in rows if not r["traced"]}
    for r in rows:
        if r["traced"] and r["digest"] != plain.get(r["index"]):
            r["problems"].append("traced report differs from the plain one")
    return rows


def e2e_metrics(setup: list[float], walls: list[float], rows: list[dict], maxrss_kb: int) -> dict:
    """``setup`` and ``walls`` are times, raw or scaled to the nominal machine."""
    settled = sum(r["branches"] for r in rows if not r["problems"])
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "branches_per_s": {"value": settled / sum(walls), "unit": "1/s"},
        "invocation_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": maxrss_kb / 1024.0, "unit": "MB"},
    }


def layer_metrics(layers: dict, rows: list[dict]) -> dict:
    out = {}
    for name, v in layers.items():
        out[f"{name}.calls"] = {"value": v["calls"], "unit": "count"}
        out[f"{name}.self_s"] = {"value": v["self_s"], "unit": "s"}
    traced = [r for r in rows if r["traced"]]
    branches = sum(r["branches"] for r in traced)
    gate_calls = layers["gates.apply_single"]["calls"] + layers["gates.apply_cz"]["calls"]
    out["harness.emit_report.bytes"] = {"value": layers["harness.emit_report"]["extra"], "unit": "B"}
    out["gates.bytes_computed"] = {
        "value": layers["gates.apply_single"]["extra"] + layers["gates.apply_cz"]["extra"], "unit": "B"}
    out["gates.calls_per_branch"] = {"value": gate_calls / branches, "unit": "calls/branch"}
    out["protocol.assemble_total.per_branch"] = {
        "value": layers["protocol.assemble_total"]["calls"] / branches, "unit": "calls/branch"}
    out["trace.overhead"] = {
        "value": sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in rows if not r["traced"]),
        "unit": "ratio"}
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (SRC / "clusterport" / "cli.py").is_file():
        raise FileNotFoundError(f"no clusterport source under {SRC}")
    deadline = time.monotonic() + LIMIT_MARGIN_S + LIMIT_PER_SECOND * seconds
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=build))
    try:
        setup, setup_kernels = [], [speed.kernel_seconds()]
        for _ in range(SETUP_STARTS):
            proc, s = start_child(["--probe"], deadline)
            finish(proc, b"", deadline)
            setup.append(s)
            setup_kernels.append(speed.kernel_seconds(speed.DUTY * s))
        job = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "src": str(SRC), "out_dir": str(out_dir), "result": str(out_dir / "worker.json")}
        proc, worker_setup = start_child([], deadline)
        finish(proc, json.dumps(job).encode(), deadline)
        if proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {proc.returncode}")
        result = json.loads((out_dir / "worker.json").read_text())
        rows = check_calls(name, seed, result["calls"], out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if trace:
        metrics, unscaled = layer_metrics(result["layers"], rows), None
    else:
        walls, rss = [r["wall_s"] for r in rows], result["maxrss_kb"]
        metrics = e2e_metrics(speed.scale(setup, setup_kernels), speed.scale(walls, result["kernels"]), rows, rss)
        unscaled = {k: v["value"] for k, v in e2e_metrics(setup, walls, rows, rss).items()}
    first_batch = [r["digest"] for r in rows if not r["traced"]][: workloads.BATCH[name]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {
            "python": result["python"], "numpy": result["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "pinned_threads": result["threads"], "workload_seed": seed,
        },
        "setup_s_samples": setup,
        "setup_kernel_s": setup_kernels,
        "worker_setup_s": worker_setup,
        "kernel_s": result["kernels"],
        "unscaled": unscaled,
        "cpu_per_wall": sum(r["cpu_s"] for r in rows) / sum(r["wall_s"] for r in rows),
        "spans_per_invocation": result["spans"],
        "trace_batches": result["trace_batches"],
        "first_batch_digest": hashlib.sha256("".join(first_batch).encode()).hexdigest(),
        "invocations": rows,
        "metrics": metrics,
    }
    failed = sum(1 for r in rows if r["problems"])
    summary = {"correct": failed == 0, "attempted": len(rows), "failed": failed, "metrics": metrics}
    return record, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        record, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
