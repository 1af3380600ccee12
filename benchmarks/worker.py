"""Benchmark child process: one fresh interpreter per benchmark run.

    python3 benchmarks/worker.py [--probe]

It imports ``clusterport.cli`` before anything else and prints the
monotonic clock right after.  The parent read the same system-wide clock
just before starting this process, so the difference is the set-up time.
With ``--probe`` it stops there.  Otherwise it reads a job as JSON on
stdin, makes the job's ``cli.main`` calls in this process, each writing
its report with ``--out``, and writes what it measured as JSON to the
job's result path.
"""

import time

import clusterport.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402  (everything below is outside the timed set-up)
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


TRACE_BUDGET = 3.0


def call(argv, out_path: Path) -> dict:
    """One ``cli.main`` call, looked up at call time so a wrapper applies."""
    error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        code = clusterport.cli.main([*argv, "--out", str(out_path)])
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed operation; the run goes on
        code = None
        error = traceback.format_exc(limit=-3)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"file": out_path.name, "code": code, "wall_s": wall, "cpu_s": cpu, "error": error}


def run_untraced(job: dict, out_dir: Path, kernels: list[float]) -> list[dict]:
    """Whole batches until ``seconds`` have passed, with the speed kernel
    timed before each call and after the last (appended to ``kernels``)."""
    name, seed, batch = job["workload"], job["seed"], workloads.BATCH[job["workload"]]
    calls = []
    deadline = time.perf_counter() + job["seconds"]
    index = 0
    kernels.append(speed.kernel_seconds())
    while True:
        for _ in range(batch):
            inv = workloads.invocation(name, seed, index)
            rec = call(inv.argv, out_dir / f"{index}.{inv.fmt}")
            calls.append({"index": index, "traced": False, **rec})
            kernels.append(speed.kernel_seconds(speed.DUTY * rec["wall_s"]))
            index += 1
        if time.perf_counter() >= deadline:
            return calls


def run_traced(job: dict, out_dir: Path, tracer: Tracer) -> list[dict]:
    """A number of whole batches fixed by the arguments, each invocation made
    once plain and once traced, alternating which goes first.  The plain call
    must run with no wrapper bound anywhere.  A program so slow that
    ``TRACE_BUDGET`` times ``seconds`` pass first gets no further batch, so
    the run still ends with a result."""
    name, seed, batch = job["workload"], job["seed"], workloads.BATCH[job["workload"]]
    count = workloads.trace_batches(name, job["seconds"]) * batch
    deadline = time.perf_counter() + TRACE_BUDGET * job["seconds"]
    calls = []
    for index in range(count):
        if index % batch == 0 and index and time.perf_counter() >= deadline:
            break
        inv = workloads.invocation(name, seed, index)
        for traced in (False, True) if index % 2 == 0 else (True, False):
            out = out_dir / f"{index}.{'traced' if traced else 'plain'}.{inv.fmt}"
            if traced:
                tracer.install()
                try:
                    tracer.begin_invocation()
                    rec = call(inv.argv, out)
                finally:
                    tracer.uninstall()
            else:
                if tracer.installed_sites():
                    raise RuntimeError("a tracing wrapper is still bound during an untraced call")
                rec = call(inv.argv, out)
            calls.append({"index": index, "traced": traced, **rec})
    return calls


def run_job(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    loaded = Path(clusterport.cli.__file__).resolve()
    if src not in loaded.parents:
        raise RuntimeError(f"clusterport was imported from {loaded}, not from {src}")
    out_dir = Path(job["out_dir"])
    tracer = Tracer() if job["trace"] else None
    kernels: list[float] = []
    calls = run_traced(job, out_dir, tracer) if tracer else run_untraced(job, out_dir, kernels)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
        "kernels": kernels,
        "trace_batches": {
            "planned": workloads.trace_batches(job["workload"], job["seconds"]),
            "made": len(calls) // (2 * workloads.BATCH[job["workload"]]),
        } if tracer else None,
        "spans": tracer.spans_per_invocation() if tracer else [],
        "layers": tracer.summary() if tracer else None,
    }


if __name__ == "__main__":
    print(repr(IMPORTED_AT), flush=True)
    if sys.argv[1:] != ["--probe"]:
        job = json.load(sys.stdin)
        result = run_job(job)
        Path(job["result"]).write_text(json.dumps(result))
