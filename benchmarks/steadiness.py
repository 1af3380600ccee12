"""Run the benchmark over many seeds and report how steady it is.

    python3 benchmarks/steadiness.py --out FILE

Two sets; in each, every workload runs once per seed 0-9, seeds in the
outer loop so machine noise spreads over all workloads.  For each
end-to-end metric it reports the ten values' median and quartiles
(``statistics.quantiles`` with n=4) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json; and how far the second
set's median moved from the first's.  Both sets use the same seeds, so
every report both wrote under one index must have the same digest.  Last,
one traced run per workload (seed 0) gives its per-layer metrics and each
function's share of traced self time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(10)
SETS = 2


def bench(workload: str, seed: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    *_, record_line, result_line = proc.stdout.splitlines()
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    return {
        "workload": workload, "seed": seed, "elapsed_s": time.monotonic() - t0,
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "unscaled": record["unscaled"],
        "first_batch_digest": record["first_batch_digest"],
        "digests": {r["index"]: r["digest"] for r in record["invocations"] if not r["traced"]},
        "env": record["env"],
    }


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def summarize(runs: list[dict], key: str = "metrics") -> dict:
    out = {}
    for w in {r["workload"] for r in runs}:
        mine = [r for r in runs if r["workload"] == w]
        out[w] = {}
        for m in SPEC["end_to_end"]:
            s = spread([r[key][m["name"]] for r in mine])
            s.update(bound=m["bound"], within_third_of_bound=s["spread"] < m["bound"] / 3)
            out[w][m["name"]] = s
    return out


def shares(metrics: dict) -> dict:
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    return {k[: -len(".self_s")]: v / total for k, v in
            sorted(metrics.items(), key=lambda kv: -kv[1]) if k.endswith(".self_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sets = []
    for k in range(SETS):
        runs = []
        for seed in SEEDS:
            for w in WORKLOADS:
                runs.append(bench(w, seed, 0))
                print(f"set {k} {w} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        sets.append(runs)
    summary = [summarize(runs) for runs in sets]
    compared = identical = 0
    for a, b in zip(*sets):
        common = a["digests"].keys() & b["digests"].keys()
        compared += len(common)
        identical += sum(a["digests"][i] == b["digests"][i] for i in common)
    traced = {}
    for w in WORKLOADS:
        r = bench(w, SEEDS[0], 1)
        traced[w] = {"failed": r["failed"], "metrics": r["metrics"], "self_share": shares(r["metrics"])}
    report = {
        "run_seconds": SPEC["run_seconds"], "env": sets[0][0]["env"],
        "failed": sum(r["failed"] for runs in sets for r in runs),
        "summary": summary,
        "summary_unscaled": [summarize(runs, "unscaled") for runs in sets],
        "digests": {"reports_compared": compared, "identical": identical},
        "median_shift": {
            w: {m: summary[1][w][m]["median"] / summary[0][w][m]["median"] - 1.0 for m in summary[0][w]}
            for w in summary[0]
        },
        "traced": traced,
    }
    for runs in sets:
        for r in runs:
            del r["digests"], r["env"]
    report["runs"] = sets
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
