"""Run configurations, report building, and report serialization.

A report is a deterministic function of its RunConfig: every random draw
flows from the 64-bit seed through a fixed substream key, so rerunning a
config reproduces the report byte for byte in any format.

Substream keys: random input k uses default_rng([seed, 0, k]); all Monte
Carlo trials share default_rng([seed, 1]), trial t reading its doubles 2t
and 2t+1: the first picks the outcome on (1, 3) from its marginal, the
second the outcome on (2, 6) from the row conditioned on the first.  Trials
are drawn SAMPLE_BLOCK at a time; counts depend on neither the block size
nor, for the first N trials, the trial count.  Derivation and verification
are exact and draw nothing, so the seed only appears in their config.

Every mode reads the 16 exact branch maps of ``protocol.branch_maps`` and
simulates no six-qubit state; ``derive`` and ``verify`` certify repairs by
integer equality (``protocol.certify``), with no tolerance.  Display forms
come from one ``format_states`` call per run, and every report format
writes its branch rows from a fixed template that formats each distinct
outcome pair, correction, float and state once per report.

    cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", seed=7)
    report = run(cfg)
    sys.stdout.buffer.write(emit_report(report, "json"))
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .measurement import BELL_OUTCOMES, BellOutcome, draw_index
from .protocol import (
    CorrectionOp,
    InputState,
    Scheme,
    branch_maps,
    derive_corrections,
    map_inputs,
    random_input,
    table_lookup,
    verify_tables,
)
from .statevec import format_states

MODES = ("enumerate", "sample", "derive", "verify")
FORMATS = ("json", "csv", "text")

TOTAL_PROB_TOL = 1e-9
CSV_COLUMNS = ("outcome13", "outcome26", "probability", "fidelity", "correction")

_ALL_PAIRS = tuple((a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES)

SAMPLE_BLOCK = 2048  # trials drawn at once; counts do not depend on it
CHI2_ALPHA = 1e-9  # false-alarm rate of the chi-square test that gates sampling


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; reports depend on nothing else."""

    scheme: Scheme
    mode: str
    input_coeffs: tuple[complex, ...] | None = None
    random_inputs: int = 100
    trials: int = 16000
    seed: int = 0
    fidelity_tol: float = 1e-10
    output_format: str = "text"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.output_format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.output_format!r}")
        if self.input_coeffs is not None:
            coeffs = tuple(complex(c) for c in self.input_coeffs)
            InputState(self.scheme, coeffs)  # validates count and normalization
            object.__setattr__(self, "input_coeffs", coeffs)
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.random_inputs, int) or self.random_inputs < 1:
            raise ValueError(f"random_inputs must be a positive integer, got {self.random_inputs!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 <= self.fidelity_tol < 1.0:
            raise ValueError(f"fidelity tolerance must lie in [0, 1), got {self.fidelity_tol!r}")


@dataclass(frozen=True)
class BranchRecord:
    """One branch of one input: outcomes, probability, post-correction
    fidelity, the correction applied, and a display form of the output.
    Sampling runs add how often the branch was drawn."""

    input_index: int
    outcome13: BellOutcome
    outcome26: BellOutcome
    probability: float
    fidelity: float
    correction: CorrectionOp
    state: str
    count: int | None = None
    frequency: float | None = None


@dataclass(frozen=True)
class InputSummary:
    coeffs: tuple[complex, ...]
    total_probability: float
    min_fidelity: float


@dataclass(frozen=True)
class Report:
    """Outcome of one run.  ``branches`` holds 16 records per enumerated
    input, or one record per observed outcome pair when sampling."""

    config: RunConfig
    branches: tuple[BranchRecord, ...]
    inputs: tuple[InputSummary, ...]
    aggregates: dict
    verdicts: tuple[dict, ...] | None = None
    schema: int = 4

    @property
    def passed(self) -> bool:
        return bool(self.aggregates.get("pass", False))


def _drawn_inputs(cfg: RunConfig, count: int) -> list[InputState]:
    return [
        random_input(cfg.scheme, np.random.default_rng([cfg.seed, 0, k]))
        for k in range(count)
    ]


def _configured_inputs(cfg: RunConfig) -> list[InputState]:
    if cfg.input_coeffs is not None:
        return [InputState(cfg.scheme, cfg.input_coeffs)]
    if cfg.mode == "sample":
        return _drawn_inputs(cfg, 1)
    return _drawn_inputs(cfg, cfg.random_inputs)


def _repaired_branches(scheme: Scheme, inputs: list[InputState]):
    """Every branch of every input, repaired by the table's first listed
    correction: the corrections in ``_ALL_PAIRS`` order, then probabilities,
    fidelities and display forms of the outputs, indexed [input][branch]."""
    ops = [table_lookup(scheme, o13, o26)[0] for o13, o26 in _ALL_PAIRS]
    repaired = np.stack([op.matrix() for op in ops]) @ branch_maps().reshape(16, 4, 4)
    out, probs, fids = map_inputs(repaired, [s.amps for s in inputs])
    states = format_states(out / np.sqrt(probs)[..., None])
    return ops, probs.tolist(), fids.tolist(), states


def run_enumeration(cfg: RunConfig) -> Report:
    """Evaluate all 16 branches for every input."""
    if cfg.mode != "enumerate":
        raise ValueError(f"run_enumeration needs mode 'enumerate', got {cfg.mode!r}")
    inputs = _configured_inputs(cfg)
    ops, probs, fids, states = _repaired_branches(cfg.scheme, inputs)
    branches = [
        BranchRecord(k, o13, o26, probs[k][b], fids[k][b], ops[b], states[k][b])
        for k in range(len(inputs))
        for b, (o13, o26) in enumerate(_ALL_PAIRS)
    ]
    summaries = [InputSummary(s.coeffs, sum(p), min(f)) for s, p, f in zip(inputs, probs, fids)]
    min_fid = min(s.min_fidelity for s in summaries)
    worst_total = max((s.total_probability for s in summaries), key=lambda t: abs(t - 1.0))
    aggregates = {
        "num_inputs": len(inputs),
        "min_fidelity": min_fid,
        "total_probability_worst": worst_total,
        "branch_probability_min": min(map(min, probs)),
        "branch_probability_max": max(map(max, probs)),
        "pass": (min_fid >= 1.0 - cfg.fidelity_tol)
        and (abs(worst_total - 1.0) <= TOTAL_PROB_TOL),
    }
    return Report(cfg, tuple(branches), tuple(summaries), aggregates)


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square distributed with an odd number ``dof`` of
    degrees of freedom and x >= 0: erfc plus the finite series of the
    odd-dof tail (Abramowitz and Stegun 26.4.4)."""
    total = math.erfc(math.sqrt(x / 2.0))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    for m in range(1, dof - 1, 2):
        total += term
        term *= x / (m + 2)
    return min(total, 1.0)  # rounding can carry the sum a few ulps past 1


def run_montecarlo(cfg: RunConfig) -> Report:
    """Sample the two measurement outcomes ``trials`` times."""
    if cfg.mode != "sample":
        raise ValueError(f"run_montecarlo needs mode 'sample', got {cfg.mode!r}")
    state = _configured_inputs(cfg)[0]
    ops, probs, fids, states = _repaired_branches(cfg.scheme, [state])
    joint = np.reshape(probs[0], (4, 4))
    cum_marginal = joint.sum(axis=1).cumsum()
    cum_rows = joint.cumsum(axis=1)
    rng = np.random.default_rng([cfg.seed, 1])
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, cfg.trials, SAMPLE_BLOCK):
        u = rng.random((min(SAMPLE_BLOCK, cfg.trials - start), 2))
        i = draw_index(cum_marginal, u[:, 0])
        j = draw_index(cum_rows.take(i, axis=0), u[:, 1])
        counts += np.bincount(4 * i + j, minlength=16)
    counts = counts.tolist()
    branches = tuple(
        BranchRecord(
            0, o13, o26, probs[0][b], fids[0][b], ops[b], states[0][b],
            count=counts[b], frequency=counts[b] / cfg.trials,
        )
        for b, (o13, o26) in enumerate(_ALL_PAIRS)
        if counts[b] > 0
    )
    min_fid = min(r.fidelity for r in branches)
    p = 1.0 / 16.0
    sigma = math.sqrt(p * (1.0 - p) / cfg.trials)
    max_dev = max(abs(n / cfg.trials - p) for n in counts)
    expected = cfg.trials * p
    chi2 = sum((n - expected) ** 2 / expected for n in counts)
    chi2_p = chi2_sf(chi2, 15)
    summary = InputSummary(state.coeffs, sum(r.probability for r in branches), min_fid)
    aggregates = {
        "trials": cfg.trials,
        "min_fidelity": min_fid,
        "distinct_outcomes": len(branches),
        "expected_frequency": p,
        "frequency_sigma": sigma,
        "three_sigma": 3.0 * sigma,
        "max_frequency_deviation": max_dev,
        "within_three_sigma": max_dev <= 3.0 * sigma,
        "chi2": chi2,
        "chi2_dof": 15,
        "chi2_p_value": chi2_p,
        "pass": min_fid >= 1.0 - cfg.fidelity_tol and chi2_p >= CHI2_ALPHA,
    }
    return Report(cfg, branches, (summary,), aggregates)


def run_derivation(cfg: RunConfig) -> Report:
    """Derive the correction table for the configured scheme.  A cell with
    no certified repair is reported with an empty ``derived`` list and
    fails the run."""
    if cfg.mode != "derive":
        raise ValueError(f"run_derivation needs mode 'derive', got {cfg.mode!r}")
    rows = [
        {
            "outcome13": o13.value,
            "outcome26": o26.value,
            "derived": [str(op) for op in derive_corrections(cfg.scheme, o13, o26)],
            "listed": [str(op) for op in table_lookup(cfg.scheme, o13, o26)],
        }
        for o13, o26 in _ALL_PAIRS
    ]
    sizes = [len(row["derived"]) for row in rows]
    aggregates = {
        "cells": len(rows),
        "unique_per_cell": all(n == 1 for n in sizes),
        "max_set_size": max(sizes),
        "pass": all(n >= 1 for n in sizes),
    }
    return Report(cfg, (), (), aggregates, verdicts=tuple(rows))


def run_verification(cfg: RunConfig) -> Report:
    """Compare the built-in correction table against the derived one."""
    if cfg.mode != "verify":
        raise ValueError(f"run_verification needs mode 'verify', got {cfg.mode!r}")
    rows = [
        {
            "outcome13": e.outcome13.value,
            "outcome26": e.outcome26.value,
            "verdict": e.verdict,
            "derived": [str(op) for op in e.derived],
            "listed": [str(op) for op in e.listed],
            "subspace_only": [str(op) for op in e.subspace_only],
        }
        for e in verify_tables(cfg.scheme).entries
    ]
    tally = [row["verdict"] for row in rows]
    aggregates = {
        "cells": len(rows),
        "exact": tally.count("exact-up-to-global-phase"),
        "subspace_only": tally.count("subspace-only"),
        "mismatch": tally.count("mismatch"),
        "pass": "mismatch" not in tally,
    }
    return Report(cfg, (), (), aggregates, verdicts=tuple(rows))


_RUNNERS = {
    "enumerate": run_enumeration,
    "sample": run_montecarlo,
    "derive": run_derivation,
    "verify": run_verification,
}


def run(cfg: RunConfig) -> Report:
    return _RUNNERS[cfg.mode](cfg)


def format_complex(c: complex) -> str:
    """Round-trip complex format, same syntax the CLI accepts."""
    return f"{c.real:.17g}{c.imag:+.17g}j"


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    s = format(float(x), ".17g")
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def _json_fragment(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_json_fragment(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_fragment(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "scheme": int(cfg.scheme),
        "mode": cfg.mode,
        "coeffs": None
        if cfg.input_coeffs is None
        else [format_complex(c) for c in cfg.input_coeffs],
        "random_inputs": cfg.random_inputs,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "fidelity_tol": cfg.fidelity_tol,
        "output_format": cfg.output_format,
    }


class _Fragments(dict):
    """Formatted fragments by value, each value formatted once per report.
    A zero is formatted every time: -0.0 == 0.0 as a key, but it prints
    with its sign."""

    def __init__(self, fmt):
        super().__init__()
        self._fmt = fmt

    def __missing__(self, value):
        text = self._fmt(value)
        if value != 0:
            self[value] = text
        return text


def _json_branches(branches) -> str:
    """The ``branches`` array, every row from one fixed template: outcome and
    correction fragments are json.dumps'd constants, and each distinct
    float and state is formatted once."""
    heads = _Fragments(
        lambda pair: f',"outcome13":{json.dumps(pair[0].value)}'
        f',"outcome26":{json.dumps(pair[1].value)},"probability":'
    )
    corrections = _Fragments(lambda op: f',"correction":{json.dumps(str(op))},"state":')
    floats = _Fragments(_format_float)
    states = _Fragments(json.dumps)
    rows = []
    for r in branches:
        row = (
            f'{{"input":{r.input_index:d}{heads[r.outcome13, r.outcome26]}{floats[r.probability]}'
            f',"fidelity":{floats[r.fidelity]}{corrections[r.correction]}{states[r.state]}'
        )
        if r.count is not None:
            row += f',"count":{r.count:d},"frequency":{floats[r.frequency]}'
        rows.append(row + "}")
    return "[" + ",".join(rows) + "]"


def _emit_json(report: Report) -> str:
    aggregates = dict(report.aggregates)
    aggregates["inputs"] = [
        {
            "coeffs": [format_complex(c) for c in s.coeffs],
            "total_probability": s.total_probability,
            "min_fidelity": s.min_fidelity,
        }
        for s in report.inputs
    ]
    verdicts = None if report.verdicts is None else list(report.verdicts)
    return (
        f'{{"schema":{_json_fragment(report.schema)}'
        f',"config":{_json_fragment(_config_dict(report.config))}'
        f',"branches":{_json_branches(report.branches)}'
        f',"aggregates":{_json_fragment(aggregates)}'
        f',"verdicts":{_json_fragment(verdicts)}}}\n'
    )


@functools.cache
def _csv_cells(*cells: str) -> str:
    """``cells`` as csv.writer writes them in a row, without the line end
    (only outcomes and corrections, a bounded set of strings)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def _emit_csv(report: Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if report.verdicts is not None:
        header = ["outcome13", "outcome26", "derived", "listed"]
        has_verdict = any("verdict" in row for row in report.verdicts)
        if has_verdict:
            header.insert(2, "verdict")
        w.writerow(header)
        for row in report.verdicts:
            cells = [row["outcome13"], row["outcome26"]]
            if has_verdict:
                cells.append(row["verdict"])
            cells.append("|".join(row["derived"]))
            cells.append("|".join(row["listed"]))
            w.writerow(cells)
    else:
        w.writerow(CSV_COLUMNS)
        heads = _Fragments(lambda pair: _csv_cells(pair[0].value, pair[1].value))
        corrections = _Fragments(lambda op: _csv_cells(str(op)))
        floats = _Fragments(lambda x: format(x, ".17g"))
        buf.writelines(
            f"{heads[r.outcome13, r.outcome26]},{floats[r.probability]},"
            f"{floats[r.fidelity]},{corrections[r.correction]}\n"
            for r in report.branches
        )
    return buf.getvalue()


def _emit_text(report: Report) -> str:
    cfg = report.config
    lines = [
        f"scheme={int(cfg.scheme)} mode={cfg.mode} seed={cfg.seed} "
        f"tol={cfg.fidelity_tol:g}"
    ]
    for k, s in enumerate(report.inputs):
        coeffs = ", ".join(format_complex(c) for c in s.coeffs)
        lines.append(f"input {k}: {coeffs}")
    if report.branches:
        head = f"{'outcome13':<10}{'outcome26':<10}{'probability':<22}{'fidelity':<22}correction"
        if any(b.count is not None for b in report.branches):
            head += "  count  frequency"
        lines.append(head)
        heads = _Fragments(lambda pair: f"{pair[0].value:<10}{pair[1].value:<10}")
        corrections = _Fragments(str)
        floats = _Fragments(lambda x: f"{x:<22.12g}")
        for b in report.branches:
            row = (
                f"{heads[b.outcome13, b.outcome26]}{floats[b.probability]}"
                f"{floats[b.fidelity]}{corrections[b.correction]}"
            )
            if b.count is not None:
                row += f"  {b.count}  {b.frequency:.6g}"
            lines.append(row)
    if report.verdicts is not None:
        for row in report.verdicts:
            parts = [f"({row['outcome13']}, {row['outcome26']})"]
            if "verdict" in row:
                parts.append(row["verdict"])
            parts.append("derived=" + "|".join(row["derived"]))
            parts.append("listed=" + "|".join(row["listed"]))
            if row.get("subspace_only"):
                parts.append("subspace_only=" + "|".join(row["subspace_only"]))
            lines.append("  ".join(parts))
    skip = {"pass", "inputs"}
    summary = " ".join(
        f"{key}={value:.12g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in report.aggregates.items()
        if key not in skip
    )
    lines.append(summary)
    lines.append("result: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def emit_report(report: Report, output_format: str | None = None) -> bytes:
    """Serialize a report; same report and format, same bytes."""
    fmt = output_format if output_format is not None else report.config.output_format
    if fmt == "json":
        text = _emit_json(report)
    elif fmt == "csv":
        text = _emit_csv(report)
    elif fmt == "text":
        text = _emit_text(report)
    else:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    return text.encode("utf-8")
