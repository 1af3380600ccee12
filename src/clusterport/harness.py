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
integer equality, with no tolerance: one ``protocol.certified_repairs``
call certifies the whole 16-cell table, so ``derive`` makes one and
``verify`` two, and nothing carries over between runs.  Their rows are
built here, from the derived table and, for ``verify``, the other
certificate; the verdict strings are defined nowhere else, and ``verify``
passes only when every cell is exact.  A report keeps the branch
results as the arrays they are computed as, indexed [input][cell] in
``_ALL_PAIRS`` cell order; display forms come from one ``format_states``
call per run.  Every report format writes the rows of
``Report.rows()`` from a fixed template: the outcome and correction text of
each of the 16 cells is built once, and each distinct float and state is
formatted once per report.  The JSON verdict rows are written by one
json.dumps call, and a CSV verdict row has a column per row key but
``subspace_only``.  ``emit_report`` writes a report in its config's
``output_format`` and in no other.

    cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", seed=7, output_format="json")
    report = run(cfg)
    sys.stdout.buffer.write(emit_report(report))
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .measurement import BELL_OUTCOMES, draw_index
from .protocol import (
    CorrectionOp,
    InputState,
    Scheme,
    branch_maps,
    certified_repairs,
    map_inputs,
    random_input,
    table_lookup,
)
from .statevec import format_states

MODES = ("enumerate", "sample", "derive", "verify")
FORMATS = ("json", "csv", "text")

TOTAL_PROB_TOL = 1e-9
# Cap on drawn enumerate inputs: a JSON enumerate peaks at about 14 KB per
# input (16 probabilities, fidelities and states plus the report text), so
# the cap bounds a run near 140 MB instead of growing until it is killed.
MAX_RANDOM_INPUTS = 10_000
CSV_COLUMNS = ("outcome13", "outcome26", "probability", "fidelity", "correction")

_ALL_PAIRS = tuple((a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES)

SAMPLE_BLOCK = 2048  # trials drawn at once; counts do not depend on it
# Threshold on the p-value of the chi-square test that gates sampling: its
# false-alarm rate for many trials.  Counts are discrete, so at few trials
# the exact rate differs: 0 below 5 trials, 16 * 16**-5 ~ 1.5e-5 at 5 (all
# in one cell), and 2e-7 to 6e-6 for 6 to 30 trials.
CHI2_ALPHA = 1e-9


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
        if self.random_inputs > MAX_RANDOM_INPUTS:
            raise ValueError(
                f"random_inputs must be at most {MAX_RANDOM_INPUTS}, got {self.random_inputs}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 <= self.fidelity_tol < 1.0:
            raise ValueError(f"fidelity tolerance must lie in [0, 1), got {self.fidelity_tol!r}")


@dataclass(frozen=True)
class InputSummary:
    coeffs: tuple[complex, ...]
    total_probability: float
    min_fidelity: float


@dataclass(frozen=True)
class Report:
    """Outcome of one run.  ``enumerate`` and ``sample`` reports keep their
    branch results as computed, over 16 cells in ``BELL_OUTCOMES`` order,
    the (1, 3) outcome major: ``corrections`` holds the repair applied in
    each cell, ``probability``, ``fidelity`` and ``state`` are indexed
    [input][cell], and ``count`` holds the 16 cell counts of a ``sample``
    run.  ``derive`` and ``verify`` reports carry ``verdicts`` and no
    branch results."""

    config: RunConfig
    inputs: tuple[InputSummary, ...]
    aggregates: dict
    verdicts: tuple[dict, ...] | None = None
    corrections: tuple[CorrectionOp, ...] = ()
    probability: list[list[float]] = field(default_factory=list)
    fidelity: list[list[float]] = field(default_factory=list)
    state: list[list[str]] = field(default_factory=list)
    count: list[int] | None = None
    schema = 4  # unannotated: a class constant, not a constructor field

    @property
    def passed(self) -> bool:
        return bool(self.aggregates.get("pass", False))

    def rows(self) -> list[tuple[int, int]]:
        """The (input, cell) index of every branch row, input major and in
        cell order; a ``sample`` report lists only the cells it drew."""
        cells = [b for b in range(len(self.corrections)) if self.count is None or self.count[b]]
        return [(k, b) for k in range(len(self.probability)) for b in cells]


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
    fidelities and display forms of the outputs, indexed [input][cell]."""
    ops = tuple(table_lookup(scheme, o13, o26)[0] for o13, o26 in _ALL_PAIRS)
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
    return Report(
        cfg, tuple(summaries), aggregates,
        corrections=ops, probability=probs, fidelity=fids, state=states,
    )


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
    drawn = [b for b in range(16) if counts[b]]
    min_fid = min(fids[0][b] for b in drawn)
    p = 1.0 / 16.0
    sigma = math.sqrt(p * (1.0 - p) / cfg.trials)
    max_dev = max(abs(n / cfg.trials - p) for n in counts)
    expected = cfg.trials * p
    chi2 = sum((n - expected) ** 2 / expected for n in counts)
    chi2_p = chi2_sf(chi2, 15)
    summary = InputSummary(state.coeffs, sum(probs[0][b] for b in drawn), min_fid)
    aggregates = {
        "trials": cfg.trials,
        "min_fidelity": min_fid,
        "distinct_outcomes": len(drawn),
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
    return Report(
        cfg, (summary,), aggregates,
        corrections=ops, probability=probs, fidelity=fids, state=states, count=counts,
    )


def run_derivation(cfg: RunConfig) -> Report:
    """Derive the correction table for the configured scheme.  A cell with
    no certified repair is reported with an empty ``derived`` list and
    fails the run."""
    if cfg.mode != "derive":
        raise ValueError(f"run_derivation needs mode 'derive', got {cfg.mode!r}")
    derived_table = certified_repairs(cfg.scheme is Scheme.ARBITRARY, cfg.scheme)
    rows = [
        {
            "outcome13": o13.value,
            "outcome26": o26.value,
            "derived": [str(op) for op in derived],
            "listed": [str(op) for op in table_lookup(cfg.scheme, o13, o26)],
        }
        for (o13, o26), derived in zip(_ALL_PAIRS, derived_table)
    ]
    sizes = [len(row["derived"]) for row in rows]
    aggregates = {
        "cells": len(rows),
        "unique_per_cell": all(n == 1 for n in sizes),
        "max_set_size": max(sizes),
        "pass": all(n >= 1 for n in sizes),
    }
    return Report(cfg, (), aggregates, verdicts=tuple(rows))


def run_verification(cfg: RunConfig) -> Report:
    """Compare the built-in correction table against the derived one.

    A cell is exact-up-to-global-phase when every listed repair is derived
    (certified on the scheme's own inputs); for scheme 2, subspace-only when
    the listed repairs are certified on the |00>/|11> span alone; mismatch
    otherwise, and always when nothing is derived.  The run passes only when
    every cell is exact: a subspace-only scheme-2 entry breaks the claim for
    arbitrary inputs.  A scheme-1 row's ``subspace_only`` lists the repairs
    that fail on arbitrary inputs even after CZ (scheme-1 inputs never touch
    |01> or |10>)."""
    if cfg.mode != "verify":
        raise ValueError(f"run_verification needs mode 'verify', got {cfg.mode!r}")
    cz = cfg.scheme is Scheme.ARBITRARY
    # the other certificate, after CZ: scheme-2 repairs on the |00>/|11>
    # span alone, scheme-1 repairs on every input
    others = certified_repairs(True, Scheme.SPECIAL if cz else Scheme.ARBITRARY)
    rows = []
    for (o13, o26), derived, other in zip(_ALL_PAIRS, certified_repairs(cz, cfg.scheme), others):
        listed = table_lookup(cfg.scheme, o13, o26)
        other_pairs = {(op.p4, op.p5) for op in other}
        holds = [(op.p4, op.p5) in other_pairs for op in listed]
        if derived and all(op in derived for op in listed):
            verdict = "exact-up-to-global-phase"
        elif derived and cz and all(holds):
            verdict = "subspace-only"
        else:
            verdict = "mismatch"
        rows.append({
            "outcome13": o13.value,
            "outcome26": o26.value,
            "verdict": verdict,
            "derived": [str(op) for op in derived],
            "listed": [str(op) for op in listed],
            "subspace_only": [] if cz else [str(op) for op, ok in zip(listed, holds) if not ok],
        })
    tally = [row["verdict"] for row in rows]
    aggregates = {
        "cells": len(rows),
        "exact": tally.count("exact-up-to-global-phase"),
        "subspace_only": tally.count("subspace-only"),
        "mismatch": tally.count("mismatch"),
        "pass": tally.count("exact-up-to-global-phase") == len(rows),
    }
    return Report(cfg, (), aggregates, verdicts=tuple(rows))


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
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_json_fragment(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(_json_fragment(v) for v in value) + "]"
    return json.dumps(value)


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


def _json_branches(report: Report) -> str:
    """The ``branches`` array, every row from one fixed template: the outcome
    and correction fragments of each cell are json.dumps'd once, and each
    distinct float and state is formatted once."""
    if not report.corrections:
        return "[]"  # a derive or verify report: no branch rows, no template
    heads = [
        f',"outcome13":{json.dumps(o13.value)},"outcome26":{json.dumps(o26.value)},"probability":'
        for o13, o26 in _ALL_PAIRS
    ]
    tails = [f',"correction":{json.dumps(str(op))},"state":' for op in report.corrections]
    floats = _Fragments(_format_float)
    states = _Fragments(json.dumps)
    probs, fids, texts, counts = report.probability, report.fidelity, report.state, report.count
    trials = report.config.trials
    rows = []
    for k, b in report.rows():
        row = (
            f'{{"input":{k:d}{heads[b]}{floats[probs[k][b]]}'
            f',"fidelity":{floats[fids[k][b]]}{tails[b]}{states[texts[k][b]]}'
        )
        if counts is not None:
            row += f',"count":{counts[b]:d},"frequency":{floats[counts[b] / trials]}'
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
    return (
        f'{{"schema":{_json_fragment(report.schema)}'
        f',"config":{_json_fragment(_config_dict(report.config))}'
        f',"branches":{_json_branches(report)}'
        f',"aggregates":{_json_fragment(aggregates)}'
        f',"verdicts":{json.dumps(report.verdicts, separators=(",", ":"))}}}\n'
    )


def _emit_csv(report: Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if report.verdicts is not None:
        keys = [key for key in report.verdicts[0] if key != "subspace_only"]
        w.writerow(keys)
        w.writerows(
            [row[key] if isinstance(row[key], str) else "|".join(row[key]) for key in keys]
            for row in report.verdicts
        )
    else:
        w.writerow(CSV_COLUMNS)
        cells = [
            (o13.value, o26.value, str(op))
            for (o13, o26), op in zip(_ALL_PAIRS, report.corrections)
        ]
        floats = _Fragments(lambda x: format(x, ".17g"))
        probs, fids = report.probability, report.fidelity
        w.writerows(
            (cells[b][0], cells[b][1], floats[probs[k][b]], floats[fids[k][b]], cells[b][2])
            for k, b in report.rows()
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
    rows = report.rows()
    if rows:
        head = f"{'outcome13':<10}{'outcome26':<10}{'probability':<22}{'fidelity':<22}correction"
        counts, trials = report.count, cfg.trials
        if counts is not None:
            head += "  count  frequency"
        lines.append(head)
        heads = [f"{o13.value:<10}{o26.value:<10}" for o13, o26 in _ALL_PAIRS]
        ops = [str(op) for op in report.corrections]
        floats = _Fragments(lambda x: f"{x:<22.12g}")
        probs, fids = report.probability, report.fidelity
        for k, b in rows:
            row = f"{heads[b]}{floats[probs[k][b]]}{floats[fids[k][b]]}{ops[b]}"
            if counts is not None:
                row += f"  {counts[b]}  {counts[b] / trials:.6g}"
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


_EMITTERS = {"json": _emit_json, "csv": _emit_csv, "text": _emit_text}


def emit_report(report: Report) -> bytes:
    """Serialize a report in its config's ``output_format``; same report,
    same bytes."""
    return _EMITTERS[report.config.output_format](report).encode("utf-8")
