"""Independent check of one CLI report.

The checker trusts neither the package nor its built-in correction tables.
It builds its own reference: for each of the 16 Bell branches, the 4x4 map
``K_b`` from the input on particles (1, 2) to the output on (4, 5), taken
straight from the channel state and the Bell bras, and from it the set of
Pauli-pair repairs that restore every input of the scheme (after a CZ on
(4, 5) for scheme 2).  A report fails when:

* any branch probability is more than 1e-9 from 1/16, or a fidelity is
  below 1 - 1e-10;
* a correction it applied or a repair it derived is not a reference
  repair, or a derivation misses one;
* a JSON enumerate or sample branch's ``state`` is not the input ket up to
  global phase;
* sample counts do not sum to the trials, or fail a chi-square test of
  uniformity at a false-alarm rate of 1e-9;
* a verify cell is a mismatch, or a derive cell lists a repair it did not
  derive;
* it is not shaped as the invocation's arguments say it should be.

``check_report(argv, data)`` returns the problems found, empty when none.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from functools import lru_cache

import numpy as np

OUTCOMES = ("Phi+", "Phi-", "Psi+", "Psi-")
PAIRS = tuple((a, b) for a in OUTCOMES for b in OUTCOMES)
PAULI_NAMES = "IXYZ"
CSV_BRANCH_HEADER = ["outcome13", "outcome26", "probability", "fidelity", "correction"]
VERDICTS_OK = ("exact-up-to-global-phase", "subspace-only")

PROB_TOL = 1e-9
FIDELITY_TOL = 1e-10
STATE_TOL = 1e-5  # reports print kets at 6 significant digits
# Upper 1e-9 tail of chi-square with 15 degrees of freedom (16 cells).
CHI2_15_LIMIT = 73.63

_R = 1.0 / math.sqrt(2.0)
# Coefficient of |i>_a |j>_b in each Bell ket of the ordered pair (a, b).
_BELL = {
    "Phi+": np.array([[_R, 0], [0, _R]]),
    "Phi-": np.array([[_R, 0], [0, -_R]]),
    "Psi+": np.array([[0, _R], [_R, 0]]),
    "Psi-": np.array([[0, _R], [-_R, 0]]),
}
_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]),
}
_CZ = np.diag([1.0, 1.0, 1.0, -1.0])


def branch_maps() -> dict[tuple[str, str], np.ndarray]:
    """``K[(o13, o26)]``: output (4, 5) amplitudes as a map of the input (1, 2)."""
    channel = np.zeros((2, 2, 2, 2))  # axes: particles 3, 4, 5, 6
    channel[0, 0, 0, 0] = channel[0, 0, 1, 1] = channel[1, 1, 0, 0] = 0.5
    channel[1, 1, 1, 1] = -0.5
    return {
        (o13, o26): np.einsum(
            "ac,bd,cxyd->xyab", _BELL[o13].conj(), _BELL[o26].conj(), channel
        ).reshape(4, 4)
        for o13, o26 in PAIRS
    }


@lru_cache(maxsize=None)
def reference_repairs(scheme: int) -> dict[tuple[str, str], frozenset[str]]:
    """Repairs, printed as the CLI prints them, that restore every input."""
    keep = [0, 1, 2, 3] if scheme == 2 else [0, 3]  # scheme 1: span{|00>, |11>}
    prefix = "CZ+" if scheme == 2 else ""
    out = {}
    for pair, k in branch_maps().items():
        base = _CZ @ k if scheme == 2 else k
        found = set()
        for p4 in PAULI_NAMES:
            for p5 in PAULI_NAMES:
                m = (np.kron(_PAULI[p4], _PAULI[p5]) @ base)[:, keep]
                c = m[keep[0], 0]
                if abs(c) > 1e-6 and np.abs(m - c * np.eye(4)[:, keep]).max() < 1e-12:
                    found.add(f"{prefix}{p4}{p5}")
        out[pair] = frozenset(found)
    return out


def options(argv) -> dict:
    """The invocation's settings, read from its arguments, CLI defaults applied."""
    opts = {"mode": argv[0], "format": "text", "seed": 0, "coeffs": None,
            "random_inputs": 100, "trials": 16000}
    it = iter(argv[1:])
    for flag in it:
        flag, eq, value = flag.partition("=")
        if not eq:
            value = next(it)
        key = flag.lstrip("-").replace("-", "_")
        if key in ("scheme", "seed", "trials", "random_inputs"):
            opts[key] = int(value)
        elif key == "coeffs":
            opts[key] = [complex(t) for t in re.split(r"[,\s]+", value.strip()) if t]
        else:
            opts[key] = value
    return opts


def check_report(argv, data: bytes) -> list[str]:
    opts = options(argv)
    try:
        text = data.decode("utf-8")
        mode, fmt = opts["mode"], opts["format"]
        if mode == "enumerate":
            return _enumerate_checks[fmt](opts, text)
        if mode == "sample" and fmt == "json":
            return _check_sample_json(opts, text)
        if mode in ("derive", "verify"):
            return _table_checks[fmt](opts, text)
        return [f"no check for {mode} reports in {fmt}"]
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


# -- shared pieces -------------------------------------------------------


def _input_ket(scheme: int, coeffs) -> np.ndarray:
    c = [complex(x) for x in coeffs]
    return np.array([c[0], 0, 0, c[1]] if scheme == 1 else c, dtype=complex)


def _parse_ket(text: str) -> np.ndarray:
    amps = np.zeros(4, dtype=complex)
    for term in text.split(" + "):
        m = re.fullmatch(r"(.+)\|([01]{2})>", term)
        if m is None:
            raise ValueError(f"bad ket term {term!r}")
        amps[int(m[2], 2)] = complex(m[1].replace("i", "j"))
    return amps


def _same_ray(printed: np.ndarray, ket: np.ndarray) -> bool:
    lead = ket[np.flatnonzero(np.abs(ket) > 1e-9)[0]]
    return np.abs(printed - ket * (abs(lead) / lead)).max() <= STATE_TOL


def _check_branch(where: str, scheme: int, pair, probability: float, fidelity: float,
                  correction: str) -> list[str]:
    problems = []
    if pair not in reference_repairs(scheme):
        return [f"{where}: unknown outcome pair {pair}"]
    if not abs(probability - 1.0 / 16.0) <= PROB_TOL:
        problems.append(f"{where}: probability {probability!r} is not 1/16")
    if not fidelity >= 1.0 - FIDELITY_TOL:
        problems.append(f"{where}: fidelity {fidelity!r} below 1 - {FIDELITY_TOL}")
    if correction not in reference_repairs(scheme)[pair]:
        problems.append(f"{where}: correction {correction} does not repair branch {pair}")
    return problems


def _check_blocks(pairs: list, n_inputs: int) -> list[str]:
    """Rows come as one block of all 16 outcome pairs per input."""
    if len(pairs) != 16 * n_inputs:
        return [f"{len(pairs)} branch rows, expected {16 * n_inputs}"]
    return [
        f"input {k}: outcome pairs are not the 16 distinct pairs"
        for k in range(n_inputs)
        if set(pairs[16 * k:16 * k + 16]) != set(PAIRS)
    ]


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def _check_config(opts: dict, cfg: dict) -> list[str]:
    problems = []
    for key in ("mode", "scheme", "seed"):
        problems += _expect(cfg[key] == opts[key], f"config {key}={cfg[key]!r}, ran with {opts[key]!r}")
    if opts["mode"] == "sample":
        problems += _expect(cfg["trials"] == opts["trials"], f"config trials={cfg['trials']!r}")
    if opts["coeffs"] is not None:
        problems += _expect([complex(c) for c in cfg["coeffs"]] == opts["coeffs"],
                            "config coeffs differ from the --coeffs given")
    return problems


def _check_text_frame(lines: list[str], opts: dict) -> list[str]:
    head = f"scheme={opts['scheme']} mode={opts['mode']} seed={opts['seed']} "
    return (_expect(lines[0].startswith(head), f"first line {lines[0]!r} does not match the run")
            + _expect(lines[-1] == "result: PASS", f"last line is {lines[-1]!r}"))


# -- enumerate -----------------------------------------------------------


def _n_inputs(opts: dict) -> int:
    return 1 if opts["coeffs"] is not None else opts["random_inputs"]


def _check_enumerate_json(opts: dict, text: str) -> list[str]:
    doc = json.loads(text)
    scheme, n = opts["scheme"], _n_inputs(opts)
    problems = _check_config(opts, doc["config"])
    inputs = doc["aggregates"]["inputs"]
    problems += _expect(len(inputs) == n, f"{len(inputs)} inputs, expected {n}")
    problems += _expect(doc["aggregates"]["pass"] is True, "report does not pass")
    branches = doc["branches"]
    problems += _check_blocks([(b["outcome13"], b["outcome26"]) for b in branches], len(inputs))
    kets = [_input_ket(scheme, [complex(c) for c in s["coeffs"]]) for s in inputs]
    for i, b in enumerate(branches):
        pair = (b["outcome13"], b["outcome26"])
        where = f"branch {i}"
        problems += _check_branch(where, scheme, pair, b["probability"], b["fidelity"], b["correction"])
        problems += _expect(b["input"] == i // 16, f"{where}: input index {b['input']}")
        problems += _expect(_same_ray(_parse_ket(b["state"]), kets[b["input"]]),
                            f"{where}: state {b['state']!r} is not the input up to phase")
    return problems


def _check_enumerate_csv(opts: dict, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    problems = _expect(rows[0] == CSV_BRANCH_HEADER, f"header {rows[0]}")
    body = rows[1:]
    problems += _check_blocks([(r[0], r[1]) for r in body], _n_inputs(opts))
    for i, r in enumerate(body):
        problems += _check_branch(f"row {i}", opts["scheme"], (r[0], r[1]), float(r[2]), float(r[3]), r[4])
    return problems


def _check_enumerate_text(opts: dict, text: str) -> list[str]:
    lines = text.splitlines()
    n = _n_inputs(opts)
    problems = _check_text_frame(lines, opts)
    problems += _expect(all(lines[1 + k].startswith(f"input {k}: ") for k in range(n)),
                        "input lines missing")
    problems += _expect(lines[1 + n].split() == CSV_BRANCH_HEADER, "branch table header missing")
    rows = [line.split() for line in lines[2 + n:-2]]
    problems += _check_blocks([(r[0], r[1]) for r in rows], n)
    for i, r in enumerate(rows):
        problems += _check_branch(f"row {i}", opts["scheme"], (r[0], r[1]), float(r[2]), float(r[3]), r[4])
    return problems


_enumerate_checks = {"json": _check_enumerate_json, "csv": _check_enumerate_csv,
                     "text": _check_enumerate_text}


# -- sample --------------------------------------------------------------


def _check_sample_json(opts: dict, text: str) -> list[str]:
    doc = json.loads(text)
    scheme, trials = opts["scheme"], opts["trials"]
    problems = _check_config(opts, doc["config"])
    problems += _expect(doc["aggregates"]["pass"] is True, "report does not pass")
    inputs = doc["aggregates"]["inputs"]
    problems += _expect(len(inputs) == 1, f"{len(inputs)} inputs, expected 1")
    coeffs = [complex(c) for c in inputs[0]["coeffs"]]
    if opts["coeffs"] is not None:
        problems += _expect(coeffs == opts["coeffs"], "sampled input is not the --coeffs given")
    ket = _input_ket(scheme, coeffs)
    counts = dict.fromkeys(PAIRS, 0)
    for i, b in enumerate(doc["branches"]):
        pair = (b["outcome13"], b["outcome26"])
        where = f"branch {i}"
        problems += _check_branch(where, scheme, pair, b["probability"], b["fidelity"], b["correction"])
        problems += _expect(_same_ray(_parse_ket(b["state"]), ket),
                            f"{where}: state {b['state']!r} is not the input up to phase")
        problems += _expect(b["count"] >= 1 and counts.get(pair) == 0, f"{where}: count {b['count']} for {pair}")
        problems += _expect(b["frequency"] == b["count"] / trials, f"{where}: frequency is not count/trials")
        counts[pair] = b["count"]
    total = sum(counts.values())
    problems += _expect(total == trials, f"counts sum to {total}, expected {trials}")
    expected = trials / 16.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    problems += _expect(chi2 <= CHI2_15_LIMIT, f"chi-square {chi2:.3g} rejects uniform outcomes")
    return problems


# -- derive / verify -----------------------------------------------------


def _check_cells(opts: dict, cells: list[dict]) -> list[str]:
    """``cells`` carry outcome13/26, derived and listed lists, and verify's verdict."""
    scheme, mode = opts["scheme"], opts["mode"]
    ref = reference_repairs(scheme)
    problems = _expect(sorted((c["outcome13"], c["outcome26"]) for c in cells) == sorted(PAIRS),
                       "cells are not the 16 distinct outcome pairs")
    for c in cells:
        pair = (c["outcome13"], c["outcome26"])
        derived, listed = set(c["derived"]), set(c["listed"])
        problems += _expect(derived == ref.get(pair), f"{pair}: derived {sorted(derived)} is not the repair set")
        problems += _expect(listed <= derived, f"{pair}: listed {sorted(listed - derived)} not derived")
        problems += _expect(bool(listed) and listed <= ref.get(pair, set()),
                            f"{pair}: listed {sorted(listed)} are not all repairs")
        if mode == "verify":
            problems += _expect(c.get("verdict") in VERDICTS_OK, f"{pair}: verdict {c.get('verdict')!r}")
    return problems


def _check_table_json(opts: dict, text: str) -> list[str]:
    doc = json.loads(text)
    problems = _check_config(opts, doc["config"])
    problems += _expect(doc["aggregates"]["pass"] is True, "report does not pass")
    if opts["mode"] == "verify":
        problems += _expect(doc["aggregates"]["mismatch"] == 0, "aggregates count a mismatch")
    return problems + _check_cells(opts, doc["verdicts"])


def _split(cell: str) -> list[str]:
    return cell.split("|") if cell else []


def _check_table_csv(opts: dict, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    verify = opts["mode"] == "verify"
    header = ["outcome13", "outcome26"] + (["verdict"] if verify else []) + ["derived", "listed"]
    problems = _expect(rows[0] == header, f"header {rows[0]}")
    cells = [dict(zip(header, r)) for r in rows[1:]]
    for c in cells:
        c["derived"], c["listed"] = _split(c["derived"]), _split(c["listed"])
    return problems + _check_cells(opts, cells)


_CELL_LINE = re.compile(r"\((\S+), (\S+)\)  (.*)")


def _check_table_text(opts: dict, text: str) -> list[str]:
    lines = text.splitlines()
    problems = _check_text_frame(lines, opts)
    cells = []
    for line in lines[1:-2]:
        m = _CELL_LINE.fullmatch(line)
        if m is None:
            problems.append(f"unexpected line {line!r}")
            continue
        cell = {"outcome13": m[1], "outcome26": m[2]}
        for part in m[3].split("  "):
            key, eq, value = part.partition("=")
            if eq:
                cell[key] = _split(value)
            else:
                cell["verdict"] = part
        cells.append(cell)
    if opts["mode"] == "verify":
        problems += _expect("mismatch=0" in lines[-2].split(), f"summary {lines[-2]!r}")
    return problems + _check_cells(opts, cells)


_table_checks = {"json": _check_table_json, "csv": _check_table_csv, "text": _check_table_text}
