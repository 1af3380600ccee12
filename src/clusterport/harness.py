"""Run configurations, report building, and report serialization.

A report is a deterministic function of its RunConfig: every random draw
flows from the 64-bit seed through a fixed substream key, so rerunning a
config reproduces the report byte for byte in any format.

Substream keys: all random inputs share default_rng([seed, 0]), input k
reading the (k + 1)-th draw, so the first N inputs of a run are those of a
run with N (``floatpath.random_inputs``); all Monte Carlo trials share
default_rng([seed, 1]), read as ``floatpath.sample_outcome_pairs``
describes.  Derivation and verification are exact and draw nothing, so the
seed only appears in their config.

Every mode reads the 16 exact branch maps of ``exact.branch_maps`` and
simulates no six-qubit state.  ``derive`` and ``verify`` certify repairs by
integer equality, with no tolerance and no numpy: one
``exact.certified_repairs`` call certifies the whole 16-cell table, so
``derive`` makes one and ``verify`` two.  Each certificate is built once per
process; no report is.  Their rows are built here, from the derived table
and, for ``verify``, the other certificate; the verdict strings are defined
nowhere else, and ``verify`` passes only when every cell is exact.
``enumerate`` and ``sample`` take the input draw, the application of the
repaired maps (``exact.repaired_map``) and the sampler from ``floatpath``,
which their runners import on first use, and numpy with it; the top level
of this module loads only ``exact`` and the standard library, and ``json``
waits for the JSON emitter.  Their fidelity check has no tolerance: they
pass only when every fidelity they read is exactly 1, which a certified
repair gives (``floatpath.map_inputs``).

``enumerate`` works in whole columns: ``floatpath.random_inputs`` draws the
inputs as one array, kept to the summaries.  A report keeps the arrays the
run made, to the report text: the probabilities and fidelities as
read-only (inputs, 16) arrays, indexed [input][cell] in ``_ALL_PAIRS`` cell
order, and each class's repaired output with the class and phase of each
cell (``floatpath.repair_branches``).  Their display forms, ``state``, are
formatted when first read, which only a JSON report does:
``format_states`` formats each class output once per input, and each cell
takes its class's text, as display rotates a cell's phase away.
``report_pieces`` writes a report in its config's ``output_format`` as an
iterator of text pieces: a header, each input's branch rows, the inputs'
summaries in JSON and text, and a footer.  An input's rows depend on its
value row (its probability and fidelity rows) alone, but for the JSON
input index and ``state``: ``_input_rows`` lays them out once per distinct
value row, in a memo of at most ``_ROW_MEMO`` rows per report keyed by the
row's bytes, and CSV and text write each input's rows, separator included,
as one piece, while JSON fills the index and ``state`` into its holes.  A
listed table repeats a few value rows, so most inputs cost a lookup, and
only a row that is laid out becomes Python floats.  The summaries of
up to ``_SUMMARY_BLOCK`` inputs take one ``%`` format and make one piece,
the format built once per report from ``format_complex``'s own.  No piece
grows with the input count, so the CLI, which writes the pieces as they
come, holds one input's rows at a time; ``emit_report`` joins them into
the report's bytes.  A ``derive`` or ``verify`` report writes its rows in
one piece.  JSON verdict rows are one json.dumps call; a CSV verdict row
has a column per row key but ``subspace_only``, joined like a branch row:
no CSV field needs quoting.

    cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", seed=7, output_format="json")
    report = run(cfg)
    sys.stdout.buffer.write(emit_report(report))
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import chain, repeat
from operator import attrgetter

from .exact import (
    BELL_OUTCOMES, CorrectionOp, InputState, Scheme, _record, certified_repairs, table_lookup,
)

MODES = ("enumerate", "sample", "derive", "verify")
FORMATS = ("json", "csv", "text")

TOTAL_PROB_TOL = 1e-9
# Cap on drawn enumerate inputs.  A report streams to its sink, so memory
# grows only with what a run keeps: per input its 16 probabilities and
# fidelities (256 B of float64 arrays), 64 B a class of class outputs and
# its summary, and in a JSON report the cached ``state`` strings.  At the
# cap an enumerate peaks near 10 MiB under tracemalloc in any format (about
# 1 KB per input), and the cap bounds a run there instead of letting it
# grow until it is killed.
MAX_RANDOM_INPUTS = 10_000
CSV_COLUMNS = ("outcome13", "outcome26", "probability", "fidelity", "correction")

_ALL_PAIRS = tuple((a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES)
_PAIR_NAMES = [(o13.value, o26.value) for o13, o26 in _ALL_PAIRS]

# Threshold on the p-value of the chi-square test that gates sampling: its
# false-alarm rate for many trials.  Counts are discrete, so at few trials
# the exact rate differs: 0 below 5 trials, 16 * 16**-5 ~ 1.5e-5 at 5 (all
# in one cell), and 2.2e-7 to 6.3e-6 for 6 to 30 trials.
CHI2_ALPHA = 1e-9


class RunConfig(_record(
    "RunConfig",
    "scheme mode input_coeffs random_inputs trials seed output_format",
)):
    """Everything a run needs; reports depend on nothing else."""

    __slots__ = ()

    def __new__(
        cls, scheme: Scheme, mode: str, input_coeffs=None, random_inputs: int = 100,
        trials: int = 16000, seed: int = 0, output_format: str = "text",
    ) -> "RunConfig":
        scheme = Scheme(scheme)
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if output_format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {output_format!r}")
        if input_coeffs is not None:
            input_coeffs = tuple(complex(c) for c in input_coeffs)
            InputState(scheme, input_coeffs)  # validates count and normalization
        # type(), not isinstance(): a bool is an int, and JSON would write it as true or false
        if type(trials) is not int or trials < 1:
            raise ValueError(f"trials must be a positive integer, got {trials!r}")
        if type(random_inputs) is not int or random_inputs < 1:
            raise ValueError(f"random_inputs must be a positive integer, got {random_inputs!r}")
        if random_inputs > MAX_RANDOM_INPUTS:
            raise ValueError(
                f"random_inputs must be at most {MAX_RANDOM_INPUTS}, got {random_inputs}"
            )
        if type(seed) is not int or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        return tuple.__new__(cls, (
            scheme, mode, input_coeffs, random_inputs, trials, seed, output_format,
        ))


InputSummary = namedtuple("InputSummary", "coeffs total_probability min_fidelity")


class Report(_record(
    "Report",
    "config inputs aggregates verdicts corrections probability fidelity outputs classes phases"
    " count",
)):
    """Outcome of one run.  ``enumerate`` and ``sample`` reports keep their
    branch results over 16 cells in ``BELL_OUTCOMES`` order, the (1, 3)
    outcome major: ``corrections`` holds the repair applied in each cell,
    ``probability`` and ``fidelity`` are read-only float64 arrays of shape
    (inputs, 16), indexed [input][cell] (nested lists of floats, in a report
    built by hand, emit the same bytes), and ``count`` holds the 16 cell
    counts of a ``sample`` run.  ``outputs`` is the read-only (inputs,
    classes, 4) array of the repaired unit outputs on (4, 5) of each class
    of repaired maps, ``classes`` the class of each cell and ``phases`` its
    unit phase, so cell p's output is ``outputs[:, classes[p]] * phases[p]``
    (``floatpath.repair_branches``); with no ``classes``, ``outputs`` holds
    each cell's own, (inputs, 16, 4).  ``derive`` and ``verify`` reports
    carry ``verdicts`` and no branch results.  Reports that differ only in
    ``outputs``, ``classes`` and ``phases`` are equal; ``probability`` and
    ``fidelity`` compare as their lists do."""

    # no __slots__: the instance dict holds the cached ``state``
    schema = 6  # a class constant, not a field

    def __new__(
        cls, config: RunConfig, inputs: tuple, aggregates: dict, verdicts=None,
        corrections: tuple = (), probability=None, fidelity=None, outputs=None, classes=None,
        phases=None, count=None,
    ) -> "Report":
        # a derive or verify report gets lists of its own, no shared default
        return tuple.__new__(cls, (
            config, inputs, aggregates, verdicts, corrections,
            [] if probability is None else probability, [] if fidelity is None else fidelity,
            outputs, classes, phases, count,
        ))

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        values = [v.tolist() if hasattr(v, "tolist") else v for v in (*self[5:7], *other[5:7])]
        return self[:5] == other[:5] and self.count == other.count and values[:2] == values[2:]

    def __ne__(self, other):
        return not self == other

    @property
    def passed(self) -> bool:
        return bool(self.aggregates.get("pass", False))

    @functools.cached_property
    def state(self) -> list[list[str]]:
        """The display form of each cell's output, indexed [input][cell]
        (``floatpath.format_states``), formatted on first read.  Each of
        ``outputs`` is formatted once per input, and each cell takes its
        class's text, the text of its own output, as display rotates its
        phase away; with no ``classes``, each cell's own output is
        formatted."""
        if self.outputs is None:
            return []
        from . import floatpath  # loaded already: a run that made outputs used it

        return floatpath.format_states(self.outputs, self.classes)


def _repaired_inputs(cfg: RunConfig):
    """The corrections in ``_ALL_PAIRS`` order, each cell's first listed one,
    then ``floatpath.repair_branches`` of the run's inputs."""
    # imported here, so derive and verify never load numpy; the import
    # system's module lock makes threads wait for a first load in progress
    from . import floatpath

    coeffs = [cfg.input_coeffs]  # checked by RunConfig
    if cfg.input_coeffs is None:
        count = 1 if cfg.mode == "sample" else cfg.random_inputs
        coeffs = floatpath.random_inputs(cfg.scheme, cfg.seed, count)
    ops = tuple([table_lookup(cfg.scheme, o13, o26)[0] for o13, o26 in _ALL_PAIRS])
    return (ops, *floatpath.repair_branches(ops, cfg.scheme, coeffs))


def run_enumeration(cfg: RunConfig) -> Report:
    """Evaluate all 16 branches for every input."""
    if cfg.mode != "enumerate":
        raise ValueError(f"run_enumeration needs mode 'enumerate', got {cfg.mode!r}")
    ops, coeffs, probs, fids, outputs, classes, phases = _repaired_inputs(cfg)
    totals = probs.cumsum(axis=1)[:, -1]  # left to right, as sum() of Python 3.11 adds
    worst_fids = fids.min(axis=1)
    # tuple.__new__ makes each summary with no Python call, as
    # InputSummary() would make one per input
    summaries = tuple(map(
        tuple.__new__, repeat(InputSummary),
        zip(map(tuple, coeffs.tolist()), totals.tolist(), worst_fids.tolist()),
    ))
    min_fid = float(worst_fids.min())
    worst_total = float(totals[abs(totals - 1.0).argmax()])  # the first, as max() takes
    aggregates = {
        "num_inputs": len(summaries),
        "min_fidelity": min_fid,
        "total_probability_worst": worst_total,
        "branch_probability_min": float(probs.min()),
        "branch_probability_max": float(probs.max()),
        "pass": min_fid >= 1.0 and abs(worst_total - 1.0) <= TOTAL_PROB_TOL,
    }
    return Report(
        cfg, summaries, aggregates, corrections=ops, probability=probs, fidelity=fids,
        outputs=outputs, classes=classes, phases=phases,
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


def _sum_in_order(values) -> float:
    """The floats ``values`` added left to right, as builtin sum() adds
    them before Python 3.12 (from 3.12 it compensates, to other bits)."""
    total = 0.0
    for v in values:
        total += v
    return total


def run_montecarlo(cfg: RunConfig) -> Report:
    """Sample the two measurement outcomes ``trials`` times."""
    if cfg.mode != "sample":
        raise ValueError(f"run_montecarlo needs mode 'sample', got {cfg.mode!r}")
    from . import floatpath

    ops, coeffs, probs, fids, outputs, classes, phases = _repaired_inputs(cfg)
    row, fid_row = probs[0].tolist(), fids[0].tolist()
    counts = floatpath.sample_outcome_pairs(row, cfg.trials, [cfg.seed, 1])
    drawn = [b for b in range(16) if counts[b]]
    min_fid = min(fid_row[b] for b in drawn)
    p = 1.0 / 16.0
    sigma = math.sqrt(p * (1.0 - p) / cfg.trials)
    max_dev = max(abs(n / cfg.trials - p) for n in counts)
    expected = cfg.trials * p
    chi2 = _sum_in_order((n - expected) ** 2 / expected for n in counts)
    chi2_p = chi2_sf(chi2, 15)
    total = _sum_in_order(row[b] for b in drawn)
    summary = InputSummary(tuple(coeffs.tolist()[0]), total, min_fid)
    aggregates = {
        "trials": cfg.trials,
        "min_fidelity": min_fid,
        "distinct_outcomes": len(drawn),
        "expected_frequency": p,
        "frequency_sigma": sigma,
        "three_sigma": 3.0 * sigma,
        "max_frequency_deviation": max_dev,
        "chi2": chi2,
        "chi2_dof": 15,
        "chi2_p_value": chi2_p,
        "pass": min_fid >= 1.0 and chi2_p >= CHI2_ALPHA,
    }
    return Report(
        cfg, (summary,), aggregates, corrections=ops, probability=probs, fidelity=fids,
        outputs=outputs, classes=classes, phases=phases, count=counts,
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
            "outcome13": name13,
            "outcome26": name26,
            "derived": [str(op) for op in derived],
            "listed": [str(op) for op in table_lookup(cfg.scheme, o13, o26)],
        }
        for (o13, o26), (name13, name26), derived in zip(_ALL_PAIRS, _PAIR_NAMES, derived_table)
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
    cells = zip(_ALL_PAIRS, _PAIR_NAMES, certified_repairs(cz, cfg.scheme), others)
    for (o13, o26), (name13, name26), derived, other in cells:
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
            "outcome13": name13,
            "outcome26": name26,
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


# format_complex as a % format of (real, imag), so that a report's input
# lines and entries take one % per input (``_coeff_formats``)
_COMPLEX = "%.17g%+.17gj"


def format_complex(c: complex) -> str:
    """Round-trip complex format, same syntax the CLI accepts."""
    return _COMPLEX % (c.real, c.imag)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s:  # .17g writes no "E"
        s += ".0"
    return s


@functools.cache
def _compact_dumps():
    """Compact json.dumps, its encoder built on the first value a JSON
    report hands it (``_json_value``)."""
    import json  # here, so a CSV or text run never loads it

    return json.JSONEncoder(separators=(",", ":")).encode


def _json_value(v) -> str:
    """One config, aggregates or verdicts value as compact json.dumps writes
    it, but a float as ``_format_float`` does.  None, bools, ints and floats
    are written here, a bool tested before an int, which it also is; only
    strings, lists and the verdict rows go to the encoder."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return _format_float(v)
    if isinstance(v, int):
        return int.__repr__(v)  # as the encoder writes an int, subclasses too
    return _compact_dumps()(v)


def _json_items(values: dict) -> str:
    """The members of a flat JSON object, each value as ``_json_value``
    writes it."""
    return ",".join([f'"{key}":{_json_value(v)}' for key, v in values.items()])


def _config_dict(cfg: RunConfig) -> dict:
    coeffs = None if cfg.input_coeffs is None else [format_complex(c) for c in cfg.input_coeffs]
    return {
        "scheme": int(cfg.scheme), "mode": cfg.mode, "coeffs": coeffs,
        "random_inputs": cfg.random_inputs, "trials": cfg.trials, "seed": cfg.seed,
        "output_format": cfg.output_format,
    }


class _Fragments(dict):
    """Formatted fragments by value, each value formatted once per report,
    up to as many values as ``_ROW_MEMO`` rows of 16 cells hold: values that
    never repeat are formatted afresh, so the dict does not grow with the
    input count.  A zero is formatted every time: -0.0 == 0.0 as a key, but
    it prints with its sign."""

    def __init__(self, fmt):
        self._fmt = fmt

    def __missing__(self, value):
        text = self._fmt(value)
        if value != 0 and len(self) < 32 * _ROW_MEMO:
            self[value] = text
        return text


def _listed(report: Report, *columns):
    """The cells with a branch row, in cell order (a ``sample`` report lists
    only the cells it drew), each as its outcome texts, repair text and
    count (None in ``enumerate``); then each of the report's [input][cell]
    ``columns`` over those cells, indexed [input][listed cell].  Only a
    JSON report passes ``state``, so only it formats the outputs."""
    counts = report.count or [None] * len(report.corrections)
    listed = [b for b, n in enumerate(counts) if n != 0]
    cells = [(*_PAIR_NAMES[b], str(report.corrections[b]), counts[b]) for b in listed]
    if len(listed) < len(counts):
        columns = tuple([[row[b] for b in listed] for row in col] for col in columns)
    return cells, *columns


def _coeff_formats(head: str, sep: str, tail: str) -> _Fragments:
    """Per coefficient count n, the % format of ``head``, n coefficients as
    ``format_complex`` writes them joined by ``sep``, and ``tail``; each
    built once per report, and filled from ``_coeff_parts``."""
    return _Fragments(lambda n: head + sep.join([_COMPLEX] * n) + tail)


# Inputs whose lines (text) or entries (JSON) take one % together: a piece
# of at most 16 KB in scheme 2
_SUMMARY_BLOCK = 64
_COEFFS, _PARTS = attrgetter("coeffs"), attrgetter("real", "imag")
_TOTAL, _WORST = attrgetter("total_probability"), attrgetter("min_fidelity")


def _summary_blocks(inputs):
    """The ``inputs`` as (index of the first, block, n): runs of at most
    _SUMMARY_BLOCK consecutive inputs with n coefficients each.  A report's
    inputs all have its scheme's count, so each block but the last is full;
    a block whose counts differ is handed out an input at a time."""
    for start in range(0, len(inputs), _SUMMARY_BLOCK):
        block = inputs[start:start + _SUMMARY_BLOCK]
        counts = list(map(len, map(_COEFFS, block)))
        if counts.count(counts[0]) == len(counts):
            yield start, block, counts[0]
        else:
            yield from ((start + i, block[i:i + 1], n) for i, n in enumerate(counts))


def _coeff_parts(block, n: int) -> list:
    """One iterator over the real and imaginary parts of every coefficient
    of ``block``, its inputs n coefficients each, listed 2n times: zipped,
    it gives each input's 2n parts in turn, with no Python step per input."""
    return [chain.from_iterable(map(_PARTS, chain.from_iterable(map(_COEFFS, block))))] * (2 * n)


# Where a row piece leaves room for a field of its own input: the JSON input
# index and state.  No report text holds a NUL.
_HOLE = "\0"
# Distinct value rows a report keeps the text of.  A listed table repeats
# a few (8 or 9 over 10 000 drawn inputs); a run whose rows never repeat
# fills the memo and lays out the rest afresh, so it holds no more.
_ROW_MEMO = 64
# Inputs whose value rows _input_rows takes as bytes at once: 128 KiB a
# column at most, so no copy grows with the input count
_KEY_BLOCK = 1024


def _value_bytes(values) -> bytes:
    """The [input][cell] ``values`` as their rows' float64 bytes in turn: a
    float64 array's own, or a nested list's, packed by ``array``."""
    if hasattr(values, "tobytes"):
        return values.tobytes()
    if not values:  # derive and verify: no rows, and no import
        return b""
    from array import array

    return array("d", chain.from_iterable(values)).tobytes()


def _input_rows(pieces: list, probs, fids, f, sep: str, end: str):
    """Each input's branch rows as one block, a row per listed cell, joined
    by ``sep`` and ended by ``end``, yielded an input at a time as a list:
    the block's text split at each ``_HOLE``, with None between the parts,
    where the caller puts that input's own fields.  A block with no hole is
    one string, which str.join hands back as it is.

    ``pieces`` holds each listed cell's row as (head, middle, tail), cut
    around its probability and fidelity; ``probs`` and ``fids`` hold every
    input's values over the listed cells, which ``f`` formats.  So a block
    depends on its input's value row alone, and is laid out once per
    distinct row: up to ``_ROW_MEMO`` rows are kept by their values' bits,
    the input's slice of each column's bytes (``_value_bytes``, taken
    ``_KEY_BLOCK`` inputs at a time), so -0.0 and 0.0, which print apart,
    key apart.  A row's values become floats, read back from those bits,
    only when its block is laid out.  A kept block is handed out again, so
    the caller fills and joins it before taking the next."""
    width = 8 * len(pieces)
    memo = {}
    for start in range(0, len(probs), _KEY_BLOCK):
        inputs = slice(start, start + _KEY_BLOCK)
        prob_bytes, fid_bytes = _value_bytes(probs[inputs]), _value_bytes(fids[inputs])
        for k in range(len(probs[inputs])):
            cut = slice(k * width, (k + 1) * width)
            key = prob_bytes[cut] + fid_bytes[cut]
            block = memo.get(key)
            if block is None:
                values = memoryview(key).cast("d").tolist()
                rows = (h + f(x) + m + f(y) + t
                        for (h, m, t), x, y in zip(pieces, values, values[len(pieces):]))
                parts = (sep.join(rows) + end).split(_HOLE)
                block = [None] * (2 * len(parts) - 1)
                block[::2] = parts
                if len(memo) < _ROW_MEMO:
                    memo[key] = block
            yield block


def _emit_json(report: Report):
    cells, probs, fids, states = _listed(
        report, report.probability, report.fidelity, report.state
    )
    f = _Fragments(_format_float).__getitem__
    trials = report.config.trials
    # no field needs JSON escaping: outcome and repair names, and display forms
    pieces = [
        (f'{{"input":{_HOLE},"outcome13":"{o13}","outcome26":"{o26}","probability":',
         ',"fidelity":',
         f',"correction":"{op}","state":"{_HOLE}'
         # a frequency seldom repeats, so it is formatted as it comes, not kept
         + ('"}' if n is None else f'","count":{n:d},"frequency":{_format_float(n / trials)}}}'))
        for o13, o26, op, n in cells
    ]
    yield (
        f'{{"schema":{report.schema},"config":{{{_json_items(_config_dict(report.config))}}}'
        ',"branches":['
    )
    blocks = _input_rows(pieces, probs, fids, f, ",", "")
    for k, (block, row_states) in enumerate(zip(blocks, states)):
        # each row's holes: its input index, then its state
        block[1::4] = [str(k)] * len(row_states)
        block[3::4] = row_states
        if k:
            yield ","
        yield "".join(block)
    yield f'],"aggregates":{{{_json_items(report.aggregates)},"inputs":['
    # each entry led by a comma, which the first entry of a report drops
    entry = _coeff_formats(',{"coeffs":["', '","', '"],"total_probability":%s,"min_fidelity":%s}')
    for start, block, n in _summary_blocks(report.inputs):
        rows = zip(*_coeff_parts(block, n), map(f, map(_TOTAL, block)), map(f, map(_WORST, block)))
        text = entry[n] * len(block)
        yield (text if start else text[1:]) % tuple(chain.from_iterable(rows))
    yield f']}},"verdicts":{_json_value(report.verdicts)}}}\n'


def _emit_csv(report: Report):
    # no field needs quoting: outcome, verdict and repair names (a list of
    # repairs joined by '|'), and .17g floats
    if report.verdicts is not None:
        header = [key for key in report.verdicts[0] if key != "subspace_only"]
        rows = [
            ",".join(v if isinstance(v, str) else "|".join(v) for v in map(row.get, header))
            for row in report.verdicts
        ]
        yield "\n".join([",".join(header), *rows, ""])
        return
    cells, probs, fids = _listed(report, report.probability, report.fidelity)
    f = _Fragments(lambda x: format(x, ".17g")).__getitem__
    pieces = [(f"{o13},{o26},", ",", f",{op}") for o13, o26, op, _ in cells]
    yield ",".join(CSV_COLUMNS) + "\n"
    yield from map("".join, _input_rows(pieces, probs, fids, f, "\n", "\n"))


def _emit_text(report: Report):
    cfg = report.config
    yield f"scheme={int(cfg.scheme)} mode={cfg.mode} seed={cfg.seed} schema={report.schema}\n"
    line = _coeff_formats("input %d: ", ", ", "\n")
    for start, block, n in _summary_blocks(report.inputs):
        rows = zip(range(start, start + len(block)), *_coeff_parts(block, n))
        yield (line[n] * len(block)) % tuple(chain.from_iterable(rows))
    cells, probs, fids = _listed(report, report.probability, report.fidelity)
    if cells and len(probs):
        head = f"{'outcome13':<10}{'outcome26':<10}{'probability':<22}{'fidelity':<22}correction"
        if report.count is not None:
            head += "  count  frequency"
        yield head + "\n"
        f = _Fragments(lambda x: f"{x:<22.12g}").__getitem__
        pieces = [
            (f"{o13:<10}{o26:<10}", "", op if n is None else f"{op}  {n}  {n / cfg.trials:.6g}")
            for o13, o26, op, n in cells
        ]
        yield from map("".join, _input_rows(pieces, probs, fids, f, "\n", "\n"))
    lines = []
    for row in report.verdicts or ():
        parts = [f"({row['outcome13']}, {row['outcome26']})"]
        if "verdict" in row:
            parts.append(row["verdict"])
        parts.append("derived=" + "|".join(row["derived"]))
        parts.append("listed=" + "|".join(row["listed"]))
        if row.get("subspace_only"):
            parts.append("subspace_only=" + "|".join(row["subspace_only"]))
        lines.append("  ".join(parts))
    summary = " ".join(
        f"{key}={value:.12g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in report.aggregates.items()
        if key != "pass"
    )
    lines += (summary, "result: " + ("PASS" if report.passed else "FAIL"), "")
    yield "\n".join(lines)


_EMITTERS = {"json": _emit_json, "csv": _emit_csv, "text": _emit_text}


def report_pieces(report: Report):
    """The report's text in its config's ``output_format``, as an iterator
    of str pieces: a header, each input's branch rows (and, in JSON and
    text, the summaries of each ``_SUMMARY_BLOCK`` inputs) as pieces of
    their own, and a footer.
    No piece grows with the input count, so a caller that writes the
    pieces as they come holds one input's rows at a time."""
    return _EMITTERS[report.config.output_format](report)


def emit_report(report: Report) -> bytes:
    """Serialize a report in its config's ``output_format``, its
    ``report_pieces`` joined; same report, same bytes."""
    return "".join(report_pieces(report)).encode("utf-8")
