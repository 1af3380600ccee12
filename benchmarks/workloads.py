"""The CLI invocations each benchmark workload makes.

Invocation ``i`` of a workload is a function of (workload, seed, i) alone,
so two runs with the same seed make the same calls in the same order and
write byte-identical reports.  A workload is a repeating batch of
invocation kinds; runs execute whole batches only, so every run has the
same mix of kinds whatever its length.

* sweep  - ``enumerate`` over 100 drawn inputs, schemes 1 and 2, reports
  rotating json/csv/text.  Six-qubit assembly, Bell projection,
  ``format_state`` and large reports do the work; nothing is sampled.
* shots  - ``sample``, mostly scheme 2, 4000 to 16000 trials, drawn and
  ``--coeffs`` inputs, JSON.  Per-trial seeding and ``sample_bell`` do
  the work; reports are small.
* tables - ``derive`` and ``verify`` for both schemes in all three
  formats.  The probe brute force calls ``apply_single`` thousands of
  times per run, reports are tiny, and the short calls expose fixed
  per-invocation cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FORMATS = ("json", "csv", "text")
BRANCHES = 16

SWEEP_INPUTS = 100
SWEEP_KINDS = tuple((scheme, fmt) for fmt in FORMATS for scheme in (1, 2))

# (scheme, trials, input source).  The batch has an odd length and its
# middle class (8000 trials) holds three of five slots, so the median
# invocation time of a run falls inside one class, not on a class edge.
SHOTS_KINDS = (
    (2, 16000, "drawn"),
    (2, 8000, "coeffs"),
    (1, 4000, "drawn"),
    (1, 8000, "coeffs"),
    (2, 8000, "drawn"),
)

TABLES_KINDS = tuple(
    (mode, scheme, fmt)
    for mode in ("derive", "verify")
    for scheme in (1, 2)
    for fmt in FORMATS
)

BATCH = {"sweep": len(SWEEP_KINDS), "shots": len(SHOTS_KINDS), "tables": len(TABLES_KINDS)}
WORKLOADS = tuple(BATCH)

# About the untraced plus traced wall time of one batch at the commit that
# defined the benchmark (2-core Xeon, Python 3.11, numpy 2.4).  A traced run makes
# round(seconds / this) batches, a count fixed by its arguments, so call
# counts repeat exactly between traced runs of one seed.
TRACE_BATCH_SECONDS = {"sweep": 4.5, "shots": 9.0, "tables": 2.5}


@dataclass(frozen=True)
class Invocation:
    """One ``cli.main`` call, without its ``--out`` argument."""

    kind: str
    argv: tuple[str, ...]
    fmt: str
    branches: int  # branch results its report settles


def _coeff_text(coeffs) -> str:
    return ",".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in coeffs)


def _random_coeffs(rng: random.Random, k: int) -> list[complex]:
    c = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(k)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in c))
    return [x / norm for x in c]


def invocation(workload: str, seed: int, index: int) -> Invocation:
    """The ``index``-th invocation of ``workload`` under workload seed ``seed``."""
    if workload not in BATCH:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    cli_seed = str(rng.getrandbits(32))
    slot = index % BATCH[workload]
    if workload == "sweep":
        scheme, fmt = SWEEP_KINDS[slot]
        argv = ("enumerate", "--scheme", str(scheme), "--random-inputs", str(SWEEP_INPUTS),
                "--seed", cli_seed, "--format", fmt)
        return Invocation(f"enumerate/{scheme}/{fmt}", argv, fmt, BRANCHES * SWEEP_INPUTS)
    if workload == "shots":
        scheme, trials, source = SHOTS_KINDS[slot]
        argv = ("sample", "--scheme", str(scheme), "--trials", str(trials), "--seed", cli_seed,
                "--format", "json")
        if source == "coeffs":
            # one token: a value starting with "-" would read as an option
            argv += ("--coeffs=" + _coeff_text(_random_coeffs(rng, 2 if scheme == 1 else 4)),)
        return Invocation(f"sample/{scheme}/{trials}/{source}", argv, "json", trials)
    mode, scheme, fmt = TABLES_KINDS[slot]
    argv = (mode, "--scheme", str(scheme), "--seed", cli_seed, "--format", fmt)
    return Invocation(f"{mode}/{scheme}/{fmt}", argv, fmt, BRANCHES)


def trace_batches(workload: str, seconds: float) -> int:
    return max(1, round(seconds / TRACE_BATCH_SECONDS[workload]))
