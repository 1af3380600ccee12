"""Bell-basis measurement of a labeled qubit pair.

A Bell measurement projects a pair onto one of the four Bell states and
removes it from the register: the measured pair factors out exactly, so
the surviving qubits carry the whole post-measurement state.  Surviving
labels keep their original relative order.

Drawing an index from cumulative weights (``draw_index``) takes the first
index whose cumulative weight b satisfies b <= u * total, rounded, except
that no b at the total counts.  For a fixed total the rounded product
u * total never decreases as u grows, so each b counts for every uniform
from one least double up: its threshold, found once per row from
b / total by a few ``math.nextafter`` steps checked with that same rounded
multiply (by bisection where a subnormal total rounds coarsely).  The index a uniform draws is then the number of thresholds at
or below it, the same bits with no per-uniform multiply, which is how
``sample_outcome_pairs`` draws its trials.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .exact import BELL_OUTCOMES, BELL_SIGNS, BellOutcome
from .statevec import StateVector, _trusted

# Branches with probability below this floor are impossible; they carry no
# post-measurement state.
PROB_FLOOR = 1e-12
# Trials sample_outcome_pairs draws at once.  A block's uniforms (16 bytes a
# trial), its gathered thresholds (8) and its cell indices (1 each) hold
# about 0.5 MB, so memory stays flat at any trial count, while the fixed
# cost of each block's numpy calls is spread over many trials.
SAMPLE_BLOCK = 16384

# Rows: the Bell bras, flattened over the pair's (i, j) axes; they are real,
# so each row is also its ket.
_BELL_MAT = np.reshape(BELL_SIGNS, (4, 4)) * (1.0 / np.sqrt(2.0)) + 0j
_OUTCOME_INDEX = {o: k for k, o in enumerate(BELL_OUTCOMES)}


@dataclass(frozen=True)
class ProjectionResult:
    """Probability of one Bell outcome plus the surviving register.

    ``remainder`` is None when the probability sits below PROB_FLOOR,
    marking a branch that cannot occur.
    """

    probability: float
    remainder: StateVector | None


def _pair_components(s: StateVector, a: int, b: int):
    """Contract qubits (a, b) against all four Bell bras at once.

    Returns ``(rest_labels, comps)`` where ``comps[k]`` holds the
    unnormalized amplitudes of the surviving qubits for BELL_OUTCOMES[k].
    """
    if a == b:
        raise ValueError("a Bell pair needs two distinct qubits")
    pa, pb = s.position(a), s.position(b)
    n = s.n_qubits
    rest_axes = tuple(i for i in range(n) if i != pa and i != pb)
    psi = s.amps.reshape((2,) * n).transpose((pa, pb) + rest_axes).reshape(4, -1)
    comps = _BELL_MAT @ psi
    rest = tuple(q for q in s.labels if q != a and q != b)
    return rest, comps


def _result_for(rest, vec, p: float) -> ProjectionResult:
    if p < PROB_FLOOR:
        return ProjectionResult(probability=p, remainder=None)
    return ProjectionResult(probability=p, remainder=_trusted(rest, vec / np.sqrt(p)))


def project_bell(s: StateVector, a: int, b: int, outcome: BellOutcome) -> ProjectionResult:
    """Project the pair (a, b) onto ``outcome`` and drop it from the register."""
    rest, comps = _pair_components(s, a, b)
    vec = comps[_OUTCOME_INDEX[outcome]]
    return _result_for(rest, vec, float(np.real(np.vdot(vec, vec))))


def sample_bell(s: StateVector, a: int, b: int, rng: np.random.Generator):
    """Draw one Bell outcome for the pair (a, b) with Born probabilities.

    The caller owns ``rng``; this function never seeds or splits it.
    Returns ``(outcome, ProjectionResult)`` where the result carries the
    drawn outcome's exact probability.
    """
    rest, comps = _pair_components(s, a, b)
    # sums of |c|^2 are nonnegative exactly, no clipping needed
    probs = (comps.real * comps.real + comps.imag * comps.imag).sum(axis=1)
    k = int(draw_index(probs.cumsum(), rng.random()))
    return BELL_OUTCOMES[k], _result_for(rest, comps[k], float(probs[k]))


def draw_index(cum: np.ndarray, u) -> np.ndarray:
    """Indices that uniforms ``u`` in [0, 1) select from cumulative weights
    ``cum`` (one row, or one row per uniform): the first whose cumulative
    weight exceeds u times the total, or, where rounding reaches the total,
    the last index that still raises it, so zero weights are never drawn."""
    cols, total = np.moveaxis(cum, -1, 0), cum[..., -1]
    v = np.asarray(u) * total
    return np.minimum(sum(c <= v for c in cols), sum(c < total for c in cols))


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _bits(x: float) -> int:
    """A double's bit pattern, which orders the doubles >= 0 as they compare."""
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _double(bits: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


def _threshold(b: float, total: float) -> float:
    """The least double u in [0, 1) at which ``draw_index`` counts the
    cumulative weight ``b`` of a row with total ``total``: b <= u * total,
    rounded, and b < total.  1.0, which no uniform reaches, where none does."""
    if not b < total:  # at the total, or NaN
        return 1.0
    q = b / total
    lo, hi = -1.0, 1.0  # b counts at hi (1.0: never) but not at lo (-1.0: none)
    for u in (math.nextafter(q, 0.0), q, math.nextafter(q, 1.0)):
        if lo < u < hi:
            if b <= u * total:
                hi = u
            else:
                lo = u
    # q is a step or two off unless the total is subnormal; then bisect
    while hi > 0.0 and math.nextafter(hi, 0.0) != lo:
        mid = _double(((_bits(lo) if lo >= 0.0 else -1) + _bits(hi)) // 2)
        if b <= mid * total:
            hi = mid
        else:
            lo = mid
    return hi


def index_thresholds(cum) -> list[float]:
    """The threshold of each cumulative weight of the row ``cum`` but the
    last, which never counts: for nonnegative (or NaN) weights and every
    double u in [0, 1), ``draw_index(cum, u)`` is the number of thresholds
    at or below u."""
    return [_threshold(b, cum[-1]) for b in cum[:-1]]


def cell_thresholds(probs):
    """``(first, second)``, the thresholds of the 16 cell weights ``probs``,
    the (1, 3) outcome major: ``first`` those of the (1, 3) marginal, and
    ``second[c, i]`` that of boundary c in row i."""
    joint = np.reshape(probs, (4, 4))
    first = index_thresholds(joint.sum(axis=1).cumsum().tolist())
    second = np.array([index_thresholds(row) for row in joint.cumsum(axis=1).tolist()])
    return first, second.T.copy()


def outcome_cells(u: np.ndarray, first, second: np.ndarray) -> np.ndarray:
    """The cell 4i + j each row (u0, u1) of ``u`` draws from the thresholds
    ``cell_thresholds`` gives: i counts those of the marginal at or below
    u0, and j those of row i at or below u1."""
    u0, u1 = u[:, 0], u[:, 1]
    i = np.zeros(len(u), dtype=np.uint8)  # one byte a trial: each pass stays small
    for t in first:
        i += u0 >= t
    cells = i << 2
    for row_thresholds in second:
        cells += u1 >= row_thresholds.take(i)
    return cells


def sample_outcome_pairs(probs, trials: int, seed) -> list[int]:
    """Counts of ``trials`` draws of the outcome pair on (1, 3) and (2, 6)
    from the 16 cell probabilities ``probs``, the (1, 3) outcome major.

    All trials share ``np.random.default_rng(seed)``, trial t reading its
    doubles 2t and 2t+1: the first picks the outcome i on (1, 3) from its
    marginal, the second the outcome on (2, 6) from row i, each as
    ``draw_index`` picks from the cumulative weights.  Those weights are
    turned into thresholds once per call (``cell_thresholds``), exact
    because the rounded u * total never decreases in u, so a trial costs
    comparisons only (``outcome_cells``).  Trials are drawn SAMPLE_BLOCK at
    a time; counts depend on neither the block size nor, for the first N
    trials, the trial count.
    """
    first, second = cell_thresholds(probs)
    rng = np.random.default_rng(seed)
    counts = np.zeros(16, dtype=np.int64)
    u = np.empty((min(SAMPLE_BLOCK, trials), 2))
    for start in range(0, trials, SAMPLE_BLOCK):
        block = rng.random(out=u[: min(SAMPLE_BLOCK, trials - start)])
        counts += np.bincount(outcome_cells(block, first, second), minlength=16)
    return counts.tolist()
