"""Bell-basis measurement of a labeled qubit pair: the dense reference's
measurement layer.

A Bell measurement projects a pair onto one of the four Bell states and
removes it from the register: the measured pair factors out exactly, so
the surviving qubits carry the whole post-measurement state.  Surviving
labels keep their original relative order.

Drawing an index from cumulative weights (``draw_index``) takes the first
index whose cumulative weight b satisfies b <= u * total, rounded, except
that no b at the total counts.  It is the scalar rule of ``sample_bell``,
and the one ``floatpath.sample_outcome_pairs`` draws its trials by, through
thresholds; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import BELL_OUTCOMES, BELL_SIGNS, BellOutcome
from .statevec import StateVector, _trusted

# Branches with probability below this floor are impossible; they carry no
# post-measurement state.
PROB_FLOOR = 1e-12

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
