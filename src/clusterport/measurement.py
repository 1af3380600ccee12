"""Bell-basis measurement of a labeled qubit pair.

A Bell measurement projects a pair onto one of the four Bell states and
removes it from the register: the measured pair factors out exactly, so
the surviving qubits carry the whole post-measurement state.  Surviving
labels keep their original relative order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .statevec import StateVector, _trusted

# Branches with probability below this floor are impossible; they carry no
# post-measurement state.
PROB_FLOOR = 1e-12


class BellOutcome(enum.Enum):
    """The four Bell states of an ordered qubit pair (a, b)."""

    PHI_PLUS = "Phi+"    # (|00> + |11>)/sqrt(2)
    PHI_MINUS = "Phi-"   # (|00> - |11>)/sqrt(2)
    PSI_PLUS = "Psi+"    # (|01> + |10>)/sqrt(2)
    PSI_MINUS = "Psi-"   # (|01> - |10>)/sqrt(2)


BELL_OUTCOMES = tuple(BellOutcome)

# sqrt(2) times the coefficient of |i>_a |j>_b in each Bell ket, indexed
# [k, i, j] for BELL_OUTCOMES[k]: the one definition of the Bell basis.
BELL_SIGNS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]).reshape(4, 2, 2)
BELL_SIGNS.setflags(write=False)
# Rows: the Bell bras, flattened over the pair's (i, j) axes; they are real,
# so each row is also its ket.
_BELL_MAT = BELL_SIGNS.reshape(4, 4) * (1.0 / np.sqrt(2.0)) + 0j
_OUTCOME_INDEX = {o: k for k, o in enumerate(BELL_OUTCOMES)}


@dataclass(frozen=True)
class ProjectionResult:
    """Probability of one Bell outcome plus the surviving register.

    ``remainder`` is None when the probability sits below PROB_FLOOR,
    marking a branch that cannot occur.
    """

    probability: float
    remainder: StateVector | None


def bell_vector(outcome: BellOutcome, a: int, b: int) -> StateVector:
    """The Bell ket ``outcome`` over the two-qubit register (a, b)."""
    if a == b:
        raise ValueError("a Bell pair needs two distinct qubits")
    return StateVector((a, b), _BELL_MAT[_OUTCOME_INDEX[outcome]])


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


def bell_probabilities(s: StateVector, a: int, b: int) -> dict[BellOutcome, float]:
    """Born probabilities of the four outcomes for the pair (a, b)."""
    _, comps = _pair_components(s, a, b)
    return {
        o: float(np.real(np.vdot(comps[k], comps[k])))
        for k, o in enumerate(BELL_OUTCOMES)
    }


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
