"""The two cluster-channel teleportation schemes: the channel, the float
branch maps and repairs that ``enumerate`` and ``sample`` apply, and the
dense six-qubit reference.

Particle numbering: the sender holds the unknown two-qubit state on
particles (1, 2) plus channel particles 3 and 6; the receiver holds
channel particles 4 and 5.  The channel is the four-qubit cluster state

    (|0000> + |0011> + |1100> - |1111>) / 2   on (3, 4, 5, 6).

A branch is one joint result of the sender's two Bell measurements, on
pairs (1, 3) and (2, 6).  Every branch occurs with probability 1/16, and
a branch-specific correction on the receiver's pair restores the input:

* Scheme.SPECIAL   - input alpha|00> + delta|11>, one Pauli per output qubit;
* Scheme.ARBITRARY - any two-qubit input, a controlled-phase on (4, 5)
  followed by one Pauli per output qubit.

The protocol is linear in the input, so each branch is a fixed 4x4 map K
from (1, 2) to (4, 5) (``branch_maps``), contracted exactly from the
integer sign tables of the channel and the Bell basis; 4K is a signed
permutation.  Every mode reads these maps: ``derive`` and ``verify`` as the
integers of ``exact.branch_maps``, through the certificate
``exact.certified_repairs``, and ``enumerate`` and ``sample`` as the float
maps here.  A repair's matrix is formed in one place, ``repair_matrices``,
from ``gates.PAULIS`` and the CZ diagonal of ``exact``, read at call time;
``repair_branches`` multiplies the 16 repairs into the maps and applies
them to every input with ``map_inputs``, and ``random_inputs`` draws the
seeded inputs of a run in one batch.  Everything else here is the dense
six-qubit reference the tests check the maps against.
"""

from __future__ import annotations

import numpy as np

from . import exact
from .exact import (
    BELL_OUTCOMES,
    PAULI_NAMES,
    PAULI_PAIRS,
    BellOutcome,
    CorrectionOp,
    InputState,
    Scheme,
)
from .gates import PAULIS, apply_cz, apply_single
from .measurement import project_bell
from .statevec import StateVector, format_states, relabel, tensor

INPUT_LABELS = (1, 2)
CHANNEL_LABELS = (3, 4, 5, 6)

# The claim under test is that particles (4, 5) finish in the input state,
# so the input is relabeled onto the output particles before any comparison.
OUTPUT_RELABELING = {1: 4, 2: 5}


def cluster_state() -> StateVector:
    """The four-qubit channel on particles (3, 4, 5, 6)."""
    return StateVector(CHANNEL_LABELS, np.reshape(exact.CLUSTER_SIGNS, -1) / 2)


def make_input(state: InputState) -> StateVector:
    """The input coefficients as a state on particles (1, 2)."""
    return StateVector(INPUT_LABELS, state.amps)


def target_state(state: InputState) -> StateVector:
    """The input relabeled onto the receiver's particles (4, 5)."""
    return relabel(make_input(state), OUTPUT_RELABELING)


def assemble_total(state: InputState) -> StateVector:
    """Input tensor channel: the full six-particle state before measuring."""
    return tensor(make_input(state), cluster_state())


def collapse_branch(total: StateVector, o13: BellOutcome, o26: BellOutcome):
    """Project the two measured pairs and return (probability, remainder).

    The remainder lives on (4, 5) and is NOT yet corrected.  Both
    projections succeed for every valid input, so a dead branch here is a
    simulator bug, not a caller error.
    """
    first = project_bell(total, 1, 3, o13)
    if first.remainder is None:
        raise RuntimeError(f"branch ({o13.value}, {o26.value}) died at pair (1, 3)")
    second = project_bell(first.remainder, 2, 6, o26)
    if second.remainder is None:
        raise RuntimeError(f"branch ({o13.value}, {o26.value}) died at pair (2, 6)")
    return first.probability * second.probability, second.remainder


def apply_correction(s: StateVector, op: CorrectionOp) -> StateVector:
    out = apply_cz(s, 4, 5) if op.cz_first else s
    if op.p4 != "I":
        out = apply_single(out, 4, PAULIS[op.p4])
    if op.p5 != "I":
        out = apply_single(out, 5, PAULIS[op.p5])
    return out


def _unit_coeffs(x: np.ndarray) -> np.ndarray:
    """Each row of ``x``, its k real parts then its k imaginary parts, as k
    complex coefficients scaled to unit norm.  The norm is np.linalg.norm
    of each row on its own: a row gives the same bits alone as in any
    batch."""
    k = x.shape[1] // 2
    c = x[:, :k] + 1j * x[:, k:]
    c /= np.array([np.linalg.norm(row) for row in c])[:, None]
    return c


def random_input(scheme: Scheme, rng) -> InputState:
    """A normalized input with complex Gaussian coefficients: the real parts
    and then the imaginary parts, in one draw from ``rng``, a Generator or
    a seed that ``np.random.default_rng`` takes."""
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    x = np.random.default_rng(rng).standard_normal((1, 2 * k))
    return InputState(scheme, tuple(_unit_coeffs(x)[0].tolist()))


def random_inputs(scheme: Scheme, seed: int, count: int) -> list[InputState]:
    """``random_input(scheme, [seed, 0, n])`` for n in range(count): one
    generator per input draws its row, and the rows are normalized in one
    pass."""
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    x = np.empty((count, 2 * k))
    for n in range(count):
        np.random.default_rng([seed, 0, n]).standard_normal(out=x[n])
    return [InputState(scheme, tuple(c)) for c in _unit_coeffs(x).tolist()]


# kron(P4, P5) for each pair in PAULI_PAIRS order (particle 4 is the more
# significant bit of every (4, 5) register), in one call to keep import cheap.
_PAULI_STACK = np.stack([PAULIS[name] for name in PAULI_NAMES])
_PAIR_OPS = np.einsum("aij,bkl->abikjl", _PAULI_STACK, _PAULI_STACK).reshape(16, 4, 4)


def repair_matrices(ops) -> np.ndarray:
    """The repairs ``ops`` as a stack of 4x4 matrices on (4, 5): each Pauli
    pair after its optional controlled-phase, whose diagonal is read from
    ``exact``."""
    m = _PAIR_OPS[[PAULI_PAIRS.index((op.p4, op.p5)) for op in ops]]
    with_cz = np.array([op.cz_first for op in ops], dtype=bool)
    m[with_cz] *= np.array(exact._CZ_DIAG, dtype=np.complex128)
    return m


def branch_maps() -> np.ndarray:
    """The 16 branch maps, ``branch_maps()[i, j]`` for the outcomes
    (BELL_OUTCOMES[i], BELL_OUTCOMES[j]).

    Each is the 4x4 map K from the input on (1, 2) to the uncorrected output
    on (4, 5), unnormalized, so |K v|^2 is the branch probability of input
    v: the integer maps 4K of ``exact.branch_maps`` over 4, built afresh at
    each call.
    """
    return np.array(exact.branch_maps()).reshape(4, 4, 4, 4) / 4 + 0j


def _dot(a: np.ndarray, b: np.ndarray):
    """Re and Im of <a|b> over the last axis, rounding every product on its
    own (a complex multiply may fuse one product into its sum)."""
    re = (a.real * b.real + a.imag * b.imag).sum(axis=-1)
    im = (a.real * b.imag - a.imag * b.real).sum(axis=-1)
    return re, im


def map_inputs(maps: np.ndarray, inputs):
    """Apply every 4x4 map M in the stack ``maps`` to every amplitude vector
    v on (1, 2) in ``inputs``: ``(out, prob, fid)`` with ``out[n, p]`` = w =
    M_p v_n, ``prob`` = <w|w> and ``fid`` = |<v|w>|^2 / (<v|v> <w|w>).  The
    three sums are taken alike, so a certified repair (w = c v / 4) reads
    exactly 1."""
    v = np.asarray(inputs, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] != 4:
        raise ValueError("inputs must be a non-empty list of 4-amplitude vectors")
    out = np.einsum("pij,nj->npi", maps, v)
    re, im = _dot(v[:, None, :], out)
    prob = _dot(out, out)[0]
    return out, prob, (re * re + im * im) / (_dot(v, v)[0][:, None] * prob)


def repair_branches(ops, inputs):
    """Every branch of every input (amplitude vectors on (1, 2)) after the
    repair ``ops`` lists for it, in cell order: probabilities, fidelities and
    display forms of the outputs as lists indexed [input][cell]."""
    repaired = repair_matrices(ops) @ branch_maps().reshape(16, 4, 4)
    out, probs, fids = map_inputs(repaired, inputs)
    states = format_states(out / np.sqrt(probs)[..., None])
    return probs.tolist(), fids.tolist(), states


def pauli_pair_fidelities(o13: BellOutcome, o26: BellOutcome, inputs, cz_first: bool):
    """For each Pauli pair (p4, p5), its worst post-repair fidelity over
    ``inputs`` (amplitude vectors on (1, 2)) on one branch, after the
    controlled-phase when ``cz_first``."""
    k = branch_maps()[BELL_OUTCOMES.index(o13), BELL_OUTCOMES.index(o26)]
    repairs = repair_matrices([CorrectionOp(*pair, cz_first=cz_first) for pair in PAULI_PAIRS])
    fid = map_inputs(repairs @ k, inputs)[2]
    return dict(zip(PAULI_PAIRS, fid.min(axis=0).tolist()))
