"""The two cluster-channel teleportation schemes, simulated densely on six
qubits.

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
from (1, 2) to (4, 5), contracted exactly from the integer sign tables of
the channel and the Bell basis (``exact.branch_maps``); ``enumerate`` and
``sample`` apply its repaired form ``exact.repaired_map`` in ``floatpath``.
This module is the dense six-qubit reference the tests check those maps
against: it assembles the six-particle state, projects it onto a branch and
repairs it gate by gate with the matrices of ``gates.PAULIS``.
``random_input`` (one input from one stream, scaled as ``floatpath`` scales
a batch) and ``pauli_pair_fidelities`` (every Pauli pair on one branch, as
Kronecker products of ``gates.PAULIS`` times ``exact.branch_maps()`` / 4)
run in no CLI mode; the tests and the benchmark tracer use both.
"""

from __future__ import annotations

import numpy as np

from . import exact
from .exact import BELL_OUTCOMES, PAULI_PAIRS, BellOutcome, CorrectionOp, InputState, Scheme
from .floatpath import _unit_coeffs, map_inputs
from .gates import PAULIS, apply_cz, apply_single
from .measurement import project_bell
from .statevec import StateVector, relabel, tensor

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


def random_input(scheme: Scheme, rng) -> InputState:
    """A normalized input with complex Gaussian coefficients: the real parts
    and then the imaginary parts, in one draw from ``rng``, a Generator or
    a seed that ``np.random.default_rng`` takes."""
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    x = np.random.default_rng(rng).standard_normal((1, 2 * k))
    return InputState(scheme, tuple(_unit_coeffs(x)[0].tolist()))


def pauli_pair_fidelities(o13: BellOutcome, o26: BellOutcome, inputs, cz_first: bool):
    """For each Pauli pair (p4, p5), its worst post-repair fidelity over
    ``inputs`` (amplitude vectors on (1, 2)) on one branch, after the
    controlled-phase when ``cz_first``."""
    cell = 4 * BELL_OUTCOMES.index(o13) + BELL_OUTCOMES.index(o26)
    k = np.array(exact.branch_maps()[cell], dtype=np.complex128) / 4
    if cz_first:
        k = np.array(exact._CZ_DIAG)[:, None] * k  # the controlled-phase step
    repairs = np.array([np.kron(PAULIS[p4], PAULIS[p5]) for p4, p5 in PAULI_PAIRS])
    fid = map_inputs(repairs @ k, inputs)[2]
    return dict(zip(PAULI_PAIRS, fid.min(axis=0).tolist()))
