"""Dense per-branch simulation, kept in the tests as the reference that the
branch-map core of every mode is compared against.

Each input is assembled into the six-qubit state, projected onto one branch
(or sampled pair by pair) and repaired gate by gate, so nothing here reads
``branch_maps``.
"""

import math
from typing import NamedTuple

import numpy as np

from clusterport import BELL_OUTCOMES, BellOutcome, CorrectionOp, InputState, Scheme, table_lookup
from clusterport.gates import PAULIS, apply_cz, apply_single
from clusterport.measurement import sample_bell
from clusterport.exact import PAULI_NAMES
from clusterport.protocol import (
    apply_correction,
    assemble_total,
    collapse_branch,
    random_input,
    target_state,
)
from clusterport.statevec import StateVector, fidelity, format_state

N_RANDOM_PROBES = 10
# A float brute force cannot certify anything exactly; a repair survives it
# when its worst fidelity over the probes is this close to 1.
SURVIVAL_TOL = 1e-10

# report cell order: the (1, 3) outcome major, the (2, 6) outcome minor
CELLS = [(a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES]


class Branch(NamedTuple):
    """One branch executed end to end with the table's first listed repair."""

    probability: float
    corrected_state: StateVector
    fidelity: float
    correction: CorrectionOp


def run_branch(state, o13, o26):
    """Project the six-qubit state onto one branch and repair it gate by gate."""
    prob, remainder = collapse_branch(assemble_total(state), o13, o26)
    op = table_lookup(state.scheme, o13, o26)[0]
    corrected = apply_correction(remainder, op)
    return Branch(prob, corrected, fidelity(target_state(state), corrected), op)


class Row(NamedTuple):
    """One branch row of an enumerate or sample report."""

    input_index: int
    outcome13: BellOutcome
    outcome26: BellOutcome
    probability: float
    fidelity: float
    correction: CorrectionOp
    state: str
    count: int | None


def report_rows(report):
    """The branch rows of a report, in report order, read from its
    [input][cell] results at the (input, cell) pairs of ``report.rows()``."""
    return [
        Row(
            k, *CELLS[b], report.probability[k][b], report.fidelity[k][b],
            report.corrections[b], report.state[k][b],
            None if report.count is None else report.count[b],
        )
        for k, b in report.rows()
    ]


def assert_row_matches(state, row):
    """A branch row (a ``Row`` or a JSON branch row with the same fields)
    agrees with ``run_branch``: probability and fidelity within 1e-14, the
    same correction and the same display form of the output."""
    dense = run_branch(state, row.outcome13, row.outcome26)
    assert abs(row.probability - dense.probability) <= 1e-14
    assert abs(row.fidelity - dense.fidelity) <= 1e-14
    assert str(row.correction) == str(dense.correction)
    assert row.state == format_state(dense.corrected_state)


def sample_counts(state, seed, trials):
    """Outcome-pair counts of ``trials`` dense Monte Carlo trials drawn from
    one default_rng([seed, 1]) stream: each trial samples (1, 3) and then
    (2, 6) from the six-qubit state, one uniform each."""
    total = assemble_total(state)
    rng = np.random.default_rng([seed, 1])
    counts = {(a, b): 0 for a in BELL_OUTCOMES for b in BELL_OUTCOMES}
    for _ in range(trials):
        o13, first = sample_bell(total, 1, 3, rng)
        o26, _ = sample_bell(first.remainder, 2, 6, rng)
        counts[(o13, o26)] += 1
    return counts


def _basis_inputs(scheme):
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    return [InputState(scheme, tuple(complex(i == j) for j in range(k))) for i in range(k)]


def scheme_probes(scheme, seed):
    """Seeded random inputs of the scheme plus every basis input."""
    rng = np.random.default_rng([seed, 2, int(scheme)])
    probes = [random_input(scheme, rng) for _ in range(N_RANDOM_PROBES)]
    return probes + _basis_inputs(scheme)


def subspace_probes(seed):
    """Arbitrary-scheme probes confined to the span of |00> and |11>."""
    rng = np.random.default_rng([seed, 2, 3])
    probes = []
    for _ in range(N_RANDOM_PROBES):
        a, d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        n = math.sqrt(abs(a) ** 2 + abs(d) ** 2)
        probes.append(InputState(Scheme.ARBITRARY, (a / n, 0j, 0j, d / n)))
    probes.append(InputState(Scheme.ARBITRARY, (1, 0, 0, 0)))
    probes.append(InputState(Scheme.ARBITRARY, (0, 0, 0, 1)))
    return probes


def pair_fidelities(o13, o26, probes, cz_first):
    """Worst fidelity over ``probes`` of every Pauli-pair repair of a branch."""
    worst = {(p4, p5): math.inf for p4 in PAULI_NAMES for p5 in PAULI_NAMES}
    for probe in probes:
        _, remainder = collapse_branch(assemble_total(probe), o13, o26)
        base = apply_cz(remainder, 4, 5) if cz_first else remainder
        target = target_state(probe)
        for p4 in PAULI_NAMES:
            after4 = base if p4 == "I" else apply_single(base, 4, PAULIS[p4])
            for p5 in PAULI_NAMES:
                out = after4 if p5 == "I" else apply_single(after4, 5, PAULIS[p5])
                worst[(p4, p5)] = min(worst[(p4, p5)], fidelity(target, out))
    return worst


def surviving_pairs(worst):
    """The Pauli pairs whose worst fidelity reaches 1 - SURVIVAL_TOL."""
    return {pair for pair, f in worst.items() if f >= 1.0 - SURVIVAL_TOL}
