"""Dense per-branch brute force, kept in the tests as the reference that the
exact branch-map derivation is compared against.

Each probe input is assembled into the six-qubit state, projected onto one
branch and repaired gate by gate, so nothing here reads ``branch_maps``.
"""

import math

import numpy as np

from clusterport import (
    InputState,
    Scheme,
    apply_cz,
    apply_single,
    assemble_total,
    collapse_branch,
    fidelity,
    random_input,
    target_state,
)
from clusterport.gates import PAULIS
from clusterport.protocol import CORRECTION_TOL, PAULI_NAMES

N_RANDOM_PROBES = 10


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
    """The Pauli pairs whose worst fidelity reaches 1 - CORRECTION_TOL."""
    return {pair for pair, f in worst.items() if f >= 1.0 - CORRECTION_TOL}
