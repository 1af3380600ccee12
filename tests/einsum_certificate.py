"""The repair certificate as complex-array products, kept in the tests as a
second reference for ``exact.certified_repairs`` and ``exact.repaired_map``.

It multiplies every Pauli pair, built as a Kronecker product of the dense
reference's ``gates.PAULIS``, into the float branch maps of every cell and
tests each product for c times the identity on the scheme's basis inputs.
It shares only the sign tables and the CZ diagonal with the exact core,
read at call time, so a mutated constant reaches both, and none of the
monomials ``exact`` builds its repairs from.
"""

import numpy as np

from clusterport import exact
from clusterport.exact import PAULI_NAMES, PAULI_PAIRS, Scheme
from clusterport.gates import PAULIS

# kron(P4, P5) for each pair in PAULI_PAIRS order (particle 4 is the more
# significant bit of every (4, 5) register).
_PAULI_STACK = np.stack([PAULIS[name] for name in PAULI_NAMES])
PAIR_OPS = np.einsum("aij,bkl->abikjl", _PAULI_STACK, _PAULI_STACK).reshape(16, 4, 4)


def branch_maps() -> np.ndarray:
    """The 16 branch maps K as floats, ``branch_maps()[i, j]`` for the
    outcomes (BELL_OUTCOMES[i], BELL_OUTCOMES[j]): the integer maps 4K of
    ``exact.branch_maps`` over 4, built afresh at each call."""
    return np.array(exact.branch_maps()).reshape(4, 4, 4, 4) / 4 + 0j


def repair_matrices(ops) -> np.ndarray:
    """The repairs ``ops`` as a stack of 4x4 matrices on (4, 5), from
    ``PAIR_OPS``: each Pauli pair after its optional controlled-phase."""
    m = PAIR_OPS[[PAULI_PAIRS.index((op.p4, op.p5)) for op in ops]]
    with_cz = np.array([op.cz_first for op in ops], dtype=bool)
    m[with_cz] *= np.array(exact._CZ_DIAG, dtype=np.complex128)
    return m


def certify(products: np.ndarray, scheme: Scheme) -> np.ndarray:
    """For each matrix in the stack ``products`` (a repair times 4K, exact
    Gaussian integers), whether it sends every basis input of ``scheme`` to
    c times itself, c in {1, -1, i, -i}, with nothing leaking elsewhere."""
    cols = [0, 3] if Scheme(scheme) is Scheme.SPECIAL else [0, 1, 2, 3]  # its basis inputs
    c = products[..., 0, 0]  # |00> is an input of both schemes
    scalar = (products[..., :, cols] == c[..., None, None] * np.eye(4)[:, cols]).all(axis=(-2, -1))
    return scalar & (c.real ** 2 + c.imag ** 2 == 1)


def repair_stack(cz_first: bool) -> np.ndarray:
    """R 4K for every branch and Pauli pair R (after the controlled-phase when
    ``cz_first``), a (16, 16, 4, 4) stack of exact Gaussian integers indexed
    [cell, pair] in cell and ``PAULI_PAIRS`` order."""
    k = 4 * branch_maps().reshape(16, 4, 4)
    if cz_first:
        k = np.array(exact._CZ_DIAG, dtype=np.complex128)[:, None] * k
    # PAIR_OPS @ k as one (64, 4) @ (4, 64) product, rows (pair, i) and
    # columns (cell, l), viewed as [cell, pair, i, l]
    products = PAIR_OPS.reshape(64, 4) @ k.transpose(1, 0, 2).reshape(4, 64)
    return products.reshape(16, 4, 16, 4).transpose(2, 0, 1, 3)


def certified_pairs(cz_first: bool, scheme: Scheme) -> list[set]:
    """The (p4, p5) pairs the certificate accepts, one set per cell."""
    return [
        {pair for pair, good in zip(PAULI_PAIRS, row) if good}
        for row in certify(repair_stack(cz_first), scheme).tolist()
    ]
