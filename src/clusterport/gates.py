"""Single-qubit gates and the controlled-phase gate on labeled registers:
the dense reference's gate layer.

``PAULIS`` holds the four Paulis as literal matrices, a definition kept
apart from the monomials of ``exact``, so the dense reference and the
tests' float references check ``exact.repaired_map`` against Paulis that
``exact`` does not define.  Gates sweep index pairs of the dense amplitude array directly;
no 2^n operator matrix is ever built.
"""

from __future__ import annotations

import numpy as np

from .statevec import StateVector, _trusted

UNITARY_TOL = 1e-10

PAULIS: dict[str, np.ndarray] = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
for _m in PAULIS.values():
    _m.setflags(write=False)

# The Pauli constants are unitary by construction; skip re-checking
# them inside hot loops.
_PRECHECKED = {id(m) for m in PAULIS.values()}


def _bit_mask(s: StateVector, label: int) -> int:
    return 1 << (s.n_qubits - 1 - s.position(label))


def apply_single(s: StateVector, q: int, u) -> StateVector:
    """Apply a 2x2 unitary to qubit ``q``."""
    if id(u) not in _PRECHECKED:
        u = np.asarray(u, dtype=np.complex128)
        if u.shape != (2, 2):
            raise ValueError(f"single-qubit gate must be 2x2, got {u.shape}")
        if not np.allclose(u.conj().T @ u, np.eye(2), atol=UNITARY_TOL):
            raise ValueError("gate matrix is not unitary")
    mask = _bit_mask(s, q)
    idx = np.arange(s.amps.size)
    lo = idx[(idx & mask) == 0]
    hi = lo | mask
    a0, a1 = s.amps[lo], s.amps[hi]
    out = np.empty_like(s.amps)
    out[lo] = u[0, 0] * a0 + u[0, 1] * a1
    out[hi] = u[1, 0] * a0 + u[1, 1] * a1
    return _trusted(s.labels, out)


def apply_cz(s: StateVector, control: int, target: int) -> StateVector:
    """Controlled phase: negate amplitudes where both qubits are 1.

    Symmetric in its two arguments.
    """
    if control == target:
        raise ValueError("controlled-phase needs two distinct qubits")
    mc = _bit_mask(s, control)
    mt = _bit_mask(s, target)
    idx = np.arange(s.amps.size)
    both = ((idx & mc) != 0) & ((idx & mt) != 0)
    out = s.amps.copy()
    out[both] = -out[both]
    return _trusted(s.labels, out)
