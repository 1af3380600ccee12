"""Dense complex amplitude vectors over registers of labeled qubits.

A register is an ordered tuple of small positive integer labels, the
protocol's particle numbers.  Amplitudes are stored densely, one per
computational basis state.  The FIRST label owns the most significant bit
of the basis index, so a ket written ``|q_first ... q_last>`` lands at the
index its bit string spells in binary.

Every operation returns a new value; a StateVector is never mutated after
construction.  This is the dense reference's state layer; the display forms
live in ``floatpath``, and ``format_state`` is its ``format_states`` for one
vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floatpath import format_states


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over an ordered register of labeled qubits.

    ``labels`` holds distinct positive integers naming the qubits and
    ``amps`` one complex amplitude per basis state, ``2 ** len(labels)``
    in total.  The empty register (no labels, one amplitude) is legal; it
    is what survives once every qubit has been measured away.
    """

    labels: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(int(q) for q in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels: {labels}")
        if any(q < 1 for q in labels):
            raise ValueError(f"qubit labels must be positive integers: {labels}")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != 2 ** len(labels):
            raise ValueError(
                f"expected {2 ** len(labels)} amplitudes for {len(labels)} qubits, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amps", amps)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def position(self, label: int) -> int:
        """Index of ``label`` inside the register (0 = most significant bit)."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"qubit {label} not in register {self.labels}") from None


def _trusted(labels: tuple[int, ...], amps: np.ndarray) -> StateVector:
    """Internal factory for amplitudes this package just computed from an
    already-validated state; skips the constructor checks."""
    s = object.__new__(StateVector)
    amps.setflags(write=False)
    object.__setattr__(s, "labels", labels)
    object.__setattr__(s, "amps", amps)
    return s


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; ``a``'s qubits become the high bits."""
    shared = set(a.labels) & set(b.labels)
    if shared:
        raise ValueError(f"registers overlap on labels {sorted(shared)}")
    return StateVector(a.labels + b.labels, np.kron(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, insensitive to global phase, for registers
    listed in the same order."""
    if a.labels != b.labels:
        raise ValueError(f"register mismatch: {a.labels} vs {b.labels}")
    return float(abs(complex(np.vdot(a.amps, b.amps))) ** 2)


def relabel(s: StateVector, mapping: dict) -> StateVector:
    """Rename qubits without touching amplitudes, e.g. {1: 4, 2: 5}."""
    new = tuple(mapping.get(q, q) for q in s.labels)
    return StateVector(new, s.amps)


def format_state(s: StateVector) -> str:
    """Readable ket expansion: ``floatpath.format_states`` of the one vector
    ``s.amps``."""
    return format_states(s.amps)
