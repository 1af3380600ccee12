"""Dense complex amplitude vectors over registers of labeled qubits.

A register is an ordered tuple of small positive integer labels, the
protocol's particle numbers.  Amplitudes are stored densely, one per
computational basis state.  The FIRST label owns the most significant bit
of the basis index, so a ket written ``|q_first ... q_last>`` lands at the
index its bit string spells in binary.

Every operation returns a new value; a StateVector is never mutated after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Vectors whose norm falls below this cannot be normalized: asking for it
# means an impossible measurement branch escaped its caller.
ZERO_NORM_FLOOR = 1e-12


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


def basis_state(labels, bits) -> StateVector:
    """Computational basis ket |b_1 ... b_n> over the given labels."""
    labels = tuple(labels)
    bits = tuple(bits)
    if not labels:
        raise ValueError("a basis state needs at least one qubit")
    if len(labels) != len(bits):
        raise ValueError(f"{len(labels)} labels but {len(bits)} bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1: {bits}")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2 ** len(labels), dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(labels, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; ``a``'s qubits become the high bits."""
    shared = set(a.labels) & set(b.labels)
    if shared:
        raise ValueError(f"registers overlap on labels {sorted(shared)}")
    return StateVector(a.labels + b.labels, np.kron(a.amps, b.amps))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> for registers listed in the same order."""
    if a.labels != b.labels:
        raise ValueError(f"register mismatch: {a.labels} vs {b.labels}")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, insensitive to global phase, for registers
    listed in the same order."""
    return float(abs(inner(a, b)) ** 2)


def normalize(a: StateVector) -> StateVector:
    n = a.norm()
    if n <= ZERO_NORM_FLOOR:
        raise ValueError("cannot normalize a vector of (near-)zero norm")
    return StateVector(a.labels, a.amps / n)


def relabel(s: StateVector, mapping: dict) -> StateVector:
    """Rename qubits without touching amplitudes, e.g. {1: 4, 2: 5}."""
    new = tuple(mapping.get(q, q) for q in s.labels)
    return StateVector(new, s.amps)


def display_rotation(amps, tol: float = 1e-9):
    """Rotate each vector along the last axis of ``amps`` so that its first
    amplitude of modulus above ``tol`` is real and positive, to rounding.

    Returns ``(shown, above)``: the rotated stack and the mask of amplitudes
    above ``tol``.  A vector with nothing above ``tol`` is left as it is.
    The phase and the products are taken in real arithmetic, one correctly
    rounded operation each, so a vector rotates to the same bits on its own
    as inside any stack.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    mod = np.hypot(amps.real, amps.imag)
    above = mod > tol
    first = above.argmax(axis=-1)[..., None]
    lead = np.take_along_axis(amps, first, axis=-1)
    live = above.any(axis=-1, keepdims=True)
    r = np.where(live, np.take_along_axis(mod, first, axis=-1), 1.0)
    # multiply by conj(lead) / |lead|; a vector with no lead by 1
    c = np.where(live, lead.real / r, 1.0)
    s = np.where(live, -lead.imag / r, 0.0)
    shown = np.empty(amps.shape, dtype=np.complex128)
    shown.real = amps.real * c - amps.imag * s
    shown.imag = amps.real * s + amps.imag * c
    return shown, above


def _format_rotated(shown: np.ndarray, above: np.ndarray, tol: float, digits: int) -> str:
    """Ket expansion of one vector rotated by ``display_rotation``, a term
    for each amplitude where ``above`` holds."""
    nz = np.flatnonzero(above).tolist()
    if not nz:
        return "0"
    n_qubits = shown.size.bit_length() - 1
    vals = shown.tolist()
    terms = []
    for i in nz:
        c = vals[i]
        if abs(c.imag) <= tol:
            coeff = f"{c.real:.{digits}g}"
        elif abs(c.real) <= tol:
            coeff = f"{c.imag:.{digits}g}i"
        else:
            coeff = f"({c.real:.{digits}g}{c.imag:+.{digits}g}i)"
        bits = format(i, f"0{n_qubits}b") if n_qubits else ""
        terms.append(f"{coeff}|{bits}>")
    return " + ".join(terms)


def format_state(s: StateVector, tol: float = 1e-9, digits: int = 6) -> str:
    """Readable ket expansion for reports.

    Display only: the first amplitude above ``tol`` is rotated to be real
    and positive (``display_rotation``) so equivalent states print
    identically; amplitudes at or below ``tol`` are left out, and a state
    with none above it prints as ``0``.
    """
    shown, above = display_rotation(s.amps, tol)
    return _format_rotated(shown, above, tol, digits)


def format_states(amps, tol: float = 1e-9, digits: int = 6):
    """``format_state`` of every vector along the last axis of ``amps``, as
    nested lists shaped like the leading axes.

    The whole stack is rotated at once, and each distinct rotated vector is
    formatted once, keyed on the bytes of the vector and its mask: equal
    keys give equal strings, so every entry is byte for byte the string
    ``format_state`` gives for that vector alone.
    """
    shown, above = display_rotation(amps, tol)
    n = shown.shape[-1]
    rows = shown.reshape(-1, n)
    masks = np.ascontiguousarray(above.reshape(-1, n))
    raw = np.hstack((rows.view(np.uint8), masks.view(np.uint8)))
    data, width = raw.tobytes(), raw.shape[1]
    memo = {}
    texts = []
    for k in range(len(rows)):
        key = data[k * width:(k + 1) * width]
        text = memo.get(key)
        if text is None:
            text = memo[key] = _format_rotated(rows[k], masks[k], tol, digits)
        texts.append(text)
    return np.array(texts, dtype=object).reshape(shown.shape[:-1]).tolist()
