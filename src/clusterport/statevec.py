"""Dense complex amplitude vectors over registers of labeled qubits.

A register is an ordered tuple of small positive integer labels, the
protocol's particle numbers.  Amplitudes are stored densely, one per
computational basis state.  The FIRST label owns the most significant bit
of the basis index, so a ket written ``|q_first ... q_last>`` lands at the
index its bit string spells in binary.

Every operation returns a new value; a StateVector is never mutated after
construction.

Display forms are made for whole stacks of amplitude vectors at once:
``format_states`` rotates the stack in one array pass and formats each
distinct vector once; ``format_state`` is that call for one vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Display forms leave out amplitudes of modulus at or below this.
DISPLAY_TOL = 1e-9


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


def display_rotation(amps):
    """Rotate each vector along the last axis of ``amps`` so that its first
    amplitude of modulus above ``DISPLAY_TOL`` is real and positive, to
    rounding.

    Returns ``(shown, above)``: the rotated stack and the mask of amplitudes
    above ``DISPLAY_TOL``.  A vector with nothing above it is left as it is.
    The phase and the products are taken in real arithmetic, one correctly
    rounded operation each, so a vector rotates to the same bits on its own
    as inside any stack.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    mod = np.hypot(amps.real, amps.imag)
    above = mod > DISPLAY_TOL
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


def format_state(s: StateVector) -> str:
    """Readable ket expansion for reports: ``format_states`` of the one
    vector ``s.amps``."""
    return format_states(s.amps)


def _ket(vals, mask, labels) -> str:
    """The ket expansion of one rotated vector: a term for each amplitude
    where ``mask`` holds, at 6 significant digits, or ``0`` if none."""
    terms = []
    for c, shown, bits in zip(vals, mask, labels):
        if not shown:
            continue
        if abs(c.imag) <= DISPLAY_TOL:
            coeff = f"{c.real:.6g}"
        elif abs(c.real) <= DISPLAY_TOL:
            coeff = f"{c.imag:.6g}i"
        else:
            coeff = f"({c.real:.6g}{c.imag:+.6g}i)"
        terms.append(f"{coeff}|{bits}>")
    return " + ".join(terms) or "0"


def format_states(amps):
    """The readable ket expansion of every vector along the last axis of
    ``amps``, as nested lists shaped like the leading axes (a string for
    one vector).

    Display only: each vector is rotated so that its first amplitude above
    ``DISPLAY_TOL`` is real and positive (``display_rotation``), so
    equivalent states print identically; amplitudes at or below it are left
    out, and a vector with none above it prints as ``0``.  The whole stack
    is rotated at once, and each distinct rotated vector, found by one
    ``np.unique`` over the bytes of the first of each run of equal ones, is
    formatted once: equal bytes give equal strings, so an entry does not
    depend on the stack around it.  The left-out amplitudes are zeroed
    first, so vectors that differ only there (a sign bit, rounding dust)
    share one key.
    """
    shown, above = display_rotation(amps)
    n = shown.shape[-1]
    rows, masks = shown.reshape(-1, n), above.reshape(-1, n)
    np.putmask(rows, ~masks, 0)  # in place: rows is a view of our own array
    # an amplitude above DISPLAY_TOL is not 0, so the zeroed row is its key;
    # a repaired stack repeats each input's row along its cells, and only
    # the head of each run of equal rows is sorted
    words = rows.view(np.uint64)
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (words[1:] != words[:-1]).any(axis=1)
    rows, masks = rows[head], masks[head]
    _, first, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.itemsize * n))).ravel(),
        return_index=True, return_inverse=True,
    )
    n_qubits = n.bit_length() - 1
    labels = [format(i, f"0{n_qubits}b") if n_qubits else "" for i in range(n)]
    texts = [
        _ket(vals, mask, labels) for vals, mask in zip(rows[first].tolist(), masks[first].tolist())
    ]
    # flattened: the shape of the inverse has varied between numpy versions
    runs = inverse.reshape(-1)[head.cumsum() - 1]
    return np.array(texts, dtype=object)[runs].reshape(shown.shape[:-1]).tolist()
