"""The two cluster-channel teleportation schemes: channel, branches,
branch maps and correction tables.

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

The protocol is linear in the input, so each branch is a fixed 4x4 map
from (1, 2) to (4, 5) (``branch_maps``, built once from the simulator),
and every run mode evaluates these maps instead of the six-qubit state.
``derive_corrections`` rediscovers the correction for any branch from that
map over the 16 Pauli pairs, exactly for every input of the scheme, which
is how ``verify_tables`` checks the hard-coded tables against the simulator
instead of trusting them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .gates import PAULIS, apply_cz, apply_single
from .measurement import BELL_OUTCOMES, BellOutcome, project_bell
from .statevec import StateVector, relabel, tensor

INPUT_LABELS = (1, 2)
CHANNEL_LABELS = (3, 4, 5, 6)
OUTPUT_LABELS = (4, 5)

# The claim under test is that particles (4, 5) finish in the input state,
# so the input is relabeled onto the output particles before any comparison.
OUTPUT_RELABELING = {1: 4, 2: 5}

COEFF_TOL = 1e-9
CORRECTION_TOL = 1e-10
PAULI_NAMES = ("I", "X", "Y", "Z")


class Scheme(enum.IntEnum):
    """Input family a run teleports."""

    SPECIAL = 1      # restricted to the span of |00> and |11>
    ARBITRARY = 2    # any normalized two-qubit state


@dataclass(frozen=True)
class InputState:
    """Coefficients of the unknown state handed to the sender.

    Scheme.SPECIAL carries (alpha, delta) for alpha|00> + delta|11>;
    Scheme.ARBITRARY carries (alpha, beta, gamma, delta) for the full
    expansion over |00>, |01>, |10>, |11>.  Coefficients must already be
    normalized; see ``renormalized`` for unscaled input.
    """

    scheme: Scheme
    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        scheme = Scheme(self.scheme)
        coeffs = tuple(complex(c) for c in self.coeffs)
        expected = 2 if scheme is Scheme.SPECIAL else 4
        if len(coeffs) != expected:
            raise ValueError(
                f"scheme {int(scheme)} takes {expected} coefficients, got {len(coeffs)}"
            )
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
            raise ValueError("coefficients must be finite")
        norm_sq = sum(abs(c) ** 2 for c in coeffs)
        if abs(norm_sq - 1.0) > COEFF_TOL:
            raise ValueError(f"coefficients not normalized: squared magnitudes sum to {norm_sq}")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def special(cls, alpha, delta) -> "InputState":
        return cls(Scheme.SPECIAL, (alpha, delta))

    @classmethod
    def arbitrary(cls, alpha, beta, gamma, delta) -> "InputState":
        return cls(Scheme.ARBITRARY, (alpha, beta, gamma, delta))

    @classmethod
    def renormalized(cls, scheme: Scheme, coeffs) -> "InputState":
        """Build an input after scaling the coefficients to unit norm."""
        vals = [complex(c) for c in coeffs]
        n = math.sqrt(sum(abs(c) ** 2 for c in vals))
        if n < 1e-12:
            raise ValueError("cannot renormalize all-zero coefficients")
        return cls(scheme, tuple(c / n for c in vals))

    @property
    def amps(self) -> np.ndarray:
        """Amplitudes over |00>, |01>, |10>, |11> of particles (1, 2)."""
        if self.scheme is Scheme.SPECIAL:
            alpha, delta = self.coeffs
            return np.array((alpha, 0j, 0j, delta))
        return np.array(self.coeffs, dtype=np.complex128)


@dataclass(frozen=True)
class CorrectionOp:
    """Feed-forward repair of one branch: optional CZ(4,5), then one Pauli
    on each output qubit.  Prints as e.g. ``IZ`` or ``CZ+IZ`` with the
    first letter acting on particle 4 and the second on particle 5."""

    p4: str
    p5: str
    cz_first: bool = False

    def __post_init__(self) -> None:
        for p in (self.p4, self.p5):
            if p not in PAULI_NAMES:
                raise ValueError(f"unknown Pauli label {p!r}")

    def __str__(self) -> str:
        pair = f"{self.p4}{self.p5}"
        return f"CZ+{pair}" if self.cz_first else pair

    def matrix(self) -> np.ndarray:
        """The repair as a 4x4 matrix on (4, 5): the Pauli pair after the
        optional controlled-phase."""
        m = _PAIR_OPS[_PAULI_PAIRS.index((self.p4, self.p5))]
        return m * _CZ_DIAG if self.cz_first else m


def cluster_state() -> StateVector:
    """The four-qubit channel on particles (3, 4, 5, 6)."""
    amps = np.zeros(16, dtype=np.complex128)
    amps[[0, 3, 12]] = 0.5
    amps[15] = -0.5
    return StateVector(CHANNEL_LABELS, amps)


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


_PHI_P, _PHI_M, _PSI_P, _PSI_M = BELL_OUTCOMES

# Built-in correction tables, keyed by (outcome on (1,3), outcome on (2,6)).
# Values are (p4, p5) pairs; a second pair is an equivalent alternative.
_TABLE1 = {
    (_PHI_P, _PHI_P): (("I", "Z"), ("Z", "I")),
    (_PHI_P, _PHI_M): (("I", "I"),),
    (_PHI_P, _PSI_P): (("I", "X"),),
    (_PHI_P, _PSI_M): (("I", "Y"), ("Z", "X")),
    (_PHI_M, _PHI_P): (("I", "I"),),
    (_PHI_M, _PHI_M): (("I", "Z"), ("Z", "I")),
    (_PHI_M, _PSI_P): (("I", "Y"), ("Z", "X")),
    (_PHI_M, _PSI_M): (("I", "X"),),
    (_PSI_P, _PHI_P): (("X", "I"),),
    (_PSI_P, _PHI_M): (("X", "Z"), ("Y", "I")),
    (_PSI_P, _PSI_P): (("X", "Y"), ("Y", "X")),
    (_PSI_P, _PSI_M): (("X", "X"),),
    (_PSI_M, _PHI_P): (("X", "Z"), ("Y", "I")),
    (_PSI_M, _PHI_M): (("X", "I"),),
    (_PSI_M, _PSI_P): (("X", "X"),),
    (_PSI_M, _PSI_M): (("X", "Y"), ("Y", "X")),
}
_TABLE2 = {
    (_PHI_P, _PHI_P): (("I", "I"),),
    (_PHI_P, _PHI_M): (("I", "Z"),),
    (_PHI_P, _PSI_P): (("I", "X"),),
    (_PHI_P, _PSI_M): (("I", "Y"),),
    (_PHI_M, _PHI_P): (("Z", "I"),),
    (_PHI_M, _PHI_M): (("Z", "Z"),),
    (_PHI_M, _PSI_P): (("Z", "X"),),
    (_PHI_M, _PSI_M): (("Z", "Y"),),
    (_PSI_P, _PHI_P): (("X", "I"),),
    (_PSI_P, _PHI_M): (("X", "Z"),),
    (_PSI_P, _PSI_P): (("X", "X"),),
    (_PSI_P, _PSI_M): (("X", "Y"),),
    (_PSI_M, _PHI_P): (("Y", "I"),),
    (_PSI_M, _PHI_M): (("Y", "Z"),),
    (_PSI_M, _PSI_P): (("Y", "X"),),
    (_PSI_M, _PSI_M): (("Y", "Y"),),
}


def table_lookup(scheme: Scheme, o13: BellOutcome, o26: BellOutcome) -> list[CorrectionOp]:
    """The built-in correction(s) for one branch, first entry preferred."""
    scheme = Scheme(scheme)
    table = _TABLE1 if scheme is Scheme.SPECIAL else _TABLE2
    cz = scheme is Scheme.ARBITRARY
    return [CorrectionOp(p4, p5, cz_first=cz) for p4, p5 in table[(o13, o26)]]


def random_input(scheme: Scheme, rng: np.random.Generator) -> InputState:
    """A normalized input with complex Gaussian coefficients."""
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    c /= np.linalg.norm(c)
    return InputState(scheme, tuple(complex(x) for x in c))


# Input families on (1, 2): the basis states plus (|00> + |j>)/sqrt(2) for
# j = 1..3, and |00>, |11> and their sum for the scheme-1 span.  A map that
# keeps each input of a family unchanged up to a scalar is that scalar times
# the identity on the family's span: the basis states force it diagonal, the
# superpositions with |00> force equal diagonal entries.
FULL_FAMILY = np.vstack([np.eye(4), (np.eye(4)[0] + np.eye(4)[1:]) / math.sqrt(2.0)])
SUBSPACE_FAMILY = FULL_FAMILY[[0, 3, 6]]
FULL_FAMILY.setflags(write=False)
SUBSPACE_FAMILY.setflags(write=False)

_PAULI_PAIRS = tuple((p4, p5) for p4 in PAULI_NAMES for p5 in PAULI_NAMES)
# kron(P4, P5) for each pair in _PAULI_PAIRS order (particle 4 is the more
# significant bit of every (4, 5) register), in one call to keep import cheap.
_PAULI_STACK = np.stack([PAULIS[name] for name in PAULI_NAMES])
_PAIR_OPS = np.einsum("aij,bkl->abikjl", _PAULI_STACK, _PAULI_STACK).reshape(16, 4, 4)
_CZ_DIAG = np.array([1, 1, 1, -1], dtype=np.complex128)


@functools.cache
def branch_maps() -> np.ndarray:
    """The 16 branch maps, ``branch_maps()[i, j]`` for the outcomes
    (BELL_OUTCOMES[i], BELL_OUTCOMES[j]).

    Each is the 4x4 map from the input on (1, 2) to the uncorrected output
    on (4, 5), unnormalized, so |K v|^2 is the branch probability of input
    v.  The protocol is linear in its input, so projecting the four basis
    inputs through the simulator fixes every map; nothing is read from the
    tables.  Built on first use and shared read-only afterwards.
    """
    maps = np.empty((4, 4, 4, 4), dtype=np.complex128)
    for col, basis in enumerate(np.eye(4)):
        total = assemble_total(InputState(Scheme.ARBITRARY, tuple(basis)))
        for i, o13 in enumerate(BELL_OUTCOMES):
            for j, o26 in enumerate(BELL_OUTCOMES):
                prob, remainder = collapse_branch(total, o13, o26)
                maps[i, j, :, col] = math.sqrt(prob) * remainder.amps
    maps.setflags(write=False)
    return maps


def map_inputs(maps: np.ndarray, inputs):
    """Apply every 4x4 map M in the stack ``maps`` to every amplitude vector
    v on (1, 2) in ``inputs``: ``(out, fid)`` with ``out[n, p]`` = M_p v_n and
    ``fid[n, p]`` the fidelity of that output, normalized, against v_n."""
    v = np.asarray(inputs, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] != 4:
        raise ValueError("inputs must be a non-empty list of 4-amplitude vectors")
    out = np.einsum("pij,nj->npi", maps, v)
    overlap = np.abs(np.einsum("ni,npi->np", v.conj(), out)) ** 2
    return out, overlap / np.linalg.norm(out, axis=2) ** 2


def worst_fidelities(maps: np.ndarray, inputs) -> np.ndarray:
    """For each 4x4 map M in the stack ``maps``, the minimum over ``inputs``
    (amplitude vectors on (1, 2)) of the fidelity between M v and v."""
    fid = map_inputs(maps, inputs)[1] / np.linalg.norm(np.asarray(inputs), axis=1)[:, None] ** 2
    return fid.min(axis=0)


def pauli_pair_fidelities(o13: BellOutcome, o26: BellOutcome, inputs, cz_first: bool):
    """Worst-case fidelity of every Pauli-pair repair for one branch.

    ``inputs`` holds amplitude vectors on (1, 2).  For each candidate
    (p4, p5) the value is the minimum, over those inputs, of the
    post-repair fidelity against the input.  With ``cz_first`` the
    controlled-phase runs before the Pauli pair.
    """
    k = branch_maps()[BELL_OUTCOMES.index(o13), BELL_OUTCOMES.index(o26)]
    if cz_first:
        k = _CZ_DIAG[:, None] * k
    return dict(zip(_PAULI_PAIRS, worst_fidelities(_PAIR_OPS @ k, inputs).tolist()))


def derive_corrections(scheme: Scheme, o13: BellOutcome, o26: BellOutcome):
    """Derive the correction set for one branch.

    Enumerates all 16 Pauli pairs (with the CZ step fixed by the scheme)
    and keeps those whose worst fidelity over the scheme's input family
    reaches 1 - CORRECTION_TOL, which makes them exact for every input of
    the scheme.  An empty result cannot come from a bad branch, only from a
    bug, so it raises instead of returning.
    """
    scheme = Scheme(scheme)
    cz = scheme is Scheme.ARBITRARY
    family = SUBSPACE_FAMILY if scheme is Scheme.SPECIAL else FULL_FAMILY
    worst = pauli_pair_fidelities(o13, o26, family, cz_first=cz)
    found = [
        CorrectionOp(p4, p5, cz_first=cz)
        for (p4, p5), f in worst.items()
        if f >= 1.0 - CORRECTION_TOL
    ]
    if not found:
        raise RuntimeError(
            f"no Pauli-pair repair found for branch ({o13.value}, {o26.value}); simulator bug"
        )
    return found


VERDICT_EXACT = "exact-up-to-global-phase"
VERDICT_SUBSPACE = "subspace-only"
VERDICT_MISMATCH = "mismatch"


@dataclass(frozen=True)
class TableEntry:
    """Comparison of one table cell against the derivation.

    ``verdict`` is exact-up-to-global-phase when every listed correction
    is rediscovered on the scheme's own input family, subspace-only when it
    only works on the |00>/|11> span, mismatch otherwise.
    ``subspace_only`` flags listed corrections that stop working on
    arbitrary inputs even with the CZ step included (populated for
    Scheme.SPECIAL, whose own inputs never exercise |01> or |10>).
    """

    outcome13: BellOutcome
    outcome26: BellOutcome
    derived: tuple[CorrectionOp, ...]
    listed: tuple[CorrectionOp, ...]
    verdict: str
    subspace_only: tuple[CorrectionOp, ...] = ()


@dataclass(frozen=True)
class TableReport:
    scheme: Scheme
    entries: tuple[TableEntry, ...]

    @property
    def all_exact(self) -> bool:
        return all(e.verdict == VERDICT_EXACT for e in self.entries)


def verify_tables(scheme: Scheme) -> TableReport:
    """Check every cell of the scheme's correction table against derivation."""
    scheme = Scheme(scheme)
    entries = []
    for o13 in BELL_OUTCOMES:
        for o26 in BELL_OUTCOMES:
            derived = tuple(derive_corrections(scheme, o13, o26))
            listed = tuple(table_lookup(scheme, o13, o26))
            if all(op in derived for op in listed):
                verdict = VERDICT_EXACT
            elif scheme is Scheme.ARBITRARY:
                w = pauli_pair_fidelities(o13, o26, SUBSPACE_FAMILY, cz_first=True)
                ok = all(w[(op.p4, op.p5)] >= 1.0 - CORRECTION_TOL for op in listed)
                verdict = VERDICT_SUBSPACE if ok else VERDICT_MISMATCH
            else:
                verdict = VERDICT_MISMATCH
            subspace = ()
            if scheme is Scheme.SPECIAL:
                w_full = pauli_pair_fidelities(o13, o26, FULL_FAMILY, cz_first=True)
                subspace = tuple(
                    op for op in listed if w_full[(op.p4, op.p5)] < 1.0 - CORRECTION_TOL
                )
            entries.append(TableEntry(o13, o26, derived, listed, verdict, subspace))
    return TableReport(scheme, tuple(entries))
