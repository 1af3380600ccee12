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

The protocol is linear in the input, so each branch is a fixed 4x4 map K
from (1, 2) to (4, 5) (``branch_maps``), contracted exactly from the
integer sign tables of the channel and the Bell basis; 4K is a signed
permutation.  Every run mode evaluates these maps.  A repair R fixes a
branch exactly when R 4K is c times the identity on the scheme's inputs,
c in {1, -1, i, -i} (``certify``): that integer equality is how
``derive_corrections`` rediscovers the correction of any branch and how
``verify_tables`` checks the hard-coded tables instead of trusting them.
A certificate is one ``certify`` call on one stack that holds R 4K for all
16 branches times all 16 Pauli pairs (``_table_certificate``): deriving a
table takes one call, verifying it two, and nothing is kept between runs.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gates import PAULIS, apply_cz, apply_single
from .measurement import BELL_OUTCOMES, BELL_SIGNS, BellOutcome, project_bell
from .statevec import StateVector, relabel, tensor

INPUT_LABELS = (1, 2)
CHANNEL_LABELS = (3, 4, 5, 6)
OUTPUT_LABELS = (4, 5)

# The claim under test is that particles (4, 5) finish in the input state,
# so the input is relabeled onto the output particles before any comparison.
OUTPUT_RELABELING = {1: 4, 2: 5}

COEFF_TOL = 1e-9
PAULI_NAMES = ("I", "X", "Y", "Z")


class Scheme(enum.IntEnum):
    """Input family a run teleports."""

    SPECIAL = 1      # restricted to the span of |00> and |11>
    ARBITRARY = 2    # any normalized two-qubit state


def _norm(coeffs) -> float:
    """Euclidean norm; math.hypot neither overflows nor underflows midway."""
    return math.hypot(*(x for c in coeffs for x in (c.real, c.imag)))


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
        norm = _norm(coeffs)
        norm_sq = norm * norm
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
        top = max((max(abs(c.real), abs(c.imag)) for c in vals), default=0.0)
        if top == 0:
            raise ValueError("cannot renormalize all-zero coefficients")
        e = math.frexp(top)[1]  # exact scaling, so even a huge norm stays finite
        vals = [complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c in vals]
        n = _norm(vals)
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


# Twice the channel amplitude of |c d e f> on (3, 4, 5, 6), indexed
# [c, d, e, f]: the one definition of the cluster channel.
CLUSTER_SIGNS = np.array([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1]).reshape(2, 2, 2, 2)
CLUSTER_SIGNS.setflags(write=False)


def cluster_state() -> StateVector:
    """The four-qubit channel on particles (3, 4, 5, 6)."""
    return StateVector(CHANNEL_LABELS, CLUSTER_SIGNS.reshape(-1) / 2)


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


# The tables as repairs, built once: table_lookup hands out fresh lists of
# these shared (frozen) ops.
_TABLE_REPAIRS = {
    scheme: {
        cell: tuple(CorrectionOp(p4, p5, cz_first=scheme is Scheme.ARBITRARY) for p4, p5 in pairs)
        for cell, pairs in table.items()
    }
    for scheme, table in ((Scheme.SPECIAL, _TABLE1), (Scheme.ARBITRARY, _TABLE2))
}


def table_lookup(scheme: Scheme, o13: BellOutcome, o26: BellOutcome) -> list[CorrectionOp]:
    """The built-in correction(s) for one branch, first entry preferred."""
    return list(_TABLE_REPAIRS[Scheme(scheme)][(o13, o26)])


def random_input(scheme: Scheme, rng: np.random.Generator) -> InputState:
    """A normalized input with complex Gaussian coefficients."""
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    c /= np.linalg.norm(c)
    return InputState(scheme, tuple(complex(x) for x in c))


_PAULI_PAIRS = tuple((p4, p5) for p4 in PAULI_NAMES for p5 in PAULI_NAMES)
# kron(P4, P5) for each pair in _PAULI_PAIRS order (particle 4 is the more
# significant bit of every (4, 5) register), in one call to keep import cheap.
_PAULI_STACK = np.stack([PAULIS[name] for name in PAULI_NAMES])
_PAIR_OPS = np.einsum("aij,bkl->abikjl", _PAULI_STACK, _PAULI_STACK).reshape(16, 4, 4)
_CZ_DIAG = np.array([1, 1, 1, -1], dtype=np.complex128)
# Every candidate repair in _PAULI_PAIRS order, without and with the CZ step.
_PAIR_REPAIRS = {
    cz: tuple(CorrectionOp(p4, p5, cz_first=cz) for p4, p5 in _PAULI_PAIRS) for cz in (False, True)
}


@functools.cache
def branch_maps() -> np.ndarray:
    """The 16 branch maps, ``branch_maps()[i, j]`` for the outcomes
    (BELL_OUTCOMES[i], BELL_OUTCOMES[j]).

    Each is the 4x4 map K from the input on (1, 2) to the uncorrected output
    on (4, 5), unnormalized, so |K v|^2 is the branch probability of input
    v.  Contracting the cluster signs on (3, 4, 5, 6) with the Bell signs on
    (1, 3) and (2, 6) gives 4K in integers, every entry -1, 0 or 1; nothing
    is read from the tables or simulated.  Built once, shared read-only.
    """
    signs = np.einsum("iac,jbf,cdef->ijdeab", BELL_SIGNS, BELL_SIGNS, CLUSTER_SIGNS)
    maps = signs.reshape(4, 4, 4, 4) / 4 + 0j
    maps.setflags(write=False)
    return maps


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


def certify(products: np.ndarray, scheme: Scheme) -> np.ndarray:
    """For each matrix in the stack ``products`` (a repair times 4K, exact
    Gaussian integers), whether it sends every basis input of ``scheme`` to
    c times itself, c in {1, -1, i, -i}, with nothing leaking elsewhere:
    the repair restores every input of the scheme up to the phase c."""
    cols = [0, 3] if Scheme(scheme) is Scheme.SPECIAL else [0, 1, 2, 3]  # its basis inputs
    c = products[..., 0, 0]  # |00> is an input of both schemes
    scalar = (products[..., :, cols] == c[..., None, None] * np.eye(4)[:, cols]).all(axis=(-2, -1))
    return scalar & (c.real ** 2 + c.imag ** 2 == 1)


def _cell(o13: BellOutcome, o26: BellOutcome) -> int:
    """Index of a branch in cell order, the (1, 3) outcome major."""
    return 4 * BELL_OUTCOMES.index(o13) + BELL_OUTCOMES.index(o26)


def _repair_products(o13: BellOutcome, o26: BellOutcome, cz_first: bool) -> np.ndarray:
    """R 4K for one branch and each Pauli pair R in _PAULI_PAIRS order (after
    the controlled-phase when ``cz_first``), exact in Gaussian integers."""
    k = 4 * branch_maps()[BELL_OUTCOMES.index(o13), BELL_OUTCOMES.index(o26)]
    return _PAIR_OPS @ (_CZ_DIAG[:, None] * k if cz_first else k)


def pauli_pair_fidelities(o13: BellOutcome, o26: BellOutcome, inputs, cz_first: bool):
    """For each Pauli pair (p4, p5), its worst post-repair fidelity over
    ``inputs`` (amplitude vectors on (1, 2)) on one branch, after the
    controlled-phase when ``cz_first``."""
    fid = map_inputs(_repair_products(o13, o26, cz_first) / 4, inputs)[2]
    return dict(zip(_PAULI_PAIRS, fid.min(axis=0).tolist()))


def _table_certificate(cz_first: bool, scheme: Scheme) -> np.ndarray:
    """One ``certify`` call on the whole table: ``[cell, pair]`` says whether
    Pauli pair ``_PAULI_PAIRS[pair]`` (after the controlled-phase when
    ``cz_first``) repairs branch ``cell`` on ``scheme``.  The stack holds R 4K
    for all 16 branches times all 16 pairs."""
    k = 4 * branch_maps().reshape(16, 4, 4)
    if cz_first:
        k = _CZ_DIAG[:, None] * k
    # _PAIR_OPS @ k as one (64, 4) @ (4, 64) product, rows (pair, i) and
    # columns (cell, l), viewed as [cell, pair, i, l]
    products = _PAIR_OPS.reshape(64, 4) @ k.transpose(1, 0, 2).reshape(4, 64)
    return certify(products.reshape(16, 4, 16, 4).transpose(2, 0, 1, 3), scheme)


def _certified_pairs(o13: BellOutcome, o26: BellOutcome, cz_first: bool, scheme: Scheme):
    """The Pauli pairs (p4, p5) whose repair of one branch (after the
    controlled-phase when ``cz_first``) ``certify`` accepts on ``scheme``:
    one row of ``_table_certificate``."""
    ok = _table_certificate(cz_first, scheme)[_cell(o13, o26)]
    return [pair for pair, good in zip(_PAULI_PAIRS, ok) if good]


def _derived_table(scheme: Scheme) -> list[list[CorrectionOp]]:
    """The derived correction set of every branch, in cell order, from one
    certificate: every Pauli pair, with the CZ step fixed by the scheme,
    that is certified on the scheme's inputs and so exact for every one of
    them.  Every branch of both schemes has one; an empty set means a bug in
    the maps or the certificate, and callers report it as a failed cell."""
    scheme = Scheme(scheme)
    cz = scheme is Scheme.ARBITRARY
    ops = _PAIR_REPAIRS[cz]
    return [
        [op for op, good in zip(ops, row) if good]
        for row in _table_certificate(cz, scheme).tolist()
    ]


def derive_corrections(scheme: Scheme, o13: BellOutcome, o26: BellOutcome):
    """Derive the correction set for one branch: its cell of
    ``_derived_table``."""
    return _derived_table(scheme)[_cell(o13, o26)]


VERDICT_EXACT = "exact-up-to-global-phase"
VERDICT_SUBSPACE = "subspace-only"
VERDICT_MISMATCH = "mismatch"


@dataclass(frozen=True)
class TableEntry:
    """Comparison of one table cell against the derivation.

    ``verdict`` is exact-up-to-global-phase when every listed correction
    is certified on the scheme's own inputs, subspace-only when it only
    works on the |00>/|11> span, mismatch otherwise, and always when
    nothing is certified (``derived`` empty).  ``subspace_only``
    flags listed corrections that fail on arbitrary inputs even after CZ
    (populated for Scheme.SPECIAL, whose inputs never touch |01> or |10>).
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
    cz = scheme is Scheme.ARBITRARY
    cells = itertools.product(BELL_OUTCOMES, repeat=2)
    # the other certificate, after CZ: scheme-2 repairs on the |00>/|11>
    # span alone, scheme-1 repairs on every input
    others = _table_certificate(True, Scheme.SPECIAL if cz else Scheme.ARBITRARY).tolist()
    entries = []
    for (o13, o26), derived, other in zip(cells, _derived_table(scheme), others):
        derived = tuple(derived)
        listed = tuple(table_lookup(scheme, o13, o26))
        holds = [other[_PAULI_PAIRS.index((op.p4, op.p5))] for op in listed]
        if not derived:
            verdict = VERDICT_MISMATCH  # nothing certified: nothing to match
        elif all(op in derived for op in listed):
            verdict = VERDICT_EXACT
        elif cz and all(holds):
            verdict = VERDICT_SUBSPACE
        else:
            verdict = VERDICT_MISMATCH
        subspace = () if cz else tuple(op for op, ok in zip(listed, holds) if not ok)
        entries.append(TableEntry(o13, o26, derived, listed, verdict, subspace))
    return TableReport(scheme, tuple(entries))
