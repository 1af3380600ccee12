"""The numpy-free exact core: the sign tables, the 16 integer branch maps,
the correction tables, the repaired maps and the repair certificate.

Every 4K is a signed permutation, and a repair (a Pauli pair, after a
controlled-phase for scheme 2) is monomial with phases in {1, -1, i, -i}:
Clifford/Pauli structure (Gottesman, quant-ph/9807006).  So deriving and
verifying the tables needs Python integers only, and a ``derive`` or
``verify`` run never loads numpy.  A repair's action is defined here alone
(``_pair_action`` and ``_CZ_DIAG``): ``repaired_map`` forms R 4K as the
Gaussian-integer map that ``floatpath`` applies in ``enumerate`` and
``sample``, once per class of maps equal up to a unit phase on the
scheme's inputs (``_phase_classes``), and ``certified_repairs`` forms the
same entries inline, for every Pauli pair of every cell, stopping at a
pair's first wrong entry: a cold ``derive`` pays for 256 candidates, where
building each whole map through ``repaired_map``'s cache cost about ten
times as much.

The records here and in ``harness`` are named tuples (``_record``): those
with a ``__new__`` validate there, ``_replace`` included, and ``Report``
takes its defaults from its record.  They load nothing beyond
``collections``, where dataclasses would load ``inspect``, ``ast`` and ``dis``.

Particle numbering and the channel are described in ``protocol``.  A
register of two particles is indexed 2a + b, the first particle owning the
more significant bit.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import namedtuple

COEFF_TOL = 1e-9
PAULI_NAMES = ("I", "X", "Y", "Z")
# Every Pauli pair (p4, p5), p4 major: the order of every certificate row.
PAULI_PAIRS = tuple(itertools.product(PAULI_NAMES, repeat=2))


class Scheme(enum.IntEnum):
    """Input family a run teleports."""

    SPECIAL = 1      # restricted to the span of |00> and |11>
    ARBITRARY = 2    # any normalized two-qubit state


class BellOutcome(enum.Enum):
    """The four Bell states of an ordered qubit pair (a, b)."""

    PHI_PLUS = "Phi+"    # (|00> + |11>)/sqrt(2)
    PHI_MINUS = "Phi-"   # (|00> - |11>)/sqrt(2)
    PSI_PLUS = "Psi+"    # (|01> + |10>)/sqrt(2)
    PSI_MINUS = "Psi-"   # (|01> - |10>)/sqrt(2)


BELL_OUTCOMES = tuple(BellOutcome)

# sqrt(2) times the coefficient of |i>_a |j>_b in each Bell ket, indexed
# [k][i][j] for BELL_OUTCOMES[k]: the one definition of the Bell basis.
BELL_SIGNS = (((1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, 1), (-1, 0)))

# Twice the channel amplitude of |c d e f> on (3, 4, 5, 6), indexed
# [c][d][e][f]: the one definition of the cluster channel.
CLUSTER_SIGNS = (
    (((1, 0), (0, 1)), ((0, 0), (0, 0))),
    (((0, 0), (0, 0)), ((1, 0), (0, -1))),
)

# The controlled-phase on (4, 5), a diagonal over |00>, |01>, |10>, |11>.
_CZ_DIAG = (1, 1, 1, -1)

# Each Pauli as a monomial: P|b> = phases[b] |b xor flip>.
_PAULI_ACTIONS = {"I": (0, (1, 1)), "X": (1, (1, 1)), "Y": (1, (1j, -1j)), "Z": (0, (1, -1))}
# The basis inputs of each scheme, as indices over |00>, |01>, |10>, |11>:
# the one definition of the states a scheme's input spans.
_BASIS_INPUTS = {Scheme.SPECIAL: (0, 3), Scheme.ARBITRARY: (0, 1, 2, 3)}


def _record(typename: str, field_names: str, defaults=None) -> type:
    """A named-tuple class whose ``_make``, and so ``_replace``, builds
    through the subclass's ``__new__``: a record validates however it is
    built.  ``defaults`` are those of the last fields, as ``namedtuple``
    takes them, for a record with no ``__new__`` of its own."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def _norm(coeffs) -> float:
    """Euclidean norm; math.hypot neither overflows nor underflows midway."""
    return math.hypot(*(x for c in coeffs for x in (c.real, c.imag)))


class InputState(_record("InputState", "scheme coeffs")):
    """Coefficients of the unknown state handed to the sender, one for each
    basis input of its scheme (``_BASIS_INPUTS``), in that order.

    Scheme.SPECIAL carries (alpha, delta) for alpha|00> + delta|11>;
    Scheme.ARBITRARY carries (alpha, beta, gamma, delta) for the full
    expansion over |00>, |01>, |10>, |11>.  Coefficients must already be
    normalized; see ``renormalized`` for unscaled input.
    """

    __slots__ = ()

    def __new__(cls, scheme: Scheme, coeffs) -> "InputState":
        scheme = Scheme(scheme)
        coeffs = tuple(complex(c) for c in coeffs)
        expected = len(_BASIS_INPUTS[scheme])
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
        return tuple.__new__(cls, (scheme, coeffs))

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
    def amps(self) -> tuple[complex, ...]:
        """Amplitudes over |00>, |01>, |10>, |11> of particles (1, 2): the
        coefficients on the scheme's basis inputs, 0 on the others."""
        amps = dict(zip(_BASIS_INPUTS[self.scheme], self.coeffs))
        return tuple(amps.get(i, 0j) for i in range(4))


class CorrectionOp(_record("CorrectionOp", "p4 p5 cz_first")):
    """Feed-forward repair of one branch: optional CZ(4,5), then one Pauli
    on each output qubit.  Prints as e.g. ``IZ`` or ``CZ+IZ`` with the
    first letter acting on particle 4 and the second on particle 5."""

    __slots__ = ()

    def __new__(cls, p4: str, p5: str, cz_first: bool = False) -> "CorrectionOp":
        for p in (p4, p5):
            if p not in PAULI_NAMES:
                raise ValueError(f"unknown Pauli label {p!r}")
        return tuple.__new__(cls, (p4, p5, cz_first))

    def __str__(self) -> str:
        pair = f"{self.p4}{self.p5}"
        return f"CZ+{pair}" if self.cz_first else pair


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
# these shared (frozen) ops.  A cell is keyed by its outcomes' values, so a
# lookup hashes two strings, not two members (an enum's hash is a Python
# method).
_TABLE_REPAIRS = {
    scheme: {
        (o13.value, o26.value): tuple(
            CorrectionOp(p4, p5, cz_first=scheme is Scheme.ARBITRARY) for p4, p5 in pairs
        )
        for (o13, o26), pairs in table.items()
    }
    for scheme, table in ((Scheme.SPECIAL, _TABLE1), (Scheme.ARBITRARY, _TABLE2))
}


def table_lookup(scheme: Scheme, o13: BellOutcome, o26: BellOutcome) -> list[CorrectionOp]:
    """The built-in correction(s) for one branch, first entry preferred."""
    try:
        table = _TABLE_REPAIRS[scheme]  # a Scheme or its int value, with no conversion
    except (KeyError, TypeError):
        table = _TABLE_REPAIRS[Scheme(scheme)]  # which raises for no scheme
    return list(table[o13._value_, o26._value_])


@functools.cache
def branch_maps() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """4K for the 16 branches in cell order, the (1, 3) outcome major: each
    a 4x4 integer matrix, a tuple of rows, from the input on (1, 2) to the
    uncorrected output on (4, 5).

    Entry [2d + e][2a + b] of the branch (BELL_OUTCOMES[i], BELL_OUTCOMES[j])
    sums BELL_SIGNS[i][a][c] BELL_SIGNS[j][b][f] CLUSTER_SIGNS[c][d][e][f]
    over c and f: the Bell bras on (1, 3) and (2, 6) against the channel.
    Nothing is read from the tables or simulated.  Contracted once per
    process from the sign tables as they are at the first call.
    """
    bell, channel = BELL_SIGNS, CLUSTER_SIGNS
    bits = (0, 1)
    return tuple(
        tuple(
            tuple(
                sum(bell[i][a][c] * bell[j][b][f] * channel[c][d][e][f] for c in bits for f in bits)
                for a in bits for b in bits
            )
            for d in bits for e in bits
        )
        for i in range(4) for j in range(4)
    )


def _pair_action(p4: str, p5: str):
    """The Pauli pair as a monomial on (4, 5): (flip, phases) with
    P|x> = phases[x] |x xor flip> for x over |00>, |01>, |10>, |11>."""
    f4, ph4 = _PAULI_ACTIONS[p4]
    f5, ph5 = _PAULI_ACTIONS[p5]
    return 2 * f4 + f5, tuple(ph4[x >> 1] * ph5[x & 1] for x in range(4))


@functools.cache
def repaired_map(op: CorrectionOp, cell: int) -> tuple[tuple[complex, ...], ...]:
    """R 4K for the repair ``op`` of branch ``cell`` (cell order, the (1, 3)
    outcome major): the Pauli pair R, after the controlled-phase when
    ``op.cz_first``, times the integer map, as rows of Gaussian integers.
    R sends row x of the CZ step times 4K to row x xor flip, times
    phases[x] (``_pair_action``), so nothing is summed.  Built once per process for
    each argument pair from the constants as they are at that call."""
    flip, phases = _pair_action(op.p4, op.p5)
    diag = _CZ_DIAG if op.cz_first else (1, 1, 1, 1)
    k = branch_maps()[cell]
    return tuple(
        tuple(phases[x] * diag[x] * v for v in k[x]) for x in (y ^ flip for y in range(4))
    )


def _phase_classes(maps, cols):
    """Sort the repaired maps ``maps`` (``repaired_map``) into classes: two
    share one when, restricted to the columns ``cols``, they differ only by
    a unit phase in {1, -1, i, -i}.  ``(classes, index, phases)``: each
    class's map, zero outside ``cols`` and times the unit u that puts its
    first nonzero entry on ``cols`` in the quarter-plane re > 0, im >= 0 (u
    = 1 for a map zero there), classes in order of first appearance; then
    the class of each map, and its phase 1/u: each map is its phase times
    its class's on ``cols``.  Exact: Gaussian integers, compared for
    equality, read from the maps alone, so a changed table or constant
    shows in the classes and no certificate is trusted."""
    classes, cells = {}, []
    for m in maps:
        lead = next((row[j] for row in m for j in cols if row[j]), 1)
        u = next(u for u in (1, 1j, -1, -1j) if (z := lead * u).real > 0 and z.imag >= 0)
        key = tuple(tuple(x * u if j in cols else 0 for j, x in enumerate(row)) for row in m)
        cells.append((classes.setdefault(key, len(classes)), u.conjugate()))
    return list(classes), *zip(*cells)


@functools.cache
def certified_repairs(cz_first: bool, scheme: Scheme) -> tuple[tuple[CorrectionOp, ...], ...]:
    """The certified repairs of every branch, in cell order: each Pauli pair
    R (after the controlled-phase when ``cz_first``) with R 4K = c times the
    identity on the basis inputs of ``scheme``, c in {1, -1, i, -i}, so the
    repair restores every input of the scheme up to the phase c.  With the
    scheme's own CZ step this is the derived table, and an empty cell means
    a bug in the maps or the certificate, which callers report as a failed
    cell.  Built once per process for each argument pair."""
    cols = _BASIS_INPUTS[Scheme(scheme)]
    diag = _CZ_DIAG if cz_first else (1, 1, 1, 1)
    candidates = [
        (CorrectionOp(p4, p5, cz_first=cz_first), *_pair_action(p4, p5)) for p4, p5 in PAULI_PAIRS
    ]
    table = []
    for k in branch_maps():
        dk = [[d * x for x in row] for d, row in zip(diag, k)]  # the CZ step, then 4K
        cell = []
        for op, flip, phases in candidates:
            # R sends row x of dk to row x xor flip, times phases[x]; column
            # ``col`` must land on c |col> alone, c read off |00>
            c = phases[flip] * dk[flip][0]
            if c.real * c.real + c.imag * c.imag == 1 and all(
                phases[x] * dk[x][col] == (c if x ^ flip == col else 0)
                for col in cols for x in range(4)
            ):
                cell.append(op)
        table.append(tuple(cell))
    return tuple(table)
