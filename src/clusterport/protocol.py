"""The two cluster-channel teleportation schemes: the channel, the float
branch maps and repairs that ``enumerate`` and ``sample`` apply, and the
dense six-qubit reference.

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
permutation.  Every mode reads these maps: ``derive`` and ``verify`` as the
integers of ``exact.branch_maps``, through the certificate
``exact.certified_repairs``, and ``enumerate`` and ``sample`` as the float
maps here.  A repair's matrix is formed in one place, ``repair_matrices``,
from ``gates.PAULIS`` and the CZ diagonal of ``exact``, read at call time;
``repair_branches`` multiplies the 16 repairs into the maps and applies
them to every input with ``map_inputs``, and ``random_inputs`` draws the
seeded inputs of a run in one batch: input n still reads its own stream
``default_rng([seed, 0, n])``, but from ``BATCH_HASH_MIN`` inputs up the
SeedSequence hash that seeds those streams runs for every n in one array
pass, to the same bits; it returns one array of coefficient rows, normed
and checked (``check_coeffs``) at once.  Everything else here is the
dense six-qubit reference the tests check the maps against.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import exact
from .exact import (
    BELL_OUTCOMES,
    COEFF_TOL,
    PAULI_NAMES,
    PAULI_PAIRS,
    BellOutcome,
    CorrectionOp,
    InputState,
    Scheme,
)
from .gates import PAULIS, apply_cz, apply_single
from .measurement import project_bell
from .statevec import StateVector, format_states, relabel, tensor

INPUT_LABELS = (1, 2)
CHANNEL_LABELS = (3, 4, 5, 6)

# The claim under test is that particles (4, 5) finish in the input state,
# so the input is relabeled onto the output particles before any comparison.
OUTPUT_RELABELING = {1: 4, 2: 5}


def cluster_state() -> StateVector:
    """The four-qubit channel on particles (3, 4, 5, 6)."""
    return StateVector(CHANNEL_LABELS, np.reshape(exact.CLUSTER_SIGNS, -1) / 2)


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


def _row_norms(c: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of ``c`` to the same bits: its sqrt(re.re +
    im.im) rounds as a stacked matmul does, not as einsum or a sum does."""
    re, im = c.real, c.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).ravel())


def check_coeffs(c: np.ndarray) -> np.ndarray:
    """The coefficient rows ``c``, after InputState's checks on every row at
    once: each part finite, each squared norm within COEFF_TOL of 1."""
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    sq = _row_norms(c) ** 2
    off = np.abs(sq - 1.0) > COEFF_TOL
    if off.any():
        raise ValueError(f"coefficients not normalized: squared magnitudes sum to {sq[off][0]}")
    return c


def _unit_coeffs(x: np.ndarray) -> np.ndarray:
    """Each row of ``x``, its k real parts then its k imaginary parts, as k
    complex coefficients scaled to unit norm, the same bits in any batch."""
    k = x.shape[1] // 2
    c = x[:, :k] + 1j * x[:, k:]
    c /= _row_norms(c)[:, None]
    return c


def random_input(scheme: Scheme, rng) -> InputState:
    """A normalized input with complex Gaussian coefficients: the real parts
    and then the imaginary parts, in one draw from ``rng``, a Generator or
    a seed that ``np.random.default_rng`` takes."""
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    x = np.random.default_rng(rng).standard_normal((1, 2 * k))
    return InputState(scheme, tuple(_unit_coeffs(x)[0].tolist()))


# numpy's SeedSequence (NEP 19), after O'Neill's seed_seq_fe: the entropy
# words are hashed into a pool of 4 uint32 words with the running multiplier
# INIT_A, MULT_A and then mixed pairwise; generate_state hashes the pool,
# cycled, with INIT_B, MULT_B.  Each hash XORs the multiplier, advances it
# and multiplies by the new value, so the constants of every hash are fixed:
# 4 + 12 for the pool, 8 for the 4 uint64 words PCG64 asks for.
_POOL_SIZE = 4
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int):
    """The (xor, multiply) pairs of ``count`` successive hashes, as uint32
    columns."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h[:-1], dtype=np.uint32)[:, None], np.array(h[1:], dtype=np.uint32)[:, None]


_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_OTHER_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != src]) for src in range(_POOL_SIZE)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul  # uint32 arrays wrap without a warning
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _substream_states(seed: int, count: int) -> np.ndarray:
    """``SeedSequence([seed, 0, n]).generate_state(4, np.uint64)`` for n in
    range(count), as the rows of one array, hashed for every n at once."""
    # the entropy words: 1 or 2 for the seed, then 0, then n
    assert 0 <= seed < 2**64 and count <= 2**32, "[seed, 0, n] must fit the pool of 4 words"
    hi, lo = divmod(seed, 2**32)
    head = [lo, hi, 0] if hi else [lo, 0]
    pool = np.zeros((_POOL_SIZE, count), dtype=np.uint32)  # a short entropy hashes zeros
    pool[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    pool[len(head)] = np.arange(count, dtype=np.uint32)
    pool = _hashmix(pool, _POOL_XOR[:_POOL_SIZE], _POOL_MUL[:_POOL_SIZE])
    # each source word mixes into the other three; it does not change meanwhile
    for src, dst in enumerate(_OTHER_WORDS):
        k = _POOL_SIZE + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_XOR[k : k + 3], _POOL_MUL[k : k + 3]))
    words = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MUL)  # the pool, cycled
    # uint64 word j is uint32 words 2j (low) and 2j + 1, as SeedSequence reads them
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


class _Hashed(ISeedSequence):
    """A SeedSequence whose state words are already computed: PCG64 asks it
    for 4 uint64 words once, and seeds itself from them."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


# Below this many inputs numpy's own SeedSequence, once per input, costs
# less than the fixed cost of hashing every input's state in one pass.
BATCH_HASH_MIN = 6


def random_inputs(scheme: Scheme, seed: int, count: int) -> np.ndarray:
    """``random_input(scheme, [seed, 0, n]).coeffs`` for n in range(count),
    as the rows of one checked (count, k) array: each input's SeedSequence
    state seeds its own PCG64 stream to draw its row, and the rows are
    normalized and checked in one pass.  From BATCH_HASH_MIN inputs up, the
    states of every input are hashed in one pass; below, SeedSequence
    hashes each one, to the same bits."""
    k = 2 if Scheme(scheme) is Scheme.SPECIAL else 4
    x = np.empty((count, 2 * k))
    if count < BATCH_HASH_MIN:
        seeds = ([seed, 0, n] for n in range(count))
    else:
        seeds = map(_Hashed, _substream_states(seed, count))
    for row, seed_seq in zip(x, seeds):
        np.random.Generator(np.random.PCG64(seed_seq)).standard_normal(out=row)
    return check_coeffs(_unit_coeffs(x))


# kron(P4, P5) for each pair in PAULI_PAIRS order (particle 4 is the more
# significant bit of every (4, 5) register), in one call to keep import cheap.
_PAULI_STACK = np.stack([PAULIS[name] for name in PAULI_NAMES])
_PAIR_OPS = np.einsum("aij,bkl->abikjl", _PAULI_STACK, _PAULI_STACK).reshape(16, 4, 4)


def repair_matrices(ops) -> np.ndarray:
    """The repairs ``ops`` as a stack of 4x4 matrices on (4, 5): each Pauli
    pair after its optional controlled-phase, whose diagonal is read from
    ``exact``."""
    m = _PAIR_OPS[[PAULI_PAIRS.index((op.p4, op.p5)) for op in ops]]
    with_cz = np.array([op.cz_first for op in ops], dtype=bool)
    m[with_cz] *= np.array(exact._CZ_DIAG, dtype=np.complex128)
    return m


def branch_maps() -> np.ndarray:
    """The 16 branch maps, ``branch_maps()[i, j]`` for the outcomes
    (BELL_OUTCOMES[i], BELL_OUTCOMES[j]).

    Each is the 4x4 map K from the input on (1, 2) to the uncorrected output
    on (4, 5), unnormalized, so |K v|^2 is the branch probability of input
    v: the integer maps 4K of ``exact.branch_maps`` over 4, built afresh at
    each call.
    """
    return np.array(exact.branch_maps()).reshape(4, 4, 4, 4) / 4 + 0j


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


def repair_branches(ops, scheme: Scheme, coeffs):
    """Every branch of every input, the coefficient rows ``coeffs`` of
    ``scheme``, after the repair ``ops`` lists for it, in cell order: the
    inputs as an array, then probabilities, fidelities (arrays) and display
    forms of the outputs (lists), indexed [input][cell]."""
    amps = c = np.asarray(coeffs, dtype=np.complex128)
    if Scheme(scheme) is Scheme.SPECIAL:  # alpha|00> + delta|11>
        amps = np.zeros((len(c), 4), dtype=np.complex128)
        amps[:, [0, 3]] = c
    repaired = repair_matrices(ops) @ branch_maps().reshape(16, 4, 4)
    out, probs, fids = map_inputs(repaired, amps)
    return c, probs, fids, format_states(out / np.sqrt(probs)[..., None])


def pauli_pair_fidelities(o13: BellOutcome, o26: BellOutcome, inputs, cz_first: bool):
    """For each Pauli pair (p4, p5), its worst post-repair fidelity over
    ``inputs`` (amplitude vectors on (1, 2)) on one branch, after the
    controlled-phase when ``cz_first``."""
    k = branch_maps()[BELL_OUTCOMES.index(o13), BELL_OUTCOMES.index(o26)]
    repairs = repair_matrices([CorrectionOp(*pair, cz_first=cz_first) for pair in PAULI_PAIRS])
    fid = map_inputs(repairs @ k, inputs)[2]
    return dict(zip(PAULI_PAIRS, fid.min(axis=0).tolist()))
