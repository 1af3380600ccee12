"""The numpy side of ``enumerate`` and ``sample``: the seeded input draw,
the float branch maps and repairs, the sampler and the display forms.

Every branch is a fixed 4x4 map K from the input on (1, 2) to the output on
(4, 5) (``branch_maps``): the integer maps 4K of ``exact.branch_maps`` over
4.  A repair's matrix is formed in one place, ``repair_matrices``, from
``PAULIS`` and the CZ diagonal of ``exact``, read at call time;
``repair_branches`` multiplies the 16 repairs into the maps and applies them
to every input with ``map_inputs``, and ``random_inputs`` draws the seeded
inputs of a run in one batch: input n still reads its own stream
``default_rng([seed, 0, n])``, but from ``BATCH_HASH_MIN`` inputs up the
SeedSequence hash that seeds those streams runs for every n in one array
pass, to the same bits; it returns one array of coefficient rows, normed
and checked (``check_coeffs``) at once.  Both read the basis states a
scheme's input spans from ``exact._BASIS_INPUTS``.

The sampler draws an index from cumulative weights as
``measurement.draw_index`` does: the first index whose cumulative weight b
satisfies b <= u * total, rounded, except that no b at the total counts.
For a fixed total the rounded product u * total never decreases as u grows,
so each b counts for every uniform from one least double up: its threshold,
found once per row from b / total by a few ``math.nextafter`` steps checked
with that same rounded multiply (by bisection where a subnormal total
rounds coarsely).  The index a uniform draws is then the number of
thresholds at or below it, the same bits with no per-uniform multiply,
which is how ``sample_outcome_pairs`` draws its trials.

Display forms are made for whole stacks of amplitude vectors at once:
``format_states`` rotates the stack in one array pass and formats each
distinct vector once.  Only the ``state`` of a report calls it, when first
read.

This module imports numpy, the standard library and ``exact`` only, so the
dense six-qubit reference (``statevec``, ``gates``, ``measurement`` and
``protocol``) never runs in an ``enumerate`` or ``sample`` run.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import exact
from .exact import COEFF_TOL, PAULI_NAMES, PAULI_PAIRS, Scheme

# Display forms leave out amplitudes of modulus at or below this.
DISPLAY_TOL = 1e-9
# Trials sample_outcome_pairs draws at once.  A block's uniforms (16 bytes a
# trial), its gathered thresholds (8) and its cell indices (1 each) hold
# about 0.5 MB, so memory stays flat at any trial count, while the fixed
# cost of each block's numpy calls is spread over many trials.
SAMPLE_BLOCK = 16384

PAULIS: dict[str, np.ndarray] = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
for _m in PAULIS.values():
    _m.setflags(write=False)


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
    """``protocol.random_input(scheme, [seed, 0, n]).coeffs`` for n in
    range(count), as the rows of one checked (count, k) array: each input's
    SeedSequence state seeds its own PCG64 stream to draw its row, and the
    rows are normalized and checked in one pass.  From BATCH_HASH_MIN inputs
    up, the states of every input are hashed in one pass; below,
    SeedSequence hashes each one, to the same bits.  A row holds one
    coefficient for each of the scheme's basis inputs (``exact._BASIS_INPUTS``)."""
    k = len(exact._BASIS_INPUTS[Scheme(scheme)])
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
    ``scheme`` (one column per basis input, ``exact._BASIS_INPUTS``), after
    the repair ``ops`` lists for it, in cell order: the inputs, then the
    probabilities and fidelities, indexed [input][cell], and the repaired
    outputs scaled to unit norm, a read-only (inputs, 16, 4) stack that
    ``format_states`` turns into display forms."""
    c = np.asarray(coeffs, dtype=np.complex128)
    amps = np.zeros((len(c), 4), dtype=np.complex128)
    amps[:, exact._BASIS_INPUTS[Scheme(scheme)]] = c
    repaired = repair_matrices(ops) @ branch_maps().reshape(16, 4, 4)
    out, probs, fids = map_inputs(repaired, amps)
    out /= np.sqrt(probs)[..., None]
    out.setflags(write=False)
    return c, probs, fids, out


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _bits(x: float) -> int:
    """A double's bit pattern, which orders the doubles >= 0 as they compare."""
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _double(bits: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


def _threshold(b: float, total: float) -> float:
    """The least double u in [0, 1) at which ``draw_index`` counts the
    cumulative weight ``b`` of a row with total ``total``: b <= u * total,
    rounded, and b < total.  1.0, which no uniform reaches, where none does."""
    if not b < total:  # at the total, or NaN
        return 1.0
    q = b / total
    lo, hi = -1.0, 1.0  # b counts at hi (1.0: never) but not at lo (-1.0: none)
    for u in (math.nextafter(q, 0.0), q, math.nextafter(q, 1.0)):
        if lo < u < hi:
            if b <= u * total:
                hi = u
            else:
                lo = u
    # q is a step or two off unless the total is subnormal; then bisect
    while hi > 0.0 and math.nextafter(hi, 0.0) != lo:
        mid = _double(((_bits(lo) if lo >= 0.0 else -1) + _bits(hi)) // 2)
        if b <= mid * total:
            hi = mid
        else:
            lo = mid
    return hi


def index_thresholds(cum) -> list[float]:
    """The threshold of each cumulative weight of the row ``cum`` but the
    last, which never counts: for nonnegative (or NaN) weights and every
    double u in [0, 1), ``draw_index(cum, u)`` is the number of thresholds
    at or below u."""
    return [_threshold(b, cum[-1]) for b in cum[:-1]]


def cell_thresholds(probs):
    """``(first, second)``, the thresholds of the 16 cell weights ``probs``,
    the (1, 3) outcome major: ``first`` those of the (1, 3) marginal, and
    ``second[c, i]`` that of boundary c in row i."""
    joint = np.reshape(probs, (4, 4))
    first = index_thresholds(joint.sum(axis=1).cumsum().tolist())
    second = np.array([index_thresholds(row) for row in joint.cumsum(axis=1).tolist()])
    return first, second.T.copy()


def outcome_cells(u: np.ndarray, first, second: np.ndarray) -> np.ndarray:
    """The cell 4i + j each row (u0, u1) of ``u`` draws from the thresholds
    ``cell_thresholds`` gives: i counts those of the marginal at or below
    u0, and j those of row i at or below u1."""
    u0, u1 = u[:, 0], u[:, 1]
    i = np.zeros(len(u), dtype=np.uint8)  # one byte a trial: each pass stays small
    for t in first:
        i += u0 >= t
    cells = i << 2
    for row_thresholds in second:
        cells += u1 >= row_thresholds.take(i)
    return cells


def sample_outcome_pairs(probs, trials: int, seed) -> list[int]:
    """Counts of ``trials`` draws of the outcome pair on (1, 3) and (2, 6)
    from the 16 cell probabilities ``probs``, the (1, 3) outcome major.

    All trials share ``np.random.default_rng(seed)``, trial t reading its
    doubles 2t and 2t+1: the first picks the outcome i on (1, 3) from its
    marginal, the second the outcome on (2, 6) from row i, each as
    ``draw_index`` picks from the cumulative weights.  Those weights are
    turned into thresholds once per call (``cell_thresholds``), exact
    because the rounded u * total never decreases in u, so a trial costs
    comparisons only (``outcome_cells``).  Trials are drawn SAMPLE_BLOCK at
    a time; counts depend on neither the block size nor, for the first N
    trials, the trial count.
    """
    first, second = cell_thresholds(probs)
    rng = np.random.default_rng(seed)
    counts = np.zeros(16, dtype=np.int64)
    u = np.empty((min(SAMPLE_BLOCK, trials), 2))
    for start in range(0, trials, SAMPLE_BLOCK):
        block = rng.random(out=u[: min(SAMPLE_BLOCK, trials - start)])
        counts += np.bincount(outcome_cells(block, first, second), minlength=16)
    return counts.tolist()


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
