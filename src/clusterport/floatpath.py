"""The numpy side of ``enumerate`` and ``sample``: the seeded input draw,
the float branch maps and repairs, the sampler and the display forms.

Every branch is a fixed 4x4 map K from the input on (1, 2) to the output on
(4, 5) (``branch_maps``): the integer maps 4K of ``exact.branch_maps`` over
4.  A repair's matrix is formed in one place, ``repair_matrices``, from
``PAULIS`` and the CZ diagonal of ``exact``, read at call time;
``repair_branches`` multiplies the 16 repairs into the maps and applies them
to every input with ``map_inputs``, and ``random_inputs`` draws the seeded
inputs of a run in one ``standard_normal`` call on the run's one stream
``default_rng([seed, 0])``: one array of coefficient rows, normed and
checked (``check_coeffs``) at once, whose first N rows are the inputs of a
run with N.  Both read the basis states a scheme's input spans from
``exact._BASIS_INPUTS``.

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

``map_inputs`` and ``format_states`` work through a stack INPUT_BLOCK
inputs at a time, computing each row on its own, so their temporaries stay
the size of a block at any input count and no row depends on the count.
``format_states`` rotates each block in one array pass and formats each
distinct vector of it once.  Only the ``state`` of a report calls it, when
first read.

This module imports numpy, the standard library and ``exact`` only, so the
dense six-qubit reference (``statevec``, ``gates``, ``measurement`` and
``protocol``) never runs in an ``enumerate`` or ``sample`` run.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import exact
from .exact import COEFF_TOL, PAULI_NAMES, PAULI_PAIRS, Scheme

# Display forms leave out amplitudes of modulus at or below this.
DISPLAY_TOL = 1e-9
# Trials sample_outcome_pairs draws at once.  A block's uniforms (16 bytes a
# trial), its gathered thresholds (8) and its cell indices (1 each) hold
# about 0.5 MB, so memory stays flat at any trial count, while the fixed
# cost of each block's numpy calls is spread over many trials.
SAMPLE_BLOCK = 16384
# Inputs map_inputs, repair_branches and format_states take at once.  A
# block's (inputs, 16, 4) outputs hold 1 MiB and each of its temporaries at
# most that, so no temporary grows with the input count, while the fixed
# cost of each block's numpy calls is spread over 16384 branches.
INPUT_BLOCK = 1024

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


def random_inputs(scheme: Scheme, seed: int, count: int) -> np.ndarray:
    """The first ``count`` inputs the run stream ``default_rng([seed, 0])``
    draws for ``scheme``, as the rows of one checked (count, k) array: row n
    is the (n + 1)-th ``protocol.random_input(scheme, rng)`` on that stream,
    so it does not depend on ``count``, and row 0 is the input of
    ``[seed, 0, 0]`` (SeedSequence pads its entropy with zero words).  A row
    holds one coefficient for each of the scheme's basis inputs
    (``exact._BASIS_INPUTS``)."""
    k = len(exact._BASIS_INPUTS[Scheme(scheme)])
    x = np.random.default_rng([seed, 0]).standard_normal((count, 2 * k))
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


def _blocks(count: int):
    """Slices of ``count`` inputs, INPUT_BLOCK at a time."""
    return (slice(start, start + INPUT_BLOCK) for start in range(0, count, INPUT_BLOCK))


def _norm2(a: np.ndarray) -> np.ndarray:
    """<a|a> over the last axis: the real part of ``_dot(a, a)``, to the
    same bits, without its imaginary part."""
    return (a.real * a.real + a.imag * a.imag).sum(axis=-1)


def map_inputs(maps: np.ndarray, inputs):
    """Apply every 4x4 map M in the stack ``maps`` to every amplitude vector
    v on (1, 2) in ``inputs``: ``(out, prob, fid)`` with ``out[n, p]`` = w =
    M_p v_n, ``prob`` = <w|w> and ``fid`` = |<v|w>|^2 / (<v|v> <w|w>).  The
    three sums are taken alike, so a certified repair (w = c v / 4) reads
    exactly 1.  Inputs are taken INPUT_BLOCK at a time into the result
    arrays, and each row is computed on its own, so no temporary spans the
    whole stack and a row does not depend on the block it falls in."""
    v = np.asarray(inputs, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] != 4:
        raise ValueError("inputs must be a non-empty list of 4-amplitude vectors")
    out = np.empty((len(v), len(maps), 4), dtype=np.complex128)
    prob, fid = np.empty(out.shape[:2]), np.empty(out.shape[:2])
    for b in _blocks(len(v)):
        np.einsum("pij,nj->npi", maps, v[b], out=out[b])
        re, im = _dot(v[b, None, :], out[b])
        prob[b] = _norm2(out[b])
        fid[b] = (re * re + im * im) / (_norm2(v[b])[:, None] * prob[b])
    return out, prob, fid


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
    for b in _blocks(len(out)):
        out[b] /= np.sqrt(probs[b])[..., None]
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
    out, and a vector with none above it prints as ``0``.  A stack is
    formatted INPUT_BLOCK entries of its first axis at a time
    (``_format_block``), so no temporary spans the whole stack; equal bytes
    give equal strings, so an entry depends neither on the stack around it
    nor on the block it falls in.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.ndim < 2:
        return _format_block(amps)
    texts = []
    for b in _blocks(len(amps)):
        texts += _format_block(amps[b])
    return texts


def _format_block(amps):
    """``format_states`` of one block: the block is rotated at once, and
    each distinct rotated vector, found by one ``np.unique`` over the bytes
    of the first of each run of equal ones, is formatted once.  The
    left-out amplitudes are zeroed first, so vectors that differ only there
    (a sign bit, rounding dust) share one key."""
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
