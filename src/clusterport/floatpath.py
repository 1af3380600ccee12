"""The numpy side of ``enumerate`` and ``sample``: the seeded input draw,
the application of the repaired maps, the sampler and the display forms.

Every branch is a fixed 4x4 map K from the input on (1, 2) to the output on
(4, 5).  ``repair_branches`` takes the repaired map R 4K of each cell from
``exact.repaired_map``, the one place a repair's action on a map is formed,
as one stack over 4 (converted once per distinct set of maps), and applies
it to every input with ``map_inputs``.
``random_inputs`` draws the seeded inputs of a run in one
``standard_normal`` call on the run's one stream ``default_rng([seed,
0])``: one array of coefficient rows, normed and checked (``check_coeffs``)
at once, whose first N rows are the inputs of a run with N.  Both read the
basis states a scheme's input spans from ``exact._BASIS_INPUTS``.

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
``format_states`` rotates each block in one array pass and formats the
first of each run of equal vectors in it once.  Only the ``state`` of a
report calls it, when first read.

This module imports numpy, the standard library and ``exact`` only, so the
dense six-qubit reference (``statevec``, ``gates``, ``measurement`` and
``protocol``) never runs in an ``enumerate`` or ``sample`` run.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from . import exact
from .exact import COEFF_TOL, Scheme

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


def _blocks(count: int):
    """Slices of ``count`` inputs, INPUT_BLOCK at a time."""
    return (slice(start, start + INPUT_BLOCK) for start in range(0, count, INPUT_BLOCK))


def _sum4(t: np.ndarray) -> np.ndarray:
    """((t0 + t1) + t2) + t3 over the last axis of ``t``, four long."""
    s = t[..., 0] + t[..., 1]
    s += t[..., 2]
    s += t[..., 3]
    return s


def map_inputs(maps: np.ndarray, inputs):
    """Apply every 4x4 map M in the stack ``maps`` to every amplitude vector
    v on (1, 2) in ``inputs``: ``(out, prob, fid)`` with ``out[n, p]`` = w =
    M_p v_n, ``prob`` = <w|w> and ``fid`` = |<v|w>|^2 / (<v|v> <w|w>).  The
    three sums are taken alike, so a certified repair (w = c v / 4) reads
    exactly 1.  Inputs are taken INPUT_BLOCK at a time into the result
    arrays, and each row is computed on its own, so no temporary spans the
    whole stack and a row does not depend on the block it falls in.

    The sums run on float64 views of the complex arrays.  Each of the four
    terms, such as Re v Re w + Im v Im w, is rounded on its own, and the
    terms are added left to right, ((t0 + t1) + t2) + t3 (``_sum4``): the
    order ``.sum(axis=-1)`` takes on a four-long axis, so ``prob`` and
    ``fid`` keep the bits of that formulation (its sum starts from +0.0, so
    four -0.0 terms of <v|w> sum to +0.0 there and -0.0 here, which squares
    alike).  Written out, the bits no longer depend on how numpy reduces,
    and no reduction runs over a four-long axis, which numpy does one output
    at a time."""
    v = np.ascontiguousarray(inputs, dtype=np.complex128)  # its rows viewed as floats
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] != 4:
        raise ValueError("inputs must be a non-empty list of 4-amplitude vectors")
    out = np.empty((len(v), len(maps), 4), dtype=np.complex128)
    prob, fid = np.empty(out.shape[:2]), np.empty(out.shape[:2])
    for b in _blocks(len(v)):
        np.einsum("pij,nj->npi", maps, v[b], out=out[b])
        # each amplitude's Re and Im side by side: Re at 0::2, Im at 1::2
        w, x = out[b].view(np.float64), v[b].view(np.float64)[:, None, :]
        wr, wi, xr, xi = w[..., 0::2], w[..., 1::2], x[..., 0::2], x[..., 1::2]
        prob[b] = _sum4(wr * wr + wi * wi)
        re = _sum4(xr * wr + xi * wi)
        im = _sum4(xr * wi - xi * wr)
        fid[b] = (re * re + im * im) / (_sum4(xr * xr + xi * xi) * prob[b])
    return out, prob, fid


@functools.lru_cache(maxsize=4)
def _repaired_stack(maps) -> np.ndarray:
    """The repaired maps ``maps`` (``exact.repaired_map``) over 4, as one
    read-only complex stack: built once per distinct set of maps, and keyed
    on their values, so a changed table or constant gets a stack of its
    own."""
    stack = np.array(maps, dtype=np.complex128) / 4
    stack.setflags(write=False)
    return stack


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
    repaired = _repaired_stack(tuple(exact.repaired_map(op, cell) for cell, op in enumerate(ops)))
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
    the first of each run of equal rotated vectors is formatted once, its
    text standing for the whole run.  The left-out amplitudes are zeroed
    first, so vectors that differ only there (a sign bit, rounding dust)
    share one key."""
    shown, above = display_rotation(amps)
    n = shown.shape[-1]
    rows, masks = shown.reshape(-1, n), above.reshape(-1, n)
    np.putmask(rows, ~masks, 0)  # in place: rows is a view of our own array
    # an amplitude above DISPLAY_TOL is not 0, so the zeroed row is its key;
    # a repaired stack repeats each input's row along its cells
    words = rows.view(np.uint64)
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (words[1:] != words[:-1]).any(axis=1)
    n_qubits = n.bit_length() - 1
    labels = [format(i, f"0{n_qubits}b") if n_qubits else "" for i in range(n)]
    texts = [
        _ket(vals, mask, labels) for vals, mask in zip(rows[head].tolist(), masks[head].tolist())
    ]
    return np.array(texts, dtype=object)[head.cumsum() - 1].reshape(shown.shape[:-1]).tolist()
