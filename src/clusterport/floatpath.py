"""The numpy side of ``enumerate`` and ``sample``: the seeded input draw,
the application of the repaired maps, the sampler and the display forms.

Every branch is a fixed 4x4 map K from the input on (1, 2) to the output on
(4, 5).  ``repair_branches`` takes the repaired map R 4K of each cell from
``exact.repaired_map``, sorts the 16 into classes that agree on the scheme's
inputs up to a unit phase (``exact._phase_classes``: one class under the
listed tables), and applies one map per class, over 4, to every input;
each cell takes its class's probability and fidelity, and its output is
its class's times its phase, which the caller derives when it needs it: no
(inputs, 16, 4) stack is built.  The classes are found and converted once
per distinct set of maps.
``random_inputs`` draws the seeded inputs of a run in one
``standard_normal`` call on the run's one stream ``default_rng([seed,
0])``: one array of coefficient rows, normed at once, whose first N rows
are the inputs of a run with N.  Both read the basis states a scheme's
input spans from ``exact._BASIS_INPUTS``.

The sampler draws an index from cumulative weights as
``measurement.draw_index`` does: the first index whose cumulative weight
exceeds u * total, rounded, so the number of cumulative weights b with
b <= u * total, except that no b at the total counts.  For a fixed total
the rounded product u * total never decreases as u grows, so each b counts
for every uniform from one least double up: its threshold, found by
bisection with that same rounded multiply.  The index a uniform draws is
then the number of thresholds at or below it, the same bits with no
per-uniform multiply, which is how ``sample_outcome_pairs`` draws its
trials.  A row's thresholds are found once per process: they are kept by
the row's bits in a small LRU (``_row_thresholds``).

The input count picks one of two paths, which give the same bits.  Two
or more inputs go through numpy in blocks: ``map_inputs`` and
``format_states`` work through a stack INPUT_BLOCK inputs at a time,
computing each row on its own, so their temporaries stay the size of a
block at any input count and no row depends on the count.
``format_states`` rotates each block in one array pass and formats each
vector in it once, the whole block's kets in one ``%``: one more array
pass (``_kets``) gives each vector its pattern (which amplitudes print,
and whether each is real, imaginary or both), whose format ``_ket_format``
builds once per width and pattern, and the parts it prints.  One input
(every ``sample`` run, and an ``enumerate`` of given coefficients or of
one drawn input) is computed and displayed in Python floats and complex
numbers instead (``_map_one``, ``_ket``), where numpy's fixed cost per call
would outweigh the arithmetic of one row: each step is the operation the
block path performs, in its order, so each probability, fidelity, output
and text has the block path's bits (the moduli by complex ``abs``, which
calls the C library's hypot as ``np.hypot`` does).  The block path does the
same work for 100 inputs several times faster than Python would.  Only
the ``state`` of a report calls ``format_states``, when first read, on the
class outputs of a run: a cell's phase is rotated away in display, so each
class output is formatted once per input and its cells take its text.

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
from .exact import Scheme

# Display forms leave out amplitudes of modulus at or below this.
DISPLAY_TOL = 1e-9
# Trials sample_outcome_pairs draws at once.  A block's uniforms take 16
# bytes a trial, 128 000 bytes in all, and each buffer of outcome_cells at
# most 8 a trial: every buffer stays below glibc's 128 KiB mmap threshold,
# so the heap hands the same pages to each block and each call, where a
# mapped buffer would be faulted in afresh.  Memory stays flat at any trial
# count, while the fixed cost of a block's numpy calls is spread over many
# trials.
SAMPLE_BLOCK = 8000
# Inputs map_inputs and format_states take at once.  A block's (inputs,
# classes, 4) outputs hold 64 KiB a class, at most 1 MiB, and each of its
# temporaries at most that (a formatted block's masks and part arrays
# included), so no temporary grows with the input count, while the fixed
# cost of each block's numpy calls is spread over 1024 inputs.
INPUT_BLOCK = 1024


def _unit_coeffs(x: np.ndarray) -> np.ndarray:
    """Each row of ``x``, its k real parts then its k imaginary parts, as k
    complex coefficients scaled to unit norm, the same bits in any batch:
    each row's norm is np.linalg.norm's to the same bits, as its sqrt(re.re
    + im.im) rounds as a stacked matmul does, not as einsum or a sum does."""
    k = x.shape[1] // 2
    c = x[:, :k] + 1j * x[:, k:]
    re, im = c.real, c.imag
    c /= np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    return c


def random_inputs(scheme: Scheme, seed: int, count: int) -> np.ndarray:
    """The first ``count`` inputs the run stream ``default_rng([seed, 0])``
    draws for ``scheme``, as the rows of one (count, k) array: row n
    is the (n + 1)-th ``protocol.random_input(scheme, rng)`` on that stream,
    so it does not depend on ``count``, and row 0 is the input of
    ``[seed, 0, 0]`` (SeedSequence pads its entropy with zero words).  A row
    holds one coefficient for each of the scheme's basis inputs
    (``exact._BASIS_INPUTS``)."""
    k = len(exact._BASIS_INPUTS[Scheme(scheme)])
    x = np.random.default_rng([seed, 0]).standard_normal((count, 2 * k))
    return _unit_coeffs(x)


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
def _repaired_stack(maps, cols):
    """The repaired maps ``maps`` (``exact.repaired_map``) in their classes
    on the basis columns ``cols`` (``exact._phase_classes``): ``(stack,
    index, phases, rows, cells)``, one complex map over 4 per class, zero
    outside ``cols``, the class of each cell, and the phase of each cell,
    all read-only; then the stack and the index in Python's form for
    ``_map_one``: ``rows``, a list of rows of complex numbers per class,
    and ``cells``, a tuple.  Built once per distinct set of maps and
    columns, and keyed on the maps' values, so a changed table or constant
    gets classes of its own."""
    classes, index, phases = exact._phase_classes(maps, cols)
    arrays = np.array(classes, dtype=np.complex128) / 4, np.array(index), np.array(phases)
    for a in arrays:
        a.setflags(write=False)
    return (*arrays, arrays[0].tolist(), index)


def _dot(u, v):
    """u0 v0 + u1 v1 + u2 v2 + u3 v3 for two 4-lists of Python complex
    numbers, added left to right.  With u the conjugates of a vector x, it
    is <x|v> with the bits of ``map_inputs``' sums: the product of a - ib
    and c + id is (ac - (-b)d, ad + (-b)c), which is (ac + bd, ad - bc) to
    the bit, each term rounded once, and the terms are added in
    ``_sum4``'s order."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return ((u0 * v0 + u1 * v1) + u2 * v2) + u3 * v3


def _map_one(rows, v):
    """``map_inputs`` of the one input ``v``, 4 Python complex numbers,
    through the class maps ``rows``, with each output scaled to unit norm:
    ``(outputs, probs, fids)``, a list per class in Python floats and
    complex numbers, the bits of the block path, as each step is its
    operation: an amplitude 0 + ((m0 v0 + m1 v1) + m2 v2) + m3 v3, einsum's
    order and its start; the three sums by ``_dot``; and the scaling as
    numpy divides a complex by a real r, ((re + im 0) s, (im - re 0) s) with
    s = 1 / r.  Where r is 0, and Python would raise, s is inf, which gives
    numpy's quotients by 0, and so does a product by inf for a fidelity's."""
    cv = [z.conjugate() for z in v]
    nv = _dot(cv, v).real
    outputs, probs, fids = [], [], []
    for m in rows:
        w = [0j + _dot(row, v) for row in m]
        prob = _dot([z.conjugate() for z in w], w).real
        vw = _dot(cv, w)
        q, d = vw.real * vw.real + vw.imag * vw.imag, nv * prob
        s = 1 / math.sqrt(prob) if prob else math.inf
        outputs.append([complex((z.real + z.imag * 0.0) * s, (z.imag - z.real * 0.0) * s)
                        for z in w])
        probs.append(prob)
        fids.append(q / d if d else q * math.inf)
    return outputs, probs, fids


def repair_branches(ops, scheme: Scheme, coeffs):
    """Every branch of every input, the coefficient rows ``coeffs`` of
    ``scheme`` (one column per basis input, ``exact._BASIS_INPUTS``), after
    the repair ``ops`` lists for it, in cell order: ``(inputs, probs, fids,
    outputs, index, phases)``.

    One map per class of the repaired maps (``_repaired_stack``) is applied
    to each input, and each cell takes its class's probability and
    fidelity, as read-only (inputs, 16) arrays indexed [input][cell].  They
    are the bits its own map would give: its output is its class's times a
    unit phase, which swaps or negates real and imaginary parts exactly,
    and a sum of two squares does not see that.  ``outputs`` holds each
    class's repaired output scaled to unit norm, as a read-only (inputs,
    classes, 4) stack; ``index`` is the class of each cell and ``phases``
    its phase, so cell p's output is ``outputs[:, index[p]] * phases[p]``:
    the values its own map gives, but that a zero part's sign may differ.
    ``Report.state`` hands ``outputs`` and ``index`` to ``format_states``.

    The input count picks the path, with the same bits on both: a run of
    one input (every ``sample``, and ``enumerate`` with given coefficients
    or one drawn input) is computed in Python floats by ``_map_one``, which
    costs a few microseconds where numpy's fixed cost per call is larger;
    more inputs go through ``map_inputs`` as blocks."""
    c = np.asarray(coeffs, dtype=np.complex128)
    cols = exact._BASIS_INPUTS[Scheme(scheme)]
    stack, index, phases, rows, cells = _repaired_stack(
        tuple(map(exact.repaired_map, ops, range(16))), cols
    )
    if len(c) == 1:
        v = [0j] * 4
        for j, z in zip(cols, c[0].tolist()):
            v[j] = z
        outputs, probs, fids = _map_one(rows, v)
        out = np.array([outputs], dtype=np.complex128)
        probs, fids = np.array([[probs[k] for k in cells]]), np.array([[fids[k] for k in cells]])
    else:
        amps = np.zeros((len(c), 4), dtype=np.complex128)
        amps[:, cols] = c
        out, probs, fids = map_inputs(stack, amps)
        out /= np.sqrt(probs)[..., None]  # a temporary of 8 B an output, against its 64
        probs, fids = probs.take(index, axis=1), fids.take(index, axis=1)
    for a in (out, probs, fids):
        a.setflags(write=False)
    return c, probs, fids, out, index, phases


def _threshold(b: float, total: float) -> float:
    """The least double u in [0, 1) at which ``draw_index`` counts the
    cumulative weight ``b`` of a row with total ``total``: b <= u * total,
    rounded, and b < total.  1.0, which no uniform reaches, where none does.
    Found by bisection, since the rounded product never decreases in u."""
    if not b < total:  # at the total, or NaN
        return 1.0
    if b <= 0.0 * total:  # counts at u = 0; b = 0 under an infinite total does not (NaN)
        return 0.0
    lo, hi = 0.0, 1.0  # b counts at hi (1.0: never) but not at lo
    # the midpoint rounds to lo or hi once no double lies between them
    while lo < (mid := (lo + hi) / 2) < hi:
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


# 16 cell weights as their bits: the key of _row_thresholds
_CELL_ROW = struct.Struct("<16d")


@functools.lru_cache(maxsize=32)
def _row_thresholds(row: bytes):
    """``(first, second)``, the thresholds of the 16 cell weights packed in
    ``row`` (``_CELL_ROW``), the (1, 3) outcome major, as two read-only
    arrays: ``first`` those of the (1, 3) marginal, and ``second[c, i]``
    that of boundary c in row i.  Kept by the weights' bits, so a row is
    searched once per process and shares its entry only with rows of the
    same bits (-0.0 and 0.0 differ there), whose thresholds are the same
    bits.  Rows repeat: 500 ``sample`` calls of drawn and given inputs gave
    8."""
    joint = np.reshape(_CELL_ROW.unpack(row), (4, 4))
    first = np.array(index_thresholds(joint.sum(axis=1).cumsum().tolist()))
    second = np.array([index_thresholds(r) for r in joint.cumsum(axis=1).tolist()]).T.copy()
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def outcome_cells(u: np.ndarray, first, second: np.ndarray) -> np.ndarray:
    """The cell 4i + j each row (u0, u1) of ``u`` draws from the thresholds
    ``_row_thresholds`` gives: i counts those of the marginal at or below
    u0, and j those of row i at or below u1.

    The columns are compared as contiguous copies, one byte a trial for each
    mask, added through its uint8 view; row i gathers its thresholds with
    one intp index."""
    u0, u1 = u[:, 0].copy(), u[:, 1].copy()
    mask = np.empty(len(u), dtype=bool)
    bit = mask.view(np.uint8)
    i = np.zeros(len(u), dtype=np.uint8)
    for t in first:
        np.greater_equal(u0, t, out=mask)
        i += bit
    rows = i.astype(np.intp)
    cells = i * 4
    for row_thresholds in second:
        np.greater_equal(u1, row_thresholds.take(rows), out=mask)
        cells += bit
    return cells


def sample_outcome_pairs(probs, trials: int, seed) -> list[int]:
    """Counts of ``trials`` draws of the outcome pair on (1, 3) and (2, 6)
    from the 16 cell probabilities ``probs``, the (1, 3) outcome major.

    All trials share ``np.random.default_rng(seed)``, trial t reading its
    doubles 2t and 2t+1: the first picks the outcome i on (1, 3) from its
    marginal, the second the outcome on (2, 6) from row i, each as
    ``draw_index`` picks from the cumulative weights.  Those weights are
    turned into thresholds once per distinct row (``_row_thresholds``),
    exact because the rounded u * total never decreases in u, so a trial
    costs comparisons only (``outcome_cells``).  Trials are drawn
    SAMPLE_BLOCK at a time; counts depend on neither the block size nor,
    for the first N trials, the trial count.
    """
    first, second = _row_thresholds(_CELL_ROW.pack(*probs))
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
    re, im = amps.real, amps.imag
    mod = np.hypot(re, im)
    above = mod > DISPLAY_TOL
    # each vector's first amplitude above it, as one index into the flat
    # stack: its first amplitude, not above either, when none is
    n = amps.shape[-1]
    first = above.argmax(axis=-1, keepdims=True)
    first += np.arange(0, mod.size, n).reshape(first.shape)
    lead, r = amps.reshape(-1).take(first), mod.reshape(-1).take(first)
    live = r > DISPLAY_TOL
    r = np.where(live, r, 1.0)
    # multiply by conj(lead) / |lead|; a vector with no lead by 1
    c = np.where(live, lead.real / r, 1.0)
    s = np.where(live, -lead.imag / r, 0.0)
    shown = np.empty(amps.shape, dtype=np.complex128)
    shown.real = re * c - im * s
    shown.imag = re * s + im * c
    return shown, above


@functools.lru_cache(maxsize=1024)
def _ket_format(n: int, pattern: int) -> str:
    """The % format of the ket of an ``n``-amplitude vector whose amplitudes
    print as ``pattern`` says, two bits each, the first amplitude highest: 0
    left out, 1 its real part, 2 its imaginary part, 3 both; each part at 6
    significant digits, and ``0`` if nothing prints.  Built once per width
    and pattern (every pattern of 4 amplitudes fits)."""
    n_qubits = n.bit_length() - 1
    labels = [format(i, f"0{n_qubits}b") if n_qubits else "" for i in range(n)]
    codes = [(pattern >> 2 * (n - 1 - i)) & 3 for i in range(n)]
    terms = [
        ("%.6g", "%.6gi", "(%.6g%+.6gi)")[code - 1] + f"|{bits}>"
        for bits, code in zip(labels, codes)
        if code
    ]
    return " + ".join(terms) or "0"


@functools.cache
def _pattern_weights(n: int) -> np.ndarray:
    """What each printed part of a flat row of ``n`` amplitudes adds to its
    ``_ket_format`` pattern, two bits an amplitude, the first amplitude
    highest: part k (Re at even k, Im at odd) adds 2 ** (2n - 1 - (k ^ 1))."""
    return 1 << 2 * n - 1 - (np.arange(2 * n) ^ 1)


def _kets(rows: np.ndarray):
    """``(formats, parts)``: the ``_ket_format`` of each rotated vector of
    ``rows``, its left-out amplitudes zeroed, and the parts they print, in
    order, from one pass over the whole array.  An amplitude that is 0 is
    left out; one that is not prints its real part alone when its imaginary
    part is at most DISPLAY_TOL, else its imaginary part alone when its real
    part is, else both.  A NaN part is never at most DISPLAY_TOL, as in a
    comparison of one amplitude's parts."""
    n = rows.shape[-1]
    parts = rows.view(np.float64).reshape(len(rows), n, 2)  # Re, Im of each amplitude
    small = np.abs(parts) <= DISPLAY_TOL
    printed = ~small  # an imaginary part prints unless small
    printed[..., 0] |= small[..., 1]  # a real part unless small while the imaginary one is not
    printed[..., 0] &= rows != 0
    patterns = printed.reshape(len(rows), 2 * n) @ _pattern_weights(n)
    return [_ket_format(n, p) for p in patterns.tolist()], parts[printed].tolist()


def format_states(amps, cells=None):
    """The readable ket expansion of every vector along the last axis of
    ``amps``, as nested lists shaped like the leading axes (a string for
    one vector).

    Display only: each vector is rotated so that its first amplitude above
    ``DISPLAY_TOL`` is real and positive (``display_rotation``), so
    equivalent states print identically; amplitudes at or below it are left
    out, and a vector with none above it prints as ``0``.  Each text is a
    function of its vector's bytes alone, so an entry depends neither on
    the stack around it nor on the path that formats it.

    With ``cells``, indices into the stack's last axis but one, entry [n][p]
    is the text of vector ``cells[p]`` of entry n: each vector is formatted
    once, however many cells take its text (``Report.state`` formats a
    class output once per input for all its cells).

    The input count picks the path, with the same text on both: one
    vector, or a stack of one input's vectors, (1, classes, n), is
    formatted a vector at a time in Python floats (``_ket``), where a
    stack goes through numpy's array passes INPUT_BLOCK entries of its
    first axis at a time (``_format_block``), so no temporary spans the
    whole stack.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.ndim < 2:
        return _ket(amps.tolist())
    if amps.ndim == 3 and len(amps) == 1:
        texts = list(map(_ket, amps[0].tolist()))
        return [texts if cells is None else [texts[p] for p in cells]]
    texts = []
    for b in _blocks(len(amps)):
        texts += _format_block(amps[b], cells)
    return texts


def _modulus(z: complex) -> float:
    """|z| as ``np.hypot`` gives it: complex ``abs`` calls the C library's
    hypot, as numpy does (``math.hypot`` rounds otherwise), but raises
    where the modulus overflows, and np.hypot returns inf there."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _ket(vals) -> str:
    """The text ``_format_block`` gives the one vector ``vals``, a list of
    Python complex numbers, computed in Python floats with the same
    operations: the rotation of ``display_rotation`` (a vector with no
    modulus above DISPLAY_TOL prints ``0``), each amplitude at or below it
    left out, and each other one's parts classified as ``_kets`` does, then
    one ``%`` of its ``_ket_format``."""
    mods = list(map(_modulus, vals))
    lead = next((k for k, r in enumerate(mods) if r > DISPLAY_TOL), None)
    if lead is None:
        return "0"
    c, s = vals[lead].real / mods[lead], -vals[lead].imag / mods[lead]
    pattern, parts = 0, []
    for z, r in zip(vals, mods):
        pattern <<= 2
        if not r > DISPLAY_TOL:
            continue
        re, im = z.real * c - z.imag * s, z.real * s + z.imag * c
        if not (re or im):  # 0 is left out; a NaN part is not 0
            continue
        if abs(im) <= DISPLAY_TOL:
            pattern += 1
            parts.append(re)
        elif abs(re) <= DISPLAY_TOL:
            pattern += 2
            parts.append(im)
        else:
            pattern += 3
            parts += (re, im)
    return _ket_format(len(vals), pattern) % tuple(parts)


def _format_block(amps, cells=None):
    """``format_states`` of one block: the block is rotated at once and its
    left-out amplitudes zeroed, so the zeros alone tell ``_kets`` what to
    leave out (an amplitude above DISPLAY_TOL is not 0 after the rotation).
    ``_kets`` gives every vector's format and parts, and one ``%`` fills
    them all, the kets joined by a NUL, which no ket holds, and split apart
    again."""
    shown, above = display_rotation(amps)
    n = shown.shape[-1]
    rows = shown.reshape(-1, n)
    np.putmask(rows, ~above.reshape(-1, n), 0)  # in place: rows is a view of our own array
    kets, parts = _kets(rows)
    texts = ("\0".join(kets) % tuple(parts)).split("\0")[: len(rows)]  # no rows split to [""]
    texts = np.array(texts, dtype=object).reshape(shown.shape[:-1])
    return (texts if cells is None else texts.take(cells, axis=-1)).tolist()
