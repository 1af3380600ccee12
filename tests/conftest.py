import numpy as np
import pytest

from clusterport import floatpath
from clusterport.statevec import StateVector


def random_state(rng, labels):
    """Normalized random state over the given labels."""
    n = 2 ** len(labels)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps /= np.linalg.norm(amps)
    return StateVector(tuple(labels), amps)


def basis_ket(labels, bits):
    """Computational basis ket |b_1 ... b_n> over ``labels``, written out
    by hand: the first label owns the most significant bit."""
    amps = np.zeros(2 ** len(labels), dtype=np.complex128)
    amps[int("".join(map(str, bits)), 2)] = 1.0
    return StateVector(tuple(labels), amps)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def loop_ket(vals, parts: list) -> str:
    """``floatpath._kets`` of one rotated vector, an amplitude at a time, as
    the formatter classified them before it took a block in one array pass:
    the ``_ket_format`` of ``vals``, with the parts it prints appended to
    ``parts``.  The reference the array classifier must match."""
    pattern = 0
    for c in vals:
        pattern <<= 2
        if not c:
            continue
        if abs(c.imag) <= floatpath.DISPLAY_TOL:
            pattern += 1
            parts.append(c.real)
        elif abs(c.real) <= floatpath.DISPLAY_TOL:
            pattern += 2
            parts.append(c.imag)
        else:
            pattern += 3
            parts += (c.real, c.imag)
    return floatpath._ket_format(len(vals), pattern)


def loop_kets(rows):
    """``floatpath._kets`` through ``loop_ket``, a vector at a time."""
    parts = []
    return [loop_ket(vals, parts) for vals in rows.tolist()], parts


@pytest.fixture
def ket_calls(monkeypatch):
    """The vectors ``format_states`` formats, one entry per vector handed to
    ``_kets``: ``_kets`` gives each distinct rotated vector of a block its
    format and parts in one array pass, and one ``%`` per block fills
    them."""
    calls = []
    kets = floatpath._kets
    monkeypatch.setattr(floatpath, "_kets", lambda rows: calls.extend(rows.tolist()) or kets(rows))
    return calls
