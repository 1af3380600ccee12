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


@pytest.fixture
def ket_calls(monkeypatch):
    """The vectors ``format_states`` formats, one entry per ``_ket`` call."""
    calls = []
    ket = floatpath._ket
    monkeypatch.setattr(floatpath, "_ket", lambda *args: calls.append(args) or ket(*args))
    return calls
