"""The derivation on channels whose answer is known in advance.

``exact.CLUSTER_SIGNS`` is swapped for another four-qubit channel on (3, 4,
5, 6), each term of twice-amplitude 1, and the caches built from it are
cleared before and after, as ``test_mutants.clear_caches`` does:

* Bell(3, 4) x Bell(5, 6): two standard teleportations carry particle 1 to
  4 and particle 2 to 5 (Bennett et al., PRL 70, 1895, 1993), so Pauli
  pairs alone repair every branch, with no controlled-phase.  The listed
  tables are the cluster's, so ``verify`` and ``enumerate`` fail on it.
* Bell(3, 6) x Bell(4, 5): sender and receiver share no entanglement, so
  nothing is teleported and no cell is repaired.
* GHZ(3, 4, 5) x |+>6: Schmidt rank 2 across the sender | receiver cut (3,
  6) | (4, 5), enough for scheme 1's one qubit and too little for scheme
  2's two, which no LOCC protocol can raise (Nielsen, PRL 83, 436, 1999).
"""

import numpy as np
import pytest

from clusterport import BELL_OUTCOMES, RunConfig, Scheme, exact, run
from clusterport.exact import _TABLE2, certified_repairs
from test_mutants import clear_caches

# each channel's terms |c d e f> on (3, 4, 5, 6)
CHANNELS = {
    "Bell(3,4)xBell(5,6)": ("0000", "0011", "1100", "1111"),
    "Bell(3,6)xBell(4,5)": ("0000", "0110", "1001", "1111"),
    "GHZ(3,4,5)x|+>6": ("0000", "0001", "1110", "1111"),
}
# cells with a certified repair, of 16, per (scheme, cz_first): the same
# with and without the controlled-phase but on the Bell product in scheme 2
DERIVED_CELLS = {
    "Bell(3,4)xBell(5,6)": {
        (Scheme.SPECIAL, False): 16, (Scheme.SPECIAL, True): 16,
        (Scheme.ARBITRARY, False): 16, (Scheme.ARBITRARY, True): 0,
    },
    "Bell(3,6)xBell(4,5)": {(scheme, cz): 0 for scheme in Scheme for cz in (False, True)},
    "GHZ(3,4,5)x|+>6": {
        (Scheme.SPECIAL, False): 16, (Scheme.SPECIAL, True): 16,
        (Scheme.ARBITRARY, False): 0, (Scheme.ARBITRARY, True): 0,
    },
}


def signs(terms):
    """``CLUSTER_SIGNS`` of the channel with twice-amplitude 1 on each of
    ``terms`` and 0 elsewhere, indexed [c][d][e][f]."""
    table = np.zeros((2, 2, 2, 2), dtype=int)
    for term in terms:
        table[tuple(map(int, term))] = 1
    return tuple(tuple(tuple(map(tuple, plane)) for plane in cube) for cube in table.tolist())


@pytest.fixture
def channel(monkeypatch):
    """Swap in the named channel, with every cache built from the sign
    tables cleared before and after."""

    def swap(name):
        monkeypatch.setattr(exact, "CLUSTER_SIGNS", signs(CHANNELS[name]))
        clear_caches()

    clear_caches()
    yield swap
    monkeypatch.undo()
    clear_caches()  # after the restore: rebuild from the real tables


def test_terms_index_the_channel_as_cluster_signs_does():
    # the real channel: its three positive terms less its |1111> term
    real = np.array(signs(("0000", "0011", "1100"))) - np.array(signs(("1111",)))
    assert real.tolist() == np.array(exact.CLUSTER_SIGNS).tolist()


@pytest.mark.parametrize("name", list(CHANNELS))
def test_derived_cells(channel, name):
    channel(name)
    derived = {
        (scheme, cz): sum(map(bool, certified_repairs(cz, scheme)))
        for scheme in Scheme for cz in (False, True)
    }
    assert derived == DERIVED_CELLS[name]


def test_bell_product_derives_the_scheme_2_pairs_without_cz(channel):
    channel("Bell(3,4)xBell(5,6)")
    cells = certified_repairs(False, Scheme.ARBITRARY)
    for b, ops in enumerate(cells):
        o13, o26 = BELL_OUTCOMES[b // 4], BELL_OUTCOMES[b % 4]
        assert [(op.p4, op.p5, op.cz_first) for op in ops] == [(*_TABLE2[o13, o26][0], False)]


def test_bell_product_fails_the_cluster_tables(channel):
    channel("Bell(3,4)xBell(5,6)")
    tallies = {
        scheme: {k: run(RunConfig(scheme, "verify")).aggregates[k] for k in ("exact", "mismatch")}
        for scheme in Scheme
    }
    assert tallies == {
        Scheme.SPECIAL: {"exact": 8, "mismatch": 8},
        Scheme.ARBITRARY: {"exact": 0, "mismatch": 16},
    }
    for scheme in Scheme:
        assert not run(RunConfig(scheme, "enumerate", seed=7)).passed
