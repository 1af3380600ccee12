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
* GHZ(3, 4, 6) x |+>5: Schmidt rank 2 too, but its output leaves
  span{|00>, |11>}, so no Pauli pair, with or without the controlled-phase,
  repairs a cell in either scheme: the rank bound is necessary, not
  sufficient.

Across the whole family of channels with four entries of twice-amplitude
+-1, the rank bound holds wherever a scheme derives every cell: rank 4 for
scheme 2, at least 2 for scheme 1, the rank taken exactly.
"""

import itertools
import random
from fractions import Fraction

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
    "GHZ(3,4,6)x|+>5": ("0000", "0010", "1101", "1111"),
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
    "GHZ(3,4,6)x|+>5": {(scheme, cz): 0 for scheme in Scheme for cz in (False, True)},
}


def signs(terms, values=None):
    """``CLUSTER_SIGNS`` of the channel with twice-amplitude ``values`` (1
    each by default) on ``terms`` and 0 elsewhere, indexed [c][d][e][f]."""
    table = np.zeros((2, 2, 2, 2), dtype=int)
    for term, value in zip(terms, values or [1] * len(terms)):
        table[tuple(map(int, term))] = value
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


# every channel of four entries of twice-amplitude +-1, one of each pair
# that differ by a global sign: the first entry +1
FAMILY = [
    (terms, (1, *rest))
    for terms in itertools.combinations([format(i, "04b") for i in range(16)], 4)
    for rest in itertools.product((1, -1), repeat=3)
]


def schmidt_rank(table) -> int:
    """The rank across (3, 6) | (4, 5) of the channel ``table``, indexed
    [c][d][e][f]: the rank of its 4x4 matrix [(c, f)][(d, e)], by exact
    elimination in ``Fraction``."""
    rows = [[Fraction(table[c][d][e][f]) for d in (0, 1) for e in (0, 1)]
            for c in (0, 1) for f in (0, 1)]
    rank = 0
    for col in range(4):
        pivot = next((r for r in range(rank, 4) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(4):
            if r != rank and rows[r][col]:
                ratio = rows[r][col] / rows[rank][col]
                rows[r] = [x - ratio * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_schmidt_rank_of_the_named_channels():
    ranks = {name: schmidt_rank(signs(terms)) for name, terms in CHANNELS.items()}
    assert ranks == {
        "Bell(3,4)xBell(5,6)": 4, "Bell(3,6)xBell(4,5)": 1,
        "GHZ(3,4,5)x|+>6": 2, "GHZ(3,4,6)x|+>5": 2,
    }
    assert schmidt_rank(exact.CLUSTER_SIGNS) == 4


def test_a_scheme_that_derives_every_cell_has_the_rank_it_needs(monkeypatch):
    # LOCC cannot raise the Schmidt rank: teleporting two qubits needs rank
    # 4, one qubit in span{|00>, |11>} rank 2
    assert len(FAMILY) == 14560
    channels = [signs(*c) for c in random.Random(20).sample(FAMILY, 300)]
    channels += [signs(terms) for terms in CHANNELS.values()] + [exact.CLUSTER_SIGNS]
    complete = {Scheme.SPECIAL: 0, Scheme.ARBITRARY: 0}
    try:
        for table in channels:
            monkeypatch.setattr(exact, "CLUSTER_SIGNS", table)
            clear_caches()
            rank = schmidt_rank(table)
            for scheme in Scheme:
                if any(all(certified_repairs(cz, scheme)) for cz in (False, True)):
                    complete[scheme] += 1
                    assert rank >= (4 if scheme is Scheme.ARBITRARY else 2), (table, scheme)
    finally:
        monkeypatch.undo()
        clear_caches()
    # the named channels and the cluster complete 3 and 2; the sample adds one
    # for scheme 1 (about 96 of 14 560 channels do, and 32 for scheme 2)
    assert complete == {Scheme.SPECIAL: 4, Scheme.ARBITRARY: 2}
