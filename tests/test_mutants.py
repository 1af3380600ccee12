"""Mutation analysis of the four run modes (DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).

Each mutant breaks one fact the claim rests on: one cell's first listed
repair is swapped for another Pauli pair, or one entry of the channel's or
the Bell basis's sign table, or of the controlled-phase diagonal, is
changed.  Every mutant runs through ``run`` in all four modes, and a mode
kills it when its run fails.  The kill counts are pinned, and every mutant
that ``enumerate``, ``sample`` or ``verify`` lets through must be an
equivalent one.

``derive`` kills no table mutant by design: it derives the repairs from the
branch maps and never compares them against the listed ones.

Each constant is mutated in its one home, ``exact``: ``derive`` and
``verify`` read it through the exact certificate, ``enumerate`` and
``sample`` through the repaired maps of ``exact.repaired_map``.  Under
every constant mutant the exact certificate must still accept what the
einsum reference accepts.

A sign-flip mutant negates any subset of the nonzero entries of the
channel's or the Bell basis's sign table at once.  Negating a whole ket (the
channel, or one Bell state) is a global phase, which no repair can notice;
every other pattern must fail ``verify`` in at least one scheme.

``enumerate`` and ``sample`` map each input once per class of the listed
repairs' maps (``floatpath.repair_branches``): one class under the real
tables, more under most sign-flip patterns, where every report must still
equal the 16-map reference's byte for byte.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

import einsum_certificate
from clusterport import BELL_OUTCOMES, CorrectionOp, RunConfig, Scheme, exact, harness, run
from clusterport.exact import (
    PAULI_NAMES, branch_maps, certified_repairs, repaired_map, table_lookup,
)
from test_corrections import z_twin
from test_harness import assert_same_branches, reference_run

CELLS = [(a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES]
PAIRS = [(p4, p5) for p4 in PAULI_NAMES for p5 in PAULI_NAMES]
MODES = {
    "enumerate": {"random_inputs": 20},
    "sample": {"trials": 2000},
    "derive": {},
    "verify": {},
}

# (mutant count, kills per mode) for each scheme
TABLE_KILLS = {
    Scheme.SPECIAL: (240, {"enumerate": 224, "sample": 224, "derive": 0, "verify": 224}),
    Scheme.ARBITRARY: (240, {"enumerate": 240, "sample": 240, "derive": 0, "verify": 240}),
}
# the values an entry of each mutated ``exact`` constant may take
CONSTANT_VALUES = {
    "CLUSTER_SIGNS": (-1, 0, 1),
    "BELL_SIGNS": (-1, 0, 1),
    "_CZ_DIAG": (1, -1, 1j, -1j, 0),
}
CONSTANT_KILLS = {
    ("CLUSTER_SIGNS", Scheme.SPECIAL):
        (32, {"enumerate": 32, "sample": 32, "derive": 28, "verify": 32}),
    ("CLUSTER_SIGNS", Scheme.ARBITRARY):
        (32, {"enumerate": 32, "sample": 32, "derive": 32, "verify": 32}),
    ("BELL_SIGNS", Scheme.SPECIAL):
        (32, {"enumerate": 32, "sample": 32, "derive": 24, "verify": 32}),
    ("BELL_SIGNS", Scheme.ARBITRARY):
        (32, {"enumerate": 32, "sample": 32, "derive": 24, "verify": 32}),
    # scheme-1 repairs apply no controlled-phase: every CZ mutant is
    # equivalent there
    ("_CZ_DIAG", Scheme.SPECIAL):
        (16, {"enumerate": 0, "sample": 0, "derive": 0, "verify": 0}),
    ("_CZ_DIAG", Scheme.ARBITRARY):
        (16, {"enumerate": 16, "sample": 16, "derive": 16, "verify": 16}),
}
CHECKING_MODES = {"enumerate", "sample", "verify"}


def failing_modes(scheme):
    """The modes whose run fails under the current (mutated) package."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return {
            mode for mode, kwargs in MODES.items()
            if not run(RunConfig(scheme=scheme, mode=mode, **kwargs)).passed
        }


def table_mutants(scheme):
    """(cell, pair): the cell's first listed repair replaced by ``pair``."""
    for cell in CELLS:
        first = table_lookup(scheme, *cell)[0]
        yield from ((cell, pair) for pair in PAIRS if pair != (first.p4, first.p5))


def equivalent_table_mutants(scheme):
    """The Z-twin of each first listed scheme-1 repair: on the |00>/|11>
    span it differs from the listed repair by a global phase only."""
    if scheme is Scheme.ARBITRARY:
        return set()
    firsts = (table_lookup(scheme, *cell)[0] for cell in CELLS)
    return {(cell, z_twin((op.p4, op.p5))) for cell, op in zip(CELLS, firsts)}


def kills_of_table_mutant(monkeypatch, scheme, cell, pair):
    def mutated(s, o13, o26):
        ops = table_lookup(s, o13, o26)
        if (o13, o26) == cell:
            ops[0] = CorrectionOp(*pair, cz_first=ops[0].cz_first)
        return ops

    with monkeypatch.context() as mp:
        mp.setattr(harness, "table_lookup", mutated)
        return failing_modes(scheme)


def replaced(table, index, value):
    """The nested tuple ``table`` with its entry at ``index`` set to ``value``."""
    if not index:
        return value
    i, *rest = index
    return tuple(replaced(t, rest, value) if k == i else t for k, t in enumerate(table))


def constant_mutants(name):
    """(index, value): one entry of the ``exact`` constant ``name`` set to
    another of its ``CONSTANT_VALUES``."""
    table = np.array(getattr(exact, name), dtype=object)
    for index in np.ndindex(table.shape):
        yield from ((index, v) for v in CONSTANT_VALUES[name] if v != table[index])


def clear_caches():
    """Drop what ``exact`` built from the constants, so they are read again."""
    branch_maps.cache_clear()
    certified_repairs.cache_clear()
    repaired_map.cache_clear()


def certificates_agree():
    """Whether the exact certificate accepts, for every (cz_first, scheme)
    pair, the sets the einsum reference accepts."""
    return all(
        [{(op.p4, op.p5) for op in cell} for cell in certified_repairs(cz, scheme)]
        == einsum_certificate.certified_pairs(cz, scheme)
        for cz in (False, True) for scheme in Scheme
    )


def kills_of_constant_mutant(monkeypatch, scheme, name, index, value):
    table = replaced(getattr(exact, name), index, value)
    try:
        with monkeypatch.context() as mp:
            mp.setattr(exact, name, table)
            clear_caches()
            assert certificates_agree(), (name, index, value)
            return failing_modes(scheme)
    finally:
        clear_caches()  # after the restore: rebuild from the real tables


def tally(kills):
    return {mode: sum(mode in k for k in kills) for mode in MODES}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_table_mutants(monkeypatch, scheme):
    mutants = list(table_mutants(scheme))
    kills = [kills_of_table_mutant(monkeypatch, scheme, *m) for m in mutants]
    assert (len(mutants), tally(kills)) == TABLE_KILLS[scheme]
    # every mutant that a checking mode lets through is an equivalent repair
    survivors = {m for m, k in zip(mutants, kills) if not CHECKING_MODES & k}
    assert survivors == equivalent_table_mutants(scheme)
    assert all(k == CHECKING_MODES for m, k in zip(mutants, kills) if m not in survivors)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("name", list(CONSTANT_VALUES))
def test_constant_mutants(monkeypatch, name, scheme):
    maps = branch_maps()
    mutants = list(constant_mutants(name))
    kills = [kills_of_constant_mutant(monkeypatch, scheme, name, *m) for m in mutants]
    assert (len(mutants), tally(kills)) == CONSTANT_KILLS[name, scheme]
    # a non-equivalent mutant fails every checking mode
    if (name, scheme) != ("_CZ_DIAG", Scheme.SPECIAL):
        assert all(CHECKING_MODES <= k for k in kills)
    # the real tables are back, and the maps are rebuilt from them
    assert branch_maps() is not maps and branch_maps() == maps
    assert certificates_agree()
    assert failing_modes(scheme) == set()


# (patterns, global-phase patterns, failed runs per (mode, scheme)) for
# every sign pattern of each table's nonzero entries, the identity included
SIGN_FLIP_FAILURES = {
    "CLUSTER_SIGNS": (16, 2, {
        ("derive", Scheme.SPECIAL): 0, ("verify", Scheme.SPECIAL): 12,
        ("derive", Scheme.ARBITRARY): 8, ("verify", Scheme.ARBITRARY): 14,
    }),
    "BELL_SIGNS": (256, 16, {
        ("derive", Scheme.SPECIAL): 0, ("verify", Scheme.SPECIAL): 224,
        ("derive", Scheme.ARBITRARY): 0, ("verify", Scheme.ARBITRARY): 240,
    }),
}


def sign_flip_mutants(name):
    """(table, global_phase): the ``exact`` constant ``name`` with each
    sign pattern on its nonzero entries, and whether the pattern flips every
    ket alike (the channel, or each Bell state ``BELL_SIGNS[k]``)."""
    table = getattr(exact, name)
    signs = np.array(table)
    nonzero = [tuple(i) for i in np.argwhere(signs).tolist()]
    for flips in itertools.product((1, -1), repeat=len(nonzero)):
        mutated, kets = table, {}
        for index, flip in zip(nonzero, flips):
            mutated = replaced(mutated, index, flip * int(signs[index]))
            kets.setdefault(index[0] if name == "BELL_SIGNS" else None, set()).add(flip)
        yield mutated, all(len(ket) == 1 for ket in kets.values())


@pytest.mark.parametrize("name", list(SIGN_FLIP_FAILURES))
def test_sign_flip_mutants(monkeypatch, name):
    failures, passing_verify, global_phases = Counter(), [], []
    try:
        for table, global_phase in sign_flip_mutants(name):
            with monkeypatch.context() as mp:
                mp.setattr(exact, name, table)
                clear_caches()
                failed = {
                    (mode, scheme) for mode in ("derive", "verify") for scheme in Scheme
                    if not run(RunConfig(scheme=scheme, mode=mode)).passed
                }
            failures.update(failed)
            passing_verify.append(all(mode != "verify" for mode, _ in failed))
            global_phases.append(global_phase)
    finally:
        clear_caches()  # after the restore: rebuild from the real tables
    patterns, phases, expected = SIGN_FLIP_FAILURES[name]
    assert (len(global_phases), sum(global_phases)) == (patterns, phases)
    assert global_phases[0]  # the identity pattern comes first
    # exactly the global-phase patterns pass verify in both schemes
    assert passing_verify == global_phases
    assert {key: failures[key] for key in expected} == expected


# the classes of the listed repairs' maps per scheme under a sign-flip
# pattern, and how many patterns of each table give each count
CLASS_COUNTS = {
    "CLUSTER_SIGNS": {(1, 1): 8, (2, 4): 8},
    "BELL_SIGNS": {(1, 1): 32, (2, 4): 224},
}
# a pattern of each table that splits the classes, by its place in
# sign_flip_mutants, and its class count per scheme
SPLIT_PATTERN = {"CLUSTER_SIGNS": 1, "BELL_SIGNS": 1}
SPLIT_CLASSES = {Scheme.SPECIAL: 2, Scheme.ARBITRARY: 4}


def class_count(scheme):
    """The classes a run of ``scheme`` maps its input through, under the
    constants as they are now."""
    return run(RunConfig(scheme=scheme, mode="sample", trials=1)).outputs.shape[1]


@pytest.mark.parametrize("name", list(CLASS_COUNTS))
def test_sign_flips_split_the_classes(monkeypatch, name):
    # the classes are keyed on the repaired maps' values, so clear_caches,
    # which rebuilds the maps, is all a changed constant needs
    counts = Counter()
    try:
        for table, _ in sign_flip_mutants(name):
            with monkeypatch.context() as mp:
                mp.setattr(exact, name, table)
                clear_caches()
                counts[tuple(map(class_count, Scheme))] += 1
    finally:
        clear_caches()
    assert counts == CLASS_COUNTS[name]
    assert [class_count(scheme) for scheme in Scheme] == [1, 1]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("name", list(SPLIT_PATTERN))
def test_split_classes_report_the_reference_bytes(monkeypatch, name, scheme):
    table, _ = next(itertools.islice(sign_flip_mutants(name), SPLIT_PATTERN[name], None))
    try:
        with monkeypatch.context() as mp:
            mp.setattr(exact, name, table)
            clear_caches()
            assert class_count(scheme) == SPLIT_CLASSES[scheme]
            for mode, fmt in itertools.product(("enumerate", "sample"), harness.FORMATS):
                cfg = RunConfig(scheme=scheme, mode=mode, seed=7, output_format=fmt)
                report = run(cfg)
                assert not report.passed
                assert_same_branches(report, reference_run(monkeypatch, cfg))
    finally:
        clear_caches()
