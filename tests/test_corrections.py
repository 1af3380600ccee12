import math

import numpy as np
import pytest

import dense_oracle
from clusterport import (
    BELL_OUTCOMES,
    BellOutcome,
    Scheme,
    apply_correction,
    assemble_total,
    collapse_branch,
    derive_corrections,
    fidelity,
    pauli_pair_fidelities,
    random_input,
    table_lookup,
    target_state,
    verify_tables,
)
from clusterport import protocol
from clusterport.protocol import _certified_pairs, branch_maps, certify

PHI_P = BellOutcome.PHI_PLUS
PHI_M = BellOutcome.PHI_MINUS
PSI_P = BellOutcome.PSI_PLUS
PSI_M = BellOutcome.PSI_MINUS

ALL_PAIRS = [(a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES]

# Multiplying both Paulis of a pair by Z changes the repair only by a global
# phase on the alpha|00> + delta|11> subspace, swapping I<->Z and X<->Y.
_Z_TWIN = {"I": "Z", "Z": "I", "X": "Y", "Y": "X"}


def z_twin(pair):
    return (_Z_TWIN[pair[0]], _Z_TWIN[pair[1]])


def reject_everything(products, scheme):
    """A broken ``protocol.certify`` that certifies no repair at all."""
    return np.zeros(products.shape[:-2], dtype=bool)


class TestTableLookup:
    def test_scheme1_dual_cell(self):
        ops = table_lookup(Scheme.SPECIAL, PHI_P, PHI_P)
        assert [str(op) for op in ops] == ["IZ", "ZI"]
        assert all(not op.cz_first for op in ops)

    def test_scheme2_cells(self):
        assert [str(op) for op in table_lookup(Scheme.ARBITRARY, PHI_P, PHI_P)] == ["CZ+II"]
        assert [str(op) for op in table_lookup(Scheme.ARBITRARY, PSI_M, PSI_M)] == ["CZ+YY"]
        assert all(
            op.cz_first
            for o13, o26 in ALL_PAIRS
            for op in table_lookup(Scheme.ARBITRARY, o13, o26)
        )

    def test_scheme1_has_eight_dual_cells(self):
        dual = [
            (o13, o26)
            for o13, o26 in ALL_PAIRS
            if len(table_lookup(Scheme.SPECIAL, o13, o26)) == 2
        ]
        assert len(dual) == 8

    def test_dual_entries_are_z_twins(self):
        for o13, o26 in ALL_PAIRS:
            ops = table_lookup(Scheme.SPECIAL, o13, o26)
            if len(ops) == 2:
                assert (ops[1].p4, ops[1].p5) == z_twin((ops[0].p4, ops[0].p5))

    def test_scheme2_all_sixteen_distinct(self):
        pairs = {
            (op.p4, op.p5)
            for o13, o26 in ALL_PAIRS
            for op in table_lookup(Scheme.ARBITRARY, o13, o26)
        }
        assert len(pairs) == 16

    def test_both_dual_alternatives_restore_input(self, rng):
        state = random_input(Scheme.SPECIAL, rng)
        target = target_state(state)
        for o13, o26 in ALL_PAIRS:
            _, remainder = collapse_branch(assemble_total(state), o13, o26)
            for op in table_lookup(Scheme.SPECIAL, o13, o26):
                out = apply_correction(remainder, op)
                assert fidelity(target, out) == pytest.approx(1.0, abs=1e-12)


class TestDeriveCorrections:
    def test_scheme1_rediscovers_both_listed(self):
        derived = derive_corrections(Scheme.SPECIAL, PHI_P, PHI_P)
        names = {str(op) for op in derived}
        assert {"IZ", "ZI"} <= names

    def test_scheme1_derived_set_is_listed_plus_twin(self):
        # on the restricted input family each survivor pairs with its
        # Z-twin, so every cell derives exactly two repairs
        for o13, o26 in ALL_PAIRS:
            derived = {
                (op.p4, op.p5)
                for op in derive_corrections(Scheme.SPECIAL, o13, o26)
            }
            first = table_lookup(Scheme.SPECIAL, o13, o26)[0]
            assert derived == {(first.p4, first.p5), z_twin((first.p4, first.p5))}

    def test_scheme2_unique_per_cell(self):
        for o13, o26 in ALL_PAIRS:
            derived = derive_corrections(Scheme.ARBITRARY, o13, o26)
            listed = table_lookup(Scheme.ARBITRARY, o13, o26)
            assert len(derived) == 1
            assert (derived[0].p4, derived[0].p5) == (listed[0].p4, listed[0].p5)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_nothing_certified_gives_empty_sets_and_mismatches(self, monkeypatch, scheme):
        monkeypatch.setattr(protocol, "certify", reject_everything)
        assert derive_corrections(scheme, PHI_P, PSI_M) == []
        entries = verify_tables(scheme).entries
        assert {e.verdict for e in entries} == {"mismatch"}
        assert all(e.derived == () for e in entries)

    def test_empty_or_malformed_inputs_rejected(self):
        with pytest.raises(ValueError):
            pauli_pair_fidelities(PHI_P, PHI_P, [], cz_first=False)
        with pytest.raises(ValueError):
            pauli_pair_fidelities(PHI_P, PHI_P, [[0.6, 0.8]], cz_first=False)
        with pytest.raises(ValueError):
            pauli_pair_fidelities(PHI_P, PHI_P, [0.5, 0.5, 0.5, 0.5], cz_first=False)


class TestBranchMaps:
    def test_maps_reproduce_dense_branches(self, rng):
        # linearity: the unnormalized dense remainder of any input is K_b v
        maps = branch_maps()
        assert not maps.flags.writeable
        for _ in range(5):
            state = random_input(Scheme.ARBITRARY, rng)
            v = np.array(state.coeffs)
            total = assemble_total(state)
            for i, o13 in enumerate(BELL_OUTCOMES):
                for j, o26 in enumerate(BELL_OUTCOMES):
                    p, remainder = collapse_branch(total, o13, o26)
                    np.testing.assert_allclose(
                        maps[i, j] @ v, math.sqrt(p) * remainder.amps, atol=1e-14
                    )

    def test_every_map_is_a_quarter_unitary(self):
        for k in branch_maps().reshape(16, 4, 4):
            np.testing.assert_allclose(16 * k.conj().T @ k, np.eye(4), atol=1e-14)

    def test_quadrupled_maps_are_signed_permutations(self):
        # 4K has integer entries -1, 0, 1 and (4K)^T (4K) = I holds exactly,
        # so every branch has probability 1/16 for every input
        m = 4 * branch_maps()
        assert not m.imag.any()
        signs = m.real.astype(int)
        assert np.array_equal(signs, m.real)
        assert set(np.unique(signs)) <= {-1, 0, 1}
        for k in signs.reshape(16, 4, 4):
            assert np.array_equal(k.T @ k, np.eye(4, dtype=int))

    def test_built_without_the_simulator(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("branch_maps called the dense simulator")

        before = branch_maps()
        for name in ("assemble_total", "collapse_branch", "project_bell", "tensor"):
            monkeypatch.setattr(protocol, name, boom)
        branch_maps.cache_clear()
        try:
            rebuilt = branch_maps()
        finally:
            branch_maps.cache_clear()
        assert rebuilt is not before
        assert np.array_equal(rebuilt, before)
        assert not rebuilt.flags.writeable


class TestCertificate:
    PHASES = (1, -1, 1j, -1j)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_accepts_every_unit_phase(self, scheme):
        stack = np.stack([c * np.eye(4) for c in self.PHASES])
        assert certify(stack, scheme).tolist() == [True] * 4

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rejects_scalars_off_the_unit_phases(self, scheme):
        stack = np.stack([c * np.eye(4) for c in (0, 2, -2j, 1 + 1j)]).astype(complex)
        assert not certify(stack, scheme).any()

    def test_rejects_unequal_phases(self):
        # a diagonal map keeps every basis state up to a scalar but is c I
        # only when the scalars agree
        stack = np.diag([1, 1, 1, -1])[None].astype(complex)
        assert not certify(stack, Scheme.ARBITRARY).any()
        assert not certify(stack, Scheme.SPECIAL).any()
        stack = np.diag([1, 1j, 1, 1])[None].astype(complex)
        assert not certify(stack, Scheme.ARBITRARY).any()

    def test_scheme1_ignores_the_columns_outside_its_span(self):
        # |01> and |10> are no scheme-1 input, so their columns are free
        m = np.diag([-1j, 1, 0, -1j]).astype(complex)
        m[0, 1] = 1
        assert certify(m[None], Scheme.SPECIAL).all()
        assert not certify(m[None], Scheme.ARBITRARY).any()

    def test_rejects_a_scheme1_block_that_leaks(self):
        # |00> stays put but |11> also feeds |01>: not c I on the span
        leak = np.eye(4, dtype=complex)
        leak[1, 3] = 1
        # X on both qubits swaps |00> and |11>: the span is kept, the
        # states are not
        swap = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(complex)
        assert not certify(np.stack([leak, swap]), Scheme.SPECIAL).any()


class TestTableCertificate:
    @pytest.mark.parametrize("cz", [False, True], ids=["pauli", "cz"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_row_is_the_per_cell_certificate(self, scheme, cz):
        # the whole-table stack certifies each cell as a stack of its own
        # 16 repairs would
        table = protocol._table_certificate(cz, scheme)
        assert table.shape == (16, 16)
        cz_diag = np.diag([1, 1, 1, -1])
        for cell, k in enumerate(branch_maps().reshape(16, 4, 4)):
            repaired = cz_diag @ (4 * k) if cz else 4 * k
            expected = certify(protocol._PAIR_OPS @ repaired, scheme)
            assert table[cell].tolist() == expected.tolist()


# (scheme whose inputs the certificate ranges over, dense probes standing for
# those inputs); the scheme-1 span is checked against both probe sets the
# brute force used for it
_ORACLE_FAMILIES = {
    "full": (Scheme.ARBITRARY, lambda seed: dense_oracle.scheme_probes(Scheme.ARBITRARY, seed)),
    "special": (Scheme.SPECIAL, lambda seed: dense_oracle.scheme_probes(Scheme.SPECIAL, seed)),
    "subspace": (Scheme.SPECIAL, dense_oracle.subspace_probes),
}


class TestExactAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("cz", [False, True], ids=["pauli", "cz"])
    @pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
    def test_derived_sets_match(self, family, cz, seed):
        scheme, probes_for = _ORACLE_FAMILIES[family]
        probes = probes_for(seed)
        for o13, o26 in ALL_PAIRS:
            expected = dense_oracle.surviving_pairs(
                dense_oracle.pair_fidelities(o13, o26, probes, cz)
            )
            assert set(_certified_pairs(o13, o26, cz, scheme)) == expected
            if cz is (scheme is Scheme.ARBITRARY):
                derived = {(op.p4, op.p5) for op in derive_corrections(scheme, o13, o26)}
                assert derived == expected


class TestVerifyTables:
    def test_scheme2_all_exact(self):
        report = verify_tables(Scheme.ARBITRARY)
        assert report.all_exact
        assert len(report.entries) == 16
        for entry in report.entries:
            assert entry.verdict == "exact-up-to-global-phase"
            assert len(entry.derived) == 1
            assert entry.subspace_only == ()

    def test_scheme1_all_exact_with_subspace_flags(self):
        report = verify_tables(Scheme.SPECIAL)
        assert report.all_exact
        flagged = [e for e in report.entries if e.subspace_only]
        assert len(flagged) == 14

    def test_scheme1_universal_entries_match_scheme2_table(self):
        # a listed scheme-1 repair keeps working on arbitrary inputs (with
        # the controlled-phase included) exactly when it is the repair the
        # scheme-2 table assigns to the same branch; everything else is
        # confined to the restricted input family
        report = verify_tables(Scheme.SPECIAL)
        for entry in report.entries:
            t2 = table_lookup(Scheme.ARBITRARY, entry.outcome13, entry.outcome26)[0]
            expected_flags = tuple(
                op for op in entry.listed if (op.p4, op.p5) != (t2.p4, t2.p5)
            )
            assert entry.subspace_only == expected_flags

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_verify_and_derive_agree_in_every_cell(self, scheme):
        for entry in verify_tables(scheme).entries:
            derived = derive_corrections(scheme, entry.outcome13, entry.outcome26)
            assert list(entry.derived) == derived

    def test_a_cell_with_nothing_derived_is_a_mismatch(self, monkeypatch):
        # the scheme-2 repairs still pass the span-only certificate, which
        # alone would make every cell subspace-only
        monkeypatch.setattr(protocol, "_derived_table", lambda scheme: [[] for _ in range(16)])
        assert {e.verdict for e in verify_tables(Scheme.ARBITRARY).entries} == {"mismatch"}

    def test_subspace_only_spot_check(self):
        # branch (Phi+, Phi+), repair I on 4 / Z on 5: perfect on the
        # restricted family, fidelity 0 on the uniform superposition
        probe = [[0.5, 0.5, 0.5, 0.5]]
        worst = pauli_pair_fidelities(PHI_P, PHI_P, probe, cz_first=True)
        assert worst[("I", "Z")] == pytest.approx(0.0, abs=1e-12)
        assert worst[("I", "I")] == pytest.approx(1.0, abs=1e-12)


class TestCzNecessity:
    def test_no_pauli_pair_suffices_without_cz(self):
        # dropping the controlled-phase step leaves every branch broken: no
        # Pauli pair times 4K is c I, and no pair reaches a worst-case
        # fidelity anywhere near 1 on the seeded probes, through the branch
        # maps and through the dense brute force alike
        probes = dense_oracle.scheme_probes(Scheme.ARBITRARY, 1851)
        for o13, o26 in ALL_PAIRS:
            assert _certified_pairs(o13, o26, False, Scheme.ARBITRARY) == []
            exact = pauli_pair_fidelities(o13, o26, [p.amps for p in probes], False)
            dense = dense_oracle.pair_fidelities(o13, o26, probes, cz_first=False)
            assert max(exact.values()) < 1 - 1e-6
            assert max(dense.values()) < 1 - 1e-6
