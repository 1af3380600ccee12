import math

import numpy as np
import pytest

import dense_oracle
import einsum_certificate
from clusterport import (
    BELL_OUTCOMES,
    BellOutcome,
    CorrectionOp,
    RunConfig,
    Scheme,
    exact,
    harness,
    protocol,
    run,
    table_lookup,
)
from clusterport.exact import PAULI_PAIRS, certified_repairs
from clusterport.protocol import (
    apply_correction,
    assemble_total,
    collapse_branch,
    pauli_pair_fidelities,
    random_input,
    target_state,
)
from clusterport.statevec import fidelity
from einsum_certificate import branch_maps, certify, repair_matrices, repair_stack

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


def reject_everything(cz, scheme):
    """A broken ``harness.certified_repairs`` that certifies no repair at all."""
    return [[] for _ in range(16)]


def certified_pairs(cz, scheme, cell):
    """The Pauli pairs that one cell of the exact certificate accepts."""
    return {(op.p4, op.p5) for op in certified_repairs(cz, scheme)[cell]}


def derived_table(scheme):
    """The derived repairs of every cell: the certificate under the
    scheme's own CZ step."""
    return certified_repairs(scheme is Scheme.ARBITRARY, scheme)


def patch_derived_table(monkeypatch, fake):
    """Make ``harness`` see ``fake(scheme)`` as the derived table, leaving
    the other certificate that ``verify`` reads untouched."""
    real = exact.certified_repairs

    def patched(cz, scheme):
        return fake(scheme) if cz is (scheme is Scheme.ARBITRARY) else real(cz, scheme)

    monkeypatch.setattr(harness, "certified_repairs", patched)


def verify_rows(scheme):
    return run(RunConfig(scheme=scheme, mode="verify")).verdicts


def twins_only(scheme):
    """A derived table that holds, in every cell, only the Z-twin of the
    first listed repair."""
    firsts = (table_lookup(scheme, o13, o26)[0] for o13, o26 in ALL_PAIRS)
    return [[CorrectionOp(*z_twin((op.p4, op.p5)), cz_first=op.cz_first)] for op in firsts]


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

    def test_a_scheme_reads_as_its_member_or_its_value(self):
        for o13, o26 in ALL_PAIRS:
            for scheme in Scheme:
                assert table_lookup(int(scheme), o13, o26) == table_lookup(scheme, o13, o26)
        for bad in (0, 3, "2", [2], None):
            with pytest.raises(ValueError):
                table_lookup(bad, PHI_P, PHI_P)

    def test_each_lookup_is_a_fresh_list(self):
        ops = table_lookup(Scheme.SPECIAL, PHI_P, PHI_P)
        ops[0] = ops.pop()
        assert [str(op) for op in table_lookup(Scheme.SPECIAL, PHI_P, PHI_P)] == ["IZ", "ZI"]

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
        derived = derived_table(Scheme.SPECIAL)[ALL_PAIRS.index((PHI_P, PHI_P))]
        names = {str(op) for op in derived}
        assert {"IZ", "ZI"} <= names

    def test_scheme1_derived_set_is_listed_plus_twin(self):
        # on the restricted input family each survivor pairs with its
        # Z-twin, so every cell derives exactly two repairs
        for (o13, o26), cell in zip(ALL_PAIRS, derived_table(Scheme.SPECIAL)):
            derived = {(op.p4, op.p5) for op in cell}
            first = table_lookup(Scheme.SPECIAL, o13, o26)[0]
            assert derived == {(first.p4, first.p5), z_twin((first.p4, first.p5))}

    def test_scheme2_unique_per_cell(self):
        for (o13, o26), derived in zip(ALL_PAIRS, derived_table(Scheme.ARBITRARY)):
            listed = table_lookup(Scheme.ARBITRARY, o13, o26)
            assert len(derived) == 1
            assert (derived[0].p4, derived[0].p5) == (listed[0].p4, listed[0].p5)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_nothing_certified_gives_empty_sets_and_mismatches(self, monkeypatch, scheme):
        monkeypatch.setattr(harness, "certified_repairs", reject_everything)
        derived = run(RunConfig(scheme=scheme, mode="derive")).verdicts
        assert derived[ALL_PAIRS.index((PHI_P, PSI_M))]["derived"] == []
        rows = verify_rows(scheme)
        assert {row["verdict"] for row in rows} == {"mismatch"}
        assert all(row["derived"] == [] for row in rows)

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

        before = exact.branch_maps()
        for name in ("assemble_total", "collapse_branch", "project_bell", "tensor"):
            monkeypatch.setattr(protocol, name, boom)
        exact.branch_maps.cache_clear()
        try:
            rebuilt = exact.branch_maps()
        finally:
            exact.branch_maps.cache_clear()
        assert rebuilt is not before
        assert rebuilt == before
        assert np.array_equal(4 * branch_maps().reshape(16, 4, 4), rebuilt)

    def test_integer_maps_are_the_float_maps_times_four(self):
        ints = exact.branch_maps()
        assert all(type(x) is int for k in ints for row in k for x in row)
        assert np.array_equal(4 * branch_maps().reshape(16, 4, 4), ints)


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


class TestExactCertificate:
    """``exact.certified_repairs`` on crafted matrices in place of every 4K,
    next to the einsum reference, which reads the same maps."""

    @pytest.fixture
    def maps_as(self, monkeypatch):
        def use(matrix):
            rows = tuple(map(tuple, np.asarray(matrix, dtype=complex).tolist()))
            monkeypatch.setattr(exact, "branch_maps", lambda: (rows,) * 16)
            certified_repairs.cache_clear()

        yield use
        certified_repairs.cache_clear()

    @staticmethod
    def certified(cz, scheme):
        sets = [{(op.p4, op.p5) for op in cell} for cell in certified_repairs(cz, scheme)]
        assert sets == einsum_certificate.certified_pairs(cz, scheme)
        return sets[0]

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("c", TestCertificate.PHASES)
    def test_accepts_every_unit_phase(self, maps_as, scheme, c):
        maps_as(c * np.eye(4))
        assert ("I", "I") in self.certified(False, scheme)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("c", [0, 2, -2j, 1 + 1j])
    def test_rejects_scalars_off_the_unit_phases(self, maps_as, scheme, c):
        maps_as(c * np.eye(4))
        assert self.certified(False, scheme) == self.certified(True, scheme) == set()

    def test_unequal_phases_need_their_repair(self, maps_as):
        # the CZ diagonal itself: only the CZ step undoes it on every input
        maps_as(np.diag([1, 1, 1, -1]))
        assert self.certified(False, Scheme.ARBITRARY) == set()
        assert self.certified(True, Scheme.ARBITRARY) == {("I", "I")}

    def test_scheme1_ignores_the_columns_outside_its_span(self, maps_as):
        m = np.diag([-1j, 1, 0, -1j])
        m[0, 1] = 1
        maps_as(m)
        assert ("I", "I") in self.certified(False, Scheme.SPECIAL)
        assert self.certified(False, Scheme.ARBITRARY) == set()

    def test_rejects_a_scheme1_block_that_leaks(self, maps_as):
        leak = np.eye(4)
        leak[1, 3] = 1
        maps_as(leak)
        assert ("I", "I") not in self.certified(False, Scheme.SPECIAL)
        # X on both qubits swaps |00> and |11>: XX undoes it, II does not
        maps_as(np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]))
        assert ("X", "X") in self.certified(False, Scheme.SPECIAL)
        assert ("I", "I") not in self.certified(False, Scheme.SPECIAL)


class TestTableCertificate:
    @pytest.mark.parametrize("cz", [False, True], ids=["pauli", "cz"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_row_is_the_per_cell_certificate(self, scheme, cz):
        # the whole-table stack of the einsum reference certifies each cell
        # as a stack of its own 16 repairs would, and each product in it is
        # the repaired map enumerate and sample apply
        stack = repair_stack(cz)
        assert stack.shape == (16, 16, 4, 4)
        table = certify(stack, scheme)
        cz_diag = np.diag([1, 1, 1, -1])
        for cell, k in enumerate(branch_maps().reshape(16, 4, 4)):
            repaired = cz_diag @ (4 * k) if cz else 4 * k
            for pair, (p4, p5) in enumerate(PAULI_PAIRS):
                op = CorrectionOp(p4, p5, cz_first=cz)
                assert np.array_equal(stack[cell, pair], repair_matrices([op])[0] @ (4 * k))
                assert np.array_equal(stack[cell, pair], exact.repaired_map(op, cell))
            expected = certify(einsum_certificate.PAIR_OPS @ repaired, scheme)
            assert table[cell].tolist() == expected.tolist()

    @pytest.mark.parametrize("cz", [False, True], ids=["pauli", "cz"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_certified_repairs_read_the_table(self, scheme, cz):
        # the exact certificate accepts what the einsum reference accepts,
        # in PAULI_PAIRS order
        table = certify(repair_stack(cz), scheme)
        for row, cell in zip(table, certified_repairs(cz, scheme)):
            assert cell == tuple(
                CorrectionOp(p4, p5, cz_first=cz)
                for (p4, p5), good in zip(PAULI_PAIRS, row) if good
            )

    def test_built_once_per_argument_pair(self):
        assert certified_repairs(True, Scheme.ARBITRARY) is certified_repairs(True, Scheme.ARBITRARY)
        assert certified_repairs(True, Scheme.ARBITRARY) is not certified_repairs(True, Scheme.SPECIAL)


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
        reference = einsum_certificate.certified_pairs(cz, scheme)
        for cell, (o13, o26) in enumerate(ALL_PAIRS):
            expected = dense_oracle.surviving_pairs(
                dense_oracle.pair_fidelities(o13, o26, probes, cz)
            )
            assert certified_pairs(cz, scheme, cell) == reference[cell] == expected
            if cz is (scheme is Scheme.ARBITRARY):
                derived = {(op.p4, op.p5) for op in derived_table(scheme)[cell]}
                assert derived == expected


class TestVerifyTables:
    def test_scheme2_all_exact(self):
        report = run(RunConfig(scheme=Scheme.ARBITRARY, mode="verify"))
        assert report.aggregates["exact"] == 16
        assert len(report.verdicts) == 16
        for row in report.verdicts:
            assert row["verdict"] == "exact-up-to-global-phase"
            assert len(row["derived"]) == 1
            assert row["subspace_only"] == []

    def test_scheme1_all_exact_with_subspace_flags(self):
        rows = verify_rows(Scheme.SPECIAL)
        assert {row["verdict"] for row in rows} == {"exact-up-to-global-phase"}
        flagged = [row for row in rows if row["subspace_only"]]
        assert len(flagged) == 14

    def test_scheme1_universal_entries_match_scheme2_table(self):
        # a listed scheme-1 repair keeps working on arbitrary inputs (with
        # the controlled-phase included) exactly when it is the repair the
        # scheme-2 table assigns to the same branch; everything else is
        # confined to the restricted input family
        for (o13, o26), row in zip(ALL_PAIRS, verify_rows(Scheme.SPECIAL)):
            t2 = table_lookup(Scheme.ARBITRARY, o13, o26)[0]
            listed = table_lookup(Scheme.SPECIAL, o13, o26)
            assert row["listed"] == [str(op) for op in listed]
            expected_flags = [str(op) for op in listed if (op.p4, op.p5) != (t2.p4, t2.p5)]
            assert row["subspace_only"] == expected_flags

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_verify_and_derive_agree_in_every_cell(self, scheme):
        derived = run(RunConfig(scheme=scheme, mode="derive")).verdicts
        for row, cell, derive_row in zip(verify_rows(scheme), derived_table(scheme), derived):
            assert row["derived"] == [str(op) for op in cell] == derive_row["derived"]

    def test_a_cell_with_nothing_derived_is_a_mismatch(self, monkeypatch):
        # the scheme-2 repairs still pass the span-only certificate, which
        # alone would make every cell subspace-only
        patch_derived_table(monkeypatch, lambda scheme: [[] for _ in range(16)])
        assert {row["verdict"] for row in verify_rows(Scheme.ARBITRARY)} == {"mismatch"}

    def test_scheme2_repair_left_underived_is_subspace_only(self, monkeypatch):
        # a listed scheme-2 repair is still certified on the |00>/|11> span,
        # so missing from the derived set it reads subspace-only; that
        # breaks the claim for arbitrary inputs, so the run fails
        patch_derived_table(monkeypatch, twins_only)
        report = run(RunConfig(scheme=Scheme.ARBITRARY, mode="verify"))
        assert {row["verdict"] for row in report.verdicts} == {"subspace-only"}
        assert report.aggregates["subspace_only"] == 16
        assert report.aggregates["mismatch"] == 0
        assert not report.passed

    def test_scheme1_repair_left_underived_is_a_mismatch(self, monkeypatch):
        # scheme 1 has no narrower input family to fall back on
        patch_derived_table(monkeypatch, twins_only)
        report = run(RunConfig(scheme=Scheme.SPECIAL, mode="verify"))
        assert {row["verdict"] for row in report.verdicts} == {"mismatch"}
        assert report.aggregates["mismatch"] == 16
        assert not report.passed

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
        for cell, (o13, o26) in enumerate(ALL_PAIRS):
            assert certified_pairs(False, Scheme.ARBITRARY, cell) == set()
            exact = pauli_pair_fidelities(o13, o26, [p.amps for p in probes], False)
            dense = dense_oracle.pair_fidelities(o13, o26, probes, cz_first=False)
            assert max(exact.values()) < 1 - 1e-6
            assert max(dense.values()) < 1 - 1e-6
