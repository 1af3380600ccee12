import numpy as np
import pytest

import dense_oracle
from clusterport import (
    BELL_OUTCOMES,
    BellOutcome,
    CorrectionOp,
    InputState,
    RunConfig,
    Scheme,
    table_lookup,
)
from clusterport.gates import apply_cz
from clusterport.harness import MAX_RANDOM_INPUTS, run_enumeration
from clusterport.floatpath import random_inputs
from clusterport.protocol import (
    apply_correction,
    assemble_total,
    cluster_state,
    collapse_branch,
    make_input,
    random_input,
    target_state,
)
from clusterport.statevec import StateVector, fidelity, format_state
from einsum_certificate import branch_maps, repair_matrices

PHI_P = BellOutcome.PHI_PLUS
PHI_M = BellOutcome.PHI_MINUS
PSI_P = BellOutcome.PSI_PLUS
PSI_M = BellOutcome.PSI_MINUS

ALL_PAIRS = [(a, b) for a in BELL_OUTCOMES for b in BELL_OUTCOMES]

SIGN = {PHI_P: 1, PHI_M: -1, PSI_P: 1, PSI_M: -1}


def is_phi(o):
    return o in (PHI_P, PHI_M)


def expected_collapse(scheme, o13, o26, coeffs, post_cz):
    """Analytic post-measurement state on (4, 5), read straight off the
    branch sign rules; an independent check on the projection pipeline.

    Scheme 1 amplitude layout over |00>,|01>,|10>,|11> by measured case:
      (Phi, Phi): alpha, 0, 0, -s1*s2*delta
      (Phi, Psi): 0, alpha, s1*s2*delta, 0
      (Psi, Phi): 0, s1*s2*delta, alpha, 0
      (Psi, Psi): s1*s2*delta, 0, 0, -alpha
    Scheme 2 before the controlled-phase:
      (Phi, Phi): alpha,    s2*beta,  s1*gamma, -s1*s2*delta
      (Phi, Psi): s2*beta,  alpha,    s1*s2*delta, -s1*gamma
      (Psi, Phi): s1*gamma, s1*s2*delta, alpha,  -s2*beta
      (Psi, Psi): s1*s2*delta, s1*gamma, s2*beta, -alpha
    and the controlled-phase flips the |11> sign.
    """
    s1, s2 = SIGN[o13], SIGN[o26]
    if scheme is Scheme.SPECIAL:
        alpha, delta = coeffs
        if is_phi(o13) and is_phi(o26):
            amps = [alpha, 0, 0, -s1 * s2 * delta]
        elif is_phi(o13):
            amps = [0, alpha, s1 * s2 * delta, 0]
        elif is_phi(o26):
            amps = [0, s1 * s2 * delta, alpha, 0]
        else:
            amps = [s1 * s2 * delta, 0, 0, -alpha]
    else:
        alpha, beta, gamma, delta = coeffs
        if is_phi(o13) and is_phi(o26):
            amps = [alpha, s2 * beta, s1 * gamma, -s1 * s2 * delta]
        elif is_phi(o13):
            amps = [s2 * beta, alpha, s1 * s2 * delta, -s1 * gamma]
        elif is_phi(o26):
            amps = [s1 * gamma, s1 * s2 * delta, alpha, -s2 * beta]
        else:
            amps = [s1 * s2 * delta, s1 * gamma, s2 * beta, -alpha]
    amps = np.array(amps, dtype=complex)
    if post_cz:
        amps[3] = -amps[3]
    return StateVector((4, 5), amps)


class TestChannelAndInput:
    def test_cluster_amplitudes(self):
        c = cluster_state()
        assert c.labels == (3, 4, 5, 6)
        expected = np.zeros(16)
        expected[[0, 3, 12]] = 0.5
        expected[15] = -0.5
        np.testing.assert_allclose(c.amps, expected, atol=0)
        assert c.norm() == pytest.approx(1.0, abs=1e-15)

    def test_make_input_special(self):
        s = make_input(InputState(Scheme.SPECIAL, (0.6, 0.8)))
        assert s.labels == (1, 2)
        np.testing.assert_allclose(s.amps, [0.6, 0, 0, 0.8], atol=0)

    def test_make_input_complex_coeffs(self):
        s = make_input(InputState(Scheme.SPECIAL, (3 / 5, 4j / 5)))
        np.testing.assert_allclose(s.amps, [0.6, 0, 0, 0.8j], atol=1e-15)

    def test_make_input_arbitrary_layout(self):
        s = make_input(InputState(Scheme.ARBITRARY, (0.5, 0.5j, -0.5, -0.5j)))
        np.testing.assert_allclose(s.amps, [0.5, 0.5j, -0.5, -0.5j], atol=0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            InputState(Scheme.SPECIAL, (1, 1))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            InputState(Scheme.SPECIAL, (1, 0, 0, 0))
        with pytest.raises(ValueError):
            InputState(Scheme.ARBITRARY, (1, 0))

    def test_renormalized(self):
        s = InputState.renormalized(Scheme.SPECIAL, (1, 1))
        assert abs(s.coeffs[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_target_state_relabels(self):
        t = target_state(InputState(Scheme.SPECIAL, (0.6, 0.8)))
        assert t.labels == (4, 5)
        np.testing.assert_allclose(t.amps, [0.6, 0, 0, 0.8], atol=0)

    def test_assemble_total_expansion(self):
        # (alpha|00> + delta|11>) tensor the channel: eight terms of
        # magnitude |c|/2, minus signs exactly where the channel has its
        # |1111> term
        alpha, delta = 0.6, 0.8
        total = assemble_total(InputState(Scheme.SPECIAL, (alpha, delta)))
        assert total.labels == (1, 2, 3, 4, 5, 6)
        expected = np.zeros(64, dtype=complex)
        for base, coeff in ((0, alpha), (48, delta)):
            expected[base + 0] = coeff / 2
            expected[base + 3] = coeff / 2
            expected[base + 12] = coeff / 2
            expected[base + 15] = -coeff / 2
        np.testing.assert_allclose(total.amps, expected, atol=1e-15)


class TestCollapseSigns:
    """The projection pipeline must reproduce the analytic branch states."""

    @pytest.mark.parametrize("o13,o26", ALL_PAIRS)
    def test_scheme1_branches(self, o13, o26, rng):
        for _ in range(3):
            state = random_input(Scheme.SPECIAL, rng)
            prob, remainder = collapse_branch(assemble_total(state), o13, o26)
            assert prob == pytest.approx(1 / 16, abs=1e-12)
            expected = expected_collapse(Scheme.SPECIAL, o13, o26, state.coeffs, False)
            assert fidelity(expected, remainder) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("o13,o26", ALL_PAIRS)
    def test_scheme2_branches_pre_and_post_cz(self, o13, o26, rng):
        for _ in range(3):
            state = random_input(Scheme.ARBITRARY, rng)
            prob, remainder = collapse_branch(assemble_total(state), o13, o26)
            assert prob == pytest.approx(1 / 16, abs=1e-12)
            pre = expected_collapse(Scheme.ARBITRARY, o13, o26, state.coeffs, False)
            assert fidelity(pre, remainder) == pytest.approx(1.0, abs=1e-12)
            post = expected_collapse(Scheme.ARBITRARY, o13, o26, state.coeffs, True)
            swept = apply_cz(remainder, 4, 5)
            assert fidelity(post, swept) == pytest.approx(1.0, abs=1e-12)

    def test_collapse_is_exact_not_just_up_to_phase(self, rng):
        # projection is a plain partial inner product, so even the global
        # phase must match the analytic form
        state = random_input(Scheme.ARBITRARY, rng)
        _, remainder = collapse_branch(assemble_total(state), PHI_P, PHI_P)
        expected = expected_collapse(Scheme.ARBITRARY, PHI_P, PHI_P, state.coeffs, False)
        np.testing.assert_allclose(remainder.amps, expected.amps, atol=1e-12)


def enumerated(state):
    """The 16 enumerate rows of one fixed input, keyed by outcome pair."""
    cfg = RunConfig(scheme=state.scheme, mode="enumerate", input_coeffs=state.coeffs)
    report = run_enumeration(cfg)
    rows = dense_oracle.report_rows(report)
    assert len(rows) == 16
    return {(r.outcome13, r.outcome26): r for r in rows}, report.inputs[0]


class TestEnumeratedBranches:
    """Branches evaluated from the branch maps, checked against closed forms
    and the dense executor."""

    def test_phi_phi_worked_example(self):
        # scheme 1, both measurements Phi+: remainder is alpha|00> - delta|11>
        # and the listed repair restores the input
        state = InputState(Scheme.SPECIAL, (0.6, 0.8))
        prob, remainder = collapse_branch(assemble_total(state), PHI_P, PHI_P)
        assert prob == pytest.approx(1 / 16, abs=1e-12)
        np.testing.assert_allclose(remainder.amps, [0.6, 0, 0, -0.8], atol=1e-12)
        k = branch_maps()[0, 0]
        np.testing.assert_allclose(4 * k @ state.amps, [0.6, 0, 0, -0.8], atol=1e-15)
        r = enumerated(state)[0][(PHI_P, PHI_P)]
        assert str(r.correction) == "IZ"
        assert r.probability == pytest.approx(1 / 16, abs=1e-15)
        assert r.fidelity == pytest.approx(1.0, abs=1e-15)
        assert r.state == "0.6|00> + 0.8|11>"
        dense_oracle.assert_row_matches(state, r)

    def test_scheme2_worked_example(self):
        # scheme 2, (Phi+, Phi-): after the controlled-phase the state is
        # alpha|00> - beta|01> + gamma|10> - delta|11>, fixed by I on 4, Z on 5
        state = InputState(Scheme.ARBITRARY, (0.5, 0.5, 0.5, 0.5))
        _, remainder = collapse_branch(assemble_total(state), PHI_P, PHI_M)
        swept = apply_cz(remainder, 4, 5)
        np.testing.assert_allclose(swept.amps, [0.5, -0.5, 0.5, -0.5], atol=1e-12)
        k = branch_maps()[0, 1]
        np.testing.assert_allclose(4 * (k @ state.amps) * [1, 1, 1, -1], swept.amps, atol=1e-15)
        r = enumerated(state)[0][(PHI_P, PHI_M)]
        assert str(r.correction) == "CZ+IZ"
        assert r.fidelity == pytest.approx(1.0, abs=1e-15)
        assert r.state == "0.5|00> + 0.5|01> + 0.5|10> + 0.5|11>"
        dense_oracle.assert_row_matches(state, r)

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_all_branches_perfect(self, scheme, rng):
        for _ in range(5):
            state = random_input(scheme, rng)
            records, summary = enumerated(state)
            shown = format_state(target_state(state))
            for o13, o26 in ALL_PAIRS:
                r = records[(o13, o26)]
                assert r.probability == pytest.approx(1 / 16, abs=1e-12)
                assert r.fidelity >= 1 - 1e-10
                assert r.state == shown
                dense_oracle.assert_row_matches(state, r)
            assert summary.total_probability == pytest.approx(1.0, abs=1e-12)
            assert summary.min_fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_degenerate_inputs_still_work(self, scheme):
        k = 2 if scheme is Scheme.SPECIAL else 4
        for i in range(k):
            coeffs = [0j] * k
            coeffs[i] = 1.0
            state = InputState(scheme, tuple(coeffs))
            records, _ = enumerated(state)
            for r in records.values():
                assert r.probability == pytest.approx(1 / 16, abs=1e-12)
                assert r.fidelity >= 1 - 1e-10
                assert r.state == format_state(target_state(state))
                dense_oracle.assert_row_matches(state, r)

    @pytest.mark.parametrize("o13,o26", ALL_PAIRS)
    def test_output_equals_input_up_to_phase_only(self, o13, o26, rng):
        # the corrected amplitudes may differ from the input by a global
        # phase (repairs containing Y contribute one), never by more
        state = random_input(Scheme.ARBITRARY, rng)
        op = table_lookup(Scheme.ARBITRARY, o13, o26)[0]
        k = branch_maps()[BELL_OUTCOMES.index(o13), BELL_OUTCOMES.index(o26)]
        out = repair_matrices([op])[0] @ k @ state.amps
        out /= np.linalg.norm(out)
        v = np.array(state.amps)
        lead = np.argmax(np.abs(v))
        phase = out[lead] / v[lead]
        assert abs(abs(phase) - 1) < 1e-12
        np.testing.assert_allclose(out, phase * v, atol=1e-12)
        dense = dense_oracle.run_branch(state, o13, o26).corrected_state.amps
        dense_phase = dense[lead] / v[lead]
        np.testing.assert_allclose(out * dense_phase / phase, dense, atol=1e-12)
        assert enumerated(state)[0][(o13, o26)].correction == op


class TestCorrectionApplication:
    def test_cz_then_paulis(self):
        ops = table_lookup(Scheme.ARBITRARY, PSI_M, PHI_P)
        assert len(ops) == 1 and ops[0].cz_first
        raw = StateVector((4, 5), np.array([1, 1, -1, -1]) / 2.0)
        out = apply_correction(raw, ops[0])
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_identity_passthrough(self, rng):
        s = StateVector((4, 5), np.array([0.5, 0.5, 0.5, 0.5]))
        out = apply_correction(s, CorrectionOp("I", "I"))
        np.testing.assert_array_equal(out.amps, s.amps)


def coeff_bits(states):
    """The coefficients of each input as raw bytes: equal bits, sign of zero
    included."""
    return [np.array(s.coeffs, dtype=np.complex128).tobytes() for s in states]


class TestBatchDraw:
    """An enumerate run draws its inputs in one batch from the one stream
    [seed, 0]; row k must be, bit for bit, the k-th successive input that
    random_input draws from that stream."""

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    # above 2**32 - 1 the seed takes a second SeedSequence entropy word
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 2, 100, MAX_RANDOM_INPUTS])
    def test_equals_one_draw_per_input(self, scheme, seed, count):
        batch = random_inputs(scheme, seed, count)
        assert batch.dtype == np.complex128
        assert batch.shape == (count, 2 if scheme is Scheme.SPECIAL else 4)
        rng = np.random.default_rng([seed, 0])
        one_by_one = [random_input(scheme, rng) for _ in range(count)]
        assert [row.tobytes() for row in batch] == coeff_bits(one_by_one)

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_equals_the_one_vector_formula(self, scheme, seed):
        # the draw as written for a single input: real parts, then imaginary
        # parts, scaled by np.linalg.norm of the whole vector; the batch
        # takes every norm in one matmul, which must round alike
        k = 2 if scheme is Scheme.SPECIAL else 4
        rng = np.random.default_rng([seed, 0])
        expected = np.empty((MAX_RANDOM_INPUTS, k), dtype=np.complex128)
        for row in expected:
            x = rng.standard_normal(2 * k)
            c = x[:k] + 1j * x[k:]
            row[:] = c / np.linalg.norm(c)
        batch = random_inputs(scheme, seed, MAX_RANDOM_INPUTS)
        np.testing.assert_array_equal(batch.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 100, MAX_RANDOM_INPUTS])
    def test_rows_are_inputs_as_given(self, scheme, seed, count):
        # the draw checks nothing: InputState must take every row it scales
        # to unit norm as it is, finite and with squared norm within COEFF_TOL of 1
        rows = random_inputs(scheme, seed, count).tolist()
        assert [InputState(scheme, row).coeffs for row in rows] == list(map(tuple, rows))

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_first_rows_do_not_depend_on_count(self, scheme, seed):
        # standard_normal fills its array row by row from the one stream
        full = random_inputs(scheme, seed, MAX_RANDOM_INPUTS)
        for n in (1, 5, 6, 100):
            assert random_inputs(scheme, seed, n).tobytes() == full[:n].tobytes()

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_first_row_is_the_old_first_stream(self, scheme, seed):
        # SeedSequence pads its entropy with zero words to its pool of 4, so
        # [seed, 0] is the stream [seed, 0, 0] that input 0 read before
        (row,) = random_inputs(scheme, seed, 1)
        assert [row.tobytes()] == coeff_bits([random_input(scheme, [seed, 0, 0])])
