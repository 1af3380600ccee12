import numpy as np
import pytest

from clusterport import CorrectionOp
from clusterport.gates import PAULIS, apply_cz, apply_single
from clusterport.statevec import StateVector
from conftest import basis_ket, random_state


def random_unitary(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(m)
    return q


class TestPauliMatrices:
    def test_entries(self):
        np.testing.assert_array_equal(PAULIS["X"], [[0, 1], [1, 0]])
        np.testing.assert_array_equal(PAULIS["Y"], [[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(PAULIS["Z"], [[1, 0], [0, -1]])
        np.testing.assert_array_equal(PAULIS["I"], np.eye(2))

    def test_algebra(self):
        X, Y, Z = PAULIS["X"], PAULIS["Y"], PAULIS["Z"]
        np.testing.assert_allclose(X @ Z, -1j * Y, atol=1e-15)
        for p in "XYZ":
            np.testing.assert_allclose(PAULIS[p] @ PAULIS[p], np.eye(2), atol=1e-15)

    def test_unknown_label(self):
        # a repair names its Paulis by label, and only I, X, Y, Z exist
        with pytest.raises(ValueError):
            CorrectionOp("H", "I")

    def test_constants_frozen(self):
        with pytest.raises(ValueError):
            PAULIS["X"][0, 0] = 7


class TestApplySingle:
    def test_bit_flip(self):
        out = apply_single(basis_ket((1,), (0,)), 1, PAULIS["X"])
        np.testing.assert_array_equal(out.amps, [0, 1])

    def test_z_on_labeled_qubit(self):
        # Z on particle 4 flips the sign of the |11> component only
        s = StateVector((4, 5), np.array([0.6, 0, 0, -0.8]))
        out = apply_single(s, 4, PAULIS["Z"])
        np.testing.assert_allclose(out.amps, [0.6, 0, 0, 0.8], atol=1e-15)

    def test_acts_on_named_qubit_not_position(self, rng):
        s = random_state(rng, (7, 3))
        by_label = apply_single(s, 3, PAULIS["X"])
        # qubit 3 sits at position 1, the least significant bit
        expected = s.amps[[1, 0, 3, 2]]
        np.testing.assert_allclose(by_label.amps, expected, atol=1e-15)

    def test_inverse_restores(self, rng):
        for _ in range(20):
            s = random_state(rng, (1, 2, 3))
            u = random_unitary(rng)
            back = apply_single(apply_single(s, 2, u), 2, u.conj().T)
            np.testing.assert_allclose(back.amps, s.amps, atol=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(20):
            s = random_state(rng, (1, 2, 3, 4))
            u = random_unitary(rng)
            assert apply_single(s, 3, u).norm() == pytest.approx(1.0, abs=1e-12)

    def test_distinct_qubits_commute(self, rng):
        s = random_state(rng, (1, 2, 3))
        u, v = random_unitary(rng), random_unitary(rng)
        ab = apply_single(apply_single(s, 1, u), 3, v)
        ba = apply_single(apply_single(s, 3, v), 1, u)
        np.testing.assert_allclose(ab.amps, ba.amps, atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_single(basis_ket((1,), (0,)), 1, np.array([[1, 0], [0, 2]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            apply_single(basis_ket((1,), (0,)), 1, np.eye(3))

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            apply_single(basis_ket((1,), (0,)), 9, PAULIS["X"])


class TestApplyCZ:
    def test_truth_table(self):
        for bits, sign in (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)):
            s = basis_ket((1, 2), bits)
            out = apply_cz(s, 1, 2)
            np.testing.assert_allclose(out.amps, sign * s.amps, atol=1e-15)

    def test_symmetric(self, rng):
        s = random_state(rng, (1, 2, 3))
        np.testing.assert_allclose(
            apply_cz(s, 1, 3).amps, apply_cz(s, 3, 1).amps, atol=1e-15
        )

    def test_involution(self, rng):
        s = random_state(rng, (1, 2))
        back = apply_cz(apply_cz(s, 1, 2), 1, 2)
        np.testing.assert_allclose(back.amps, s.amps, atol=1e-15)

    def test_fixes_one_sign(self):
        # the branch state with a lone minus on |11> is exactly one CZ away
        # from the uniform state
        amps = np.array([1, 1, 1, -1]) / 2.0
        out = apply_cz(StateVector((4, 5), amps), 4, 5)
        np.testing.assert_allclose(out.amps, np.full(4, 0.5), atol=1e-15)

    def test_norm_preserved(self, rng):
        s = random_state(rng, (1, 2, 3, 4))
        assert apply_cz(s, 2, 4).norm() == pytest.approx(1.0, abs=1e-12)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply_cz(basis_ket((1, 2), (0, 0)), 1, 1)

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            apply_cz(basis_ket((1, 2), (0, 0)), 1, 5)
