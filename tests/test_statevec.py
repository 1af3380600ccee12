import itertools

import numpy as np
import pytest

from clusterport import floatpath
from clusterport.floatpath import DISPLAY_TOL, INPUT_BLOCK, display_rotation, format_states
from clusterport.gates import PAULIS, apply_single
from clusterport.statevec import StateVector, fidelity, format_state, relabel, tensor
from conftest import basis_ket, loop_kets, random_state
from dense_oracle import ket_text


class TestConstruction:
    def test_first_label_is_most_significant(self):
        # flipping qubits 5 and 6 of |0000> on (3, 4, 5, 6) spells |0011>
        s = StateVector((3, 4, 5, 6), np.eye(16)[0])
        s = apply_single(apply_single(s, 5, PAULIS["X"]), 6, PAULIS["X"])
        assert s.amps[3] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_two_qubit_index_order(self):
        s = apply_single(StateVector((1, 2), np.eye(4)[0]), 1, PAULIS["X"])
        assert s.amps[2] == 1.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            StateVector((1, 1), np.zeros(4))

    def test_nonpositive_labels_rejected(self):
        with pytest.raises(ValueError):
            StateVector((0, 1), np.array([1, 0, 0, 0]))

    def test_amplitude_count_must_match(self):
        with pytest.raises(ValueError):
            StateVector((1, 2), np.array([1.0, 0.0]))

    def test_nonfinite_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            StateVector((1,), np.array([np.nan, 0.0]))

    def test_empty_register_allowed(self):
        s = StateVector((), np.array([1.0 + 0j]))
        assert s.n_qubits == 0
        assert s.norm() == 1.0

    def test_amps_are_frozen(self):
        s = StateVector((1,), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            s.amps[0] = 5.0


class TestBasisOrthonormality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive(self, n):
        labels = tuple(range(1, n + 1))
        kets = [basis_ket(labels, bits) for bits in itertools.product((0, 1), repeat=n)]
        for i, a in enumerate(kets):
            for j, b in enumerate(kets):
                expected = 1.0 if i == j else 0.0
                assert fidelity(a, b) == pytest.approx(expected, abs=1e-12)


class TestTensor:
    def test_basis_concatenation(self):
        s = tensor(basis_ket((1,), (1,)), basis_ket((2, 3), (0, 1)))
        assert s.labels == (1, 2, 3)
        assert s.amps[0b101] == 1.0

    def test_overlap_rejected(self):
        a = basis_ket((1, 2), (0, 0))
        with pytest.raises(ValueError):
            tensor(a, basis_ket((2,), (0,)))

    def test_norm_preserved(self, rng):
        for _ in range(25):
            a = random_state(rng, (1, 2))
            b = random_state(rng, (3,))
            assert tensor(a, b).norm() == pytest.approx(1.0, abs=1e-12)

    def test_associative(self, rng):
        a = random_state(rng, (1,))
        b = random_state(rng, (2, 3))
        c = random_state(rng, (4,))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left.labels == right.labels
        np.testing.assert_allclose(left.amps, right.amps, atol=1e-12)


class TestFidelity:
    def test_self(self, rng):
        a = random_state(rng, (1, 2, 3))
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(basis_ket((1,), (0,)), basis_ket((1,), (1,))) == 0.0

    def test_half_overlap(self):
        plus = StateVector((1,), np.array([1, 1]) / np.sqrt(2))
        assert fidelity(basis_ket((1,), (0,)), plus) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_invariant(self, rng):
        a = random_state(rng, (1, 2))
        for phase in (1j, -1, np.exp(0.37j)):
            b = StateVector(a.labels, a.amps * phase)
            assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_register_order_must_match(self):
        # |0>_1 |1>_2 listed as (2, 1) is the same physical state, but
        # callers compare registers listed in one order only
        a = basis_ket((1, 2), (0, 1))
        b = basis_ket((2, 1), (1, 0))
        with pytest.raises(ValueError):
            fidelity(a, b)

    def test_label_set_must_match(self):
        with pytest.raises(ValueError):
            fidelity(basis_ket((1,), (0,)), basis_ket((2,), (0,)))

    def test_symmetric(self, rng):
        a = random_state(rng, (1, 2))
        b = random_state(rng, (1, 2))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)


class TestRelabel:
    def test_relabel_keeps_amplitudes(self, rng):
        s = random_state(rng, (1, 2))
        r = relabel(s, {1: 4, 2: 5})
        assert r.labels == (4, 5)
        np.testing.assert_array_equal(r.amps, s.amps)

    def test_relabel_collision_rejected(self):
        with pytest.raises(ValueError):
            relabel(basis_ket((1, 2), (0, 0)), {1: 2})


class TestFormatState:
    def test_rotates_leading_phase(self):
        s = StateVector((1,), np.array([-1.0, 0.0]))
        assert format_state(s) == "1|0>"

    def test_two_terms(self):
        s = StateVector((1, 2), np.array([0.6, 0, 0, 0.8]))
        assert format_state(s) == "0.6|00> + 0.8|11>"

    def test_imaginary_part(self):
        s = StateVector((1,), np.array([0.6, 0.8j]))
        assert "0.8i|1>" in format_state(s)


def per_vector(amps):
    """The reference display form of every vector along the last axis, one
    vector at a time."""
    texts = [ket_text(v) for v in amps.reshape(-1, amps.shape[-1])]
    return np.array(texts, dtype=object).reshape(amps.shape[:-1]).tolist()


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestFormatStates:
    """The stack formatter must give, entry for entry, the string the plain
    per-vector reference gives for that vector alone."""

    @pytest.mark.parametrize(
        "shape", [(7, 16, 4), (5, 2), (3, 8), (1, 1, 4), (4, 1), (500, 4), (2, 0, 4)]
    )
    def test_random_stacks(self, rng, shape):
        amps = gaussian(rng, shape)
        assert format_states(amps) == per_vector(amps)

    def test_one_vector_gives_one_string(self, rng):
        v = gaussian(rng, 4)
        assert format_states(v) == ket_text(v) == format_state(StateVector((4, 5), v))

    def test_repeated_vectors_keep_their_places(self, rng):
        # equal vectors, adjacent or apart, each take their own text in
        # their own place
        distinct = gaussian(rng, (3, 4))
        order = [2, 0, 0, 1, 2, 2, 1, 0]
        texts = format_states(distinct[order].reshape(2, 4, 4))
        assert texts == per_vector(distinct[order].reshape(2, 4, 4))
        assert len({t for row in texts for t in row}) == 3

    def test_unit_phases_print_alike(self, rng):
        # c v for c in {1, -1, i, -i} rotates to the same bits, stacked or not
        v = gaussian(rng, 4) / 4
        amps = np.stack([c * v for c in (1, -1, 1j, -1j)])
        texts = format_states(amps)
        assert texts == per_vector(amps)
        assert len(set(texts)) == 1

    def test_zero_vector(self, rng):
        amps = gaussian(rng, (3, 4))
        amps[1] = 0
        texts = format_states(amps)
        assert texts[1] == "0"
        assert texts == per_vector(amps)

    def test_hidden_amplitudes_format_alike_each_vector_once(self, ket_calls):
        # amplitudes at or below DISPLAY_TOL are left out of the text, so
        # vectors that differ only there format to one string; _kets gets
        # each vector once, in stack order, its left-out amplitudes zeroed
        base = np.array([0.6, 0, 0.8j, 0])
        amps = np.stack([base] * 4 + [np.zeros(4)] * 2)
        amps[1, 1] = complex(-0.0, -0.0)
        amps[2, 3] = 1e-13
        amps[3, 1] = DISPLAY_TOL * (1 - 1e-6) * 1j
        amps[5] = [complex(-0.0, 0.0), 1e-13, 0, -1e-10j]  # nothing shown
        texts = format_states(amps)
        assert texts == [ket_text(base)] * 4 + ["0"] * 2 == per_vector(amps)
        assert ket_calls == [list(base)] * 4 + [[0] * 4] * 2

    @pytest.mark.parametrize("scale", [1 + 1e-6, 1 - 1e-6])
    def test_amplitudes_at_the_tolerance(self, scale):
        tiny = 1e-9 * scale
        amps = np.array([
            [tiny, 0.6, 0, 0.8],
            [0.6, 1j * tiny, -tiny, 0.8],
            [tiny, 0, 0, 0],
            [tiny * (1 + 1j) / np.sqrt(2), 0.6j, 0, 0.8],
        ])
        texts = format_states(amps)
        assert texts == per_vector(amps)
        shown = texts[2] != "0"
        assert shown is (scale > 1)
        assert texts[0].startswith("1e-09|00>") is shown

    @pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e-300, 1e300])
    def test_extreme_scales(self, rng, scale):
        amps = gaussian(rng, (4, 16, 4)) * scale
        texts = format_states(amps)
        assert texts == per_vector(amps)
        if scale < 1e-9:
            assert {t for row in texts for t in row} == {"0"}

    def test_strided_input(self, rng):
        amps = np.asfortranarray(gaussian(rng, (6, 4)))
        assert format_states(amps) == per_vector(amps)
        assert format_states(amps[::2]) == per_vector(amps[::2])

    def test_all_zero_vectors(self):
        amps = np.zeros((3, 16, 4), dtype=np.complex128)
        amps[1, 2:5] = complex(-0.0, -0.0)
        assert format_states(amps) == per_vector(amps) == [["0"] * 16] * 3

    def test_parts_one_ulp_from_the_tolerance(self):
        # after a real positive lead the parts keep their bits, so each part
        # below, at and above DISPLAY_TOL shows or hides as the reference says
        below, above = np.nextafter(DISPLAY_TOL, 0), np.nextafter(DISPLAY_TOL, 1)
        near = [below, DISPLAY_TOL, above, -below, -DISPLAY_TOL, -above]
        rows = [
            [0.6, complex(x, y), complex(y, x), 0.8]
            for x in near for y in [*near, 0.0, -0.0, 0.3, -0.3]
        ]
        rows += [[x, 0, 0.6j, y] for x in near for y in near]
        amps = np.array(rows)
        texts = format_states(amps)
        assert texts == per_vector(amps)
        # every kind of term occurs: real alone, imaginary alone, and both
        terms = {t for text in texts for t in text.split(" + ")}
        assert {"1e-09|01>", "-0.3i|01>", "(1e-09-1e-09i)|01>"} <= terms
        assert format_states([above, 0, 0, 0]) == "1e-09|00>"
        assert format_states([DISPLAY_TOL, 0, 0, 0]) == format_states([below, 0, 0, 0]) == "0"

    def test_signed_zeros_subnormals_and_non_finite_parts(self):
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.nan, np.inf, -np.inf, 0.25]
        rows = [[0.6, complex(x, y), complex(-y, x), 0.8j] for x in specials for y in specials]
        rows += [[complex(x, y), 0.6, -0.8j, complex(y, x)] for x in specials for y in specials]
        amps = np.array(rows)
        with np.errstate(all="ignore"):  # inf * 0 and the like make NaN
            texts = format_states(amps)
            assert texts == per_vector(amps)
        assert any("nan" in text for text in texts) and any("inf" in text for text in texts)

    def test_every_width_has_its_own_labels(self, rng):
        # a pattern of shown parts can read alike at two widths (here, the
        # last amplitude alone, which the rotation makes real): each width
        # must keep its own labels
        for n in (1, 2, 4, 8, 4, 2, 1):
            last = np.zeros(n, dtype=np.complex128)
            last[-1] = -0.5j
            assert format_states(last) == ket_text(last)
            amps = gaussian(rng, (3, n))
            amps[:, : n // 2] = 0
            assert format_states(amps) == per_vector(amps)
            assert format_states(amps[0]) == ket_text(amps[0])

    @pytest.mark.parametrize("count", [INPUT_BLOCK - 1, INPUT_BLOCK, INPUT_BLOCK + 1])
    def test_stacks_around_the_block(self, rng, count):
        # three equal vectors in a row, some across a block's edge, every
        # other one turned by -i, which the rotation undoes
        distinct = gaussian(rng, (5, 4))
        order = np.arange(2 * count) // 3 % 5
        amps = distinct[order] * np.resize([1, -1j], 2 * count)[:, None]
        amps = amps.reshape(count, 2, 4)
        assert format_states(amps) == per_vector(amps)

    def test_many_distinct_vectors(self, rng):
        amps = gaussian(rng, (100, 16, 4))
        texts = format_states(amps)
        assert texts == per_vector(amps)
        assert len({t for row in texts for t in row}) == 1600

    def test_rotation_makes_the_lead_real_and_positive(self, rng):
        amps = gaussian(rng, (5, 4))
        amps[2, 0] = 1e-12
        shown, above = display_rotation(amps)
        first = above.argmax(axis=-1)
        lead = shown[np.arange(5), first]
        assert np.all(lead.real > 0)
        assert np.all(np.abs(lead.imag) <= 1e-15 * lead.real)
        np.testing.assert_allclose(np.abs(shown), np.abs(amps), rtol=1e-15)
        assert not above[2, 0]


# parts a classified amplitude may hold: exact and signed zeros, parts at,
# one ulp below and one ulp above DISPLAY_TOL, dust, NaN and plain values
SPECIAL_PARTS = np.array([
    0.0, -0.0, DISPLAY_TOL, -DISPLAY_TOL, np.nextafter(DISPLAY_TOL, 0),
    -np.nextafter(DISPLAY_TOL, 0), np.nextafter(DISPLAY_TOL, 1), -np.nextafter(DISPLAY_TOL, 1),
    1e-13, 5e-324, np.nan, 0.3, -0.7,
])


def special_rows(rng, count, n):
    """``count`` vectors of ``n`` amplitudes, each part drawn from
    ``SPECIAL_PARTS``."""
    parts = rng.choice(SPECIAL_PARTS, size=(count, n, 2))
    return parts.view(np.complex128).reshape(count, n)


class TestKetClassifier:
    """``_kets`` classifies a block's amplitudes in one array pass: each
    vector's format and parts are those of the per-amplitude loop it
    replaced (``conftest.loop_kets``), NaN parts included."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_formats_and_parts_equal_the_loop(self, seed, n):
        rows = special_rows(np.random.default_rng(seed), 500, n)
        kets, parts = floatpath._kets(rows)
        want_kets, want_parts = loop_kets(rows)
        assert kets == want_kets
        # NaN parts compare by their bits
        assert np.array(parts).tobytes() == np.array(want_parts).tobytes()
        assert len(set(kets)) > 2 ** n  # many patterns, not a few

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_format_states_text_equals_the_loop(self, monkeypatch, seed, n):
        # gaussian stacks, scaled so that some parts fall at or below the
        # tolerance, with special parts mixed in; an infinite amplitude
        # makes NaN parts after the rotation, which print
        rng = np.random.default_rng(seed)
        amps = gaussian(rng, (300, 3, n)) * 10.0 ** rng.integers(-12, 1, (300, 3, 1))
        mixed = rng.random((300, 3, n)) < 0.3
        amps[mixed] = special_rows(rng, int(mixed.sum()), 1)[:, 0]
        amps[rng.random((300, 3, n)) < 0.02] = complex(np.inf, 0.5)
        with np.errstate(all="ignore"):
            texts = format_states(amps)
            monkeypatch.setattr(floatpath, "_kets", loop_kets)
            assert texts == format_states(amps)
        # some amplitudes print NaN parts, and some are left out
        assert any("nan" in t for row in texts for t in row)
        assert any(t.count("|") < n for row in texts for t in row)
