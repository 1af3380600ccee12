import math

import numpy as np
import pytest

from clusterport import BELL_OUTCOMES, BellOutcome, InputState, Scheme
from clusterport.exact import BELL_SIGNS
from clusterport.floatpath import cell_thresholds, index_thresholds, outcome_cells
from clusterport.measurement import draw_index, project_bell, sample_bell
from clusterport.protocol import assemble_total, cluster_state
from clusterport.statevec import StateVector, fidelity, tensor
from conftest import random_state

# Bell coefficients written out longhand so the oracle below shares nothing
# with the implementation's contraction path.
BELL_TERMS = {
    BellOutcome.PHI_PLUS: {(0, 0): 1, (1, 1): 1},
    BellOutcome.PHI_MINUS: {(0, 0): 1, (1, 1): -1},
    BellOutcome.PSI_PLUS: {(0, 1): 1, (1, 0): 1},
    BellOutcome.PSI_MINUS: {(0, 1): 1, (1, 0): -1},
}


def projection_oracle(s, a, b, outcome):
    """Slow reference projection: explicit sum over every basis index."""
    pa, pb = s.labels.index(a), s.labels.index(b)
    rest = [q for q in s.labels if q not in (a, b)]
    rest_pos = [s.labels.index(q) for q in rest]
    out = np.zeros(2 ** len(rest), dtype=complex)
    terms = BELL_TERMS[outcome]
    for idx, amp in enumerate(s.amps):
        bits = [(idx >> (s.n_qubits - 1 - i)) & 1 for i in range(s.n_qubits)]
        weight = terms.get((bits[pa], bits[pb]))
        if weight is None:
            continue
        rest_idx = 0
        for i in rest_pos:
            rest_idx = (rest_idx << 1) | bits[i]
        out[rest_idx] += np.conj(weight / np.sqrt(2)) * amp
    prob = float(np.vdot(out, out).real)
    return prob, out


def bell_ket(outcome, a, b):
    """The Bell ket ``outcome`` over the register (a, b), from BELL_SIGNS."""
    return StateVector((a, b), np.reshape(BELL_SIGNS[BELL_OUTCOMES.index(outcome)], 4) / np.sqrt(2))


def projected_probabilities(s, a, b):
    """Each outcome's probability, one projection per outcome."""
    return {o: project_bell(s, a, b, o).probability for o in BELL_OUTCOMES}


class TestBellVectors:
    def test_phi_plus(self):
        v = bell_ket(BellOutcome.PHI_PLUS, 1, 2)
        np.testing.assert_allclose(v.amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_psi_minus(self):
        v = bell_ket(BellOutcome.PSI_MINUS, 1, 2)
        np.testing.assert_allclose(v.amps, np.array([0, 1, -1, 0]) / np.sqrt(2), atol=1e-15)

    def test_orthonormal(self):
        kets = [bell_ket(o, 1, 2) for o in BELL_OUTCOMES]
        for i, a in enumerate(kets):
            for j, b in enumerate(kets):
                expected = 1.0 if i == j else 0.0
                assert fidelity(a, b) == pytest.approx(expected, abs=1e-12)

    def test_distinct_qubits_required(self, rng):
        with pytest.raises(ValueError):
            project_bell(random_state(rng, (1, 2)), 1, 1, BellOutcome.PHI_PLUS)


class TestProjectBell:
    def test_bell_pair_self_projection(self):
        v = bell_ket(BellOutcome.PHI_PLUS, 1, 2)
        r = project_bell(v, 1, 2, BellOutcome.PHI_PLUS)
        assert r.probability == pytest.approx(1.0, abs=1e-12)
        assert r.remainder is not None and r.remainder.labels == ()

    def test_cluster_pair_34_phi_plus(self):
        # frozen from the expansion oracle: probability 1/2, remainder |00>_56
        c = cluster_state()
        p_ref, vec_ref = projection_oracle(c, 3, 4, BellOutcome.PHI_PLUS)
        assert p_ref == pytest.approx(0.5, abs=1e-12)
        r = project_bell(c, 3, 4, BellOutcome.PHI_PLUS)
        assert r.probability == pytest.approx(0.5, abs=1e-12)
        assert r.remainder.labels == (5, 6)
        np.testing.assert_allclose(r.remainder.amps, [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(vec_ref / np.sqrt(p_ref), r.remainder.amps, atol=1e-12)

    def test_cluster_pair_34_phi_minus(self):
        # frozen from the expansion oracle: probability 1/2, remainder |11>_56
        c = cluster_state()
        p_ref, vec_ref = projection_oracle(c, 3, 4, BellOutcome.PHI_MINUS)
        assert p_ref == pytest.approx(0.5, abs=1e-12)
        r = project_bell(c, 3, 4, BellOutcome.PHI_MINUS)
        assert r.probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(r.remainder.amps, [0, 0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(vec_ref / np.sqrt(p_ref), r.remainder.amps, atol=1e-12)

    @pytest.mark.parametrize("outcome", [BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS])
    def test_cluster_pair_34_psi_impossible(self, outcome):
        r = project_bell(cluster_state(), 3, 4, outcome)
        assert r.probability == pytest.approx(0.0, abs=1e-12)
        assert r.remainder is None

    def test_sequential_protocol_projections(self):
        # alpha = 1 input: both measurements give 1/4, remainder |00>_45
        total = assemble_total(InputState(Scheme.SPECIAL, (1, 0)))
        r1 = project_bell(total, 1, 3, BellOutcome.PHI_PLUS)
        assert r1.probability == pytest.approx(0.25, abs=1e-12)
        assert r1.remainder.labels == (2, 4, 5, 6)
        r2 = project_bell(r1.remainder, 2, 6, BellOutcome.PHI_PLUS)
        assert r2.probability == pytest.approx(0.25, abs=1e-12)
        assert r2.remainder.labels == (4, 5)
        np.testing.assert_allclose(r2.remainder.amps, [1, 0, 0, 0], atol=1e-12)

    def test_matches_oracle_on_random_states(self, rng):
        for _ in range(10):
            s = random_state(rng, (1, 2, 3, 4))
            a, b = rng.choice(s.labels, size=2, replace=False)
            for outcome in BELL_OUTCOMES:
                p_ref, vec_ref = projection_oracle(s, a, b, outcome)
                r = project_bell(s, int(a), int(b), outcome)
                assert r.probability == pytest.approx(p_ref, abs=1e-12)
                if r.remainder is not None:
                    np.testing.assert_allclose(
                        r.remainder.amps, vec_ref / np.sqrt(p_ref), atol=1e-12
                    )

    def test_completeness(self, rng):
        for _ in range(10):
            s = random_state(rng, (1, 2, 3))
            total = sum(project_bell(s, 1, 3, o).probability for o in BELL_OUTCOMES)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_remainder_normalized(self, rng):
        for _ in range(10):
            s = random_state(rng, (1, 2, 3, 4))
            r = project_bell(s, 2, 4, BellOutcome.PSI_PLUS)
            if r.remainder is not None:
                assert r.remainder.norm() == pytest.approx(1.0, abs=1e-12)

    def test_collapse_idempotent(self, rng):
        # reconstructing Bell(o) tensor remainder and projecting again gives 1
        for _ in range(10):
            s = random_state(rng, (1, 2, 3))
            for o in BELL_OUTCOMES:
                r = project_bell(s, 1, 2, o)
                if r.remainder is None:
                    continue
                rebuilt = tensor(bell_ket(o, 1, 2), r.remainder)
                assert rebuilt.labels == s.labels
                again = project_bell(rebuilt, 1, 2, o)
                assert again.probability == pytest.approx(1.0, abs=1e-12)

    def test_remainder_keeps_label_order(self, rng):
        s = random_state(rng, (1, 2, 3, 4, 5, 6))
        r = project_bell(s, 1, 3, BellOutcome.PHI_PLUS)
        assert r.remainder.labels == (2, 4, 5, 6)
        r2 = project_bell(r.remainder, 2, 6, BellOutcome.PSI_MINUS)
        assert r2.remainder.labels == (4, 5)

    def test_missing_label_rejected(self, rng):
        with pytest.raises(ValueError):
            project_bell(random_state(rng, (1, 2)), 1, 7, BellOutcome.PHI_PLUS)


class TestBellProbabilities:
    def test_sums_to_one(self, rng):
        s = random_state(rng, (1, 2, 3))
        probs = projected_probabilities(s, 2, 3)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestSampleBell:
    def test_deterministic_state_always_drawn(self, rng):
        v = bell_ket(BellOutcome.PSI_MINUS, 1, 2)
        for _ in range(20):
            outcome, result = sample_bell(v, 1, 2, rng)
            assert outcome is BellOutcome.PSI_MINUS
            assert result.probability == pytest.approx(1.0, abs=1e-12)

    def test_probability_matches_drawn_outcome(self, rng):
        s = random_state(rng, (1, 2, 3))
        for _ in range(20):
            outcome, result = sample_bell(s, 1, 2, rng)
            expected = project_bell(s, 1, 2, outcome).probability
            assert result.probability == pytest.approx(expected, abs=1e-14)

    def test_seeded_stream_reproduces(self):
        s = cluster_state()
        draws1 = [
            sample_bell(s, 3, 4, np.random.default_rng([9, t]))[0] for t in range(50)
        ]
        draws2 = [
            sample_bell(s, 3, 4, np.random.default_rng([9, t]))[0] for t in range(50)
        ]
        assert draws1 == draws2

    def test_impossible_outcomes_never_drawn(self):
        # the cluster pair (3,4) admits only the Phi outcomes
        s = cluster_state()
        for t in range(100):
            outcome, _ = sample_bell(s, 3, 4, np.random.default_rng([5, t]))
            assert outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)

    def test_frequencies_track_born_rule(self):
        s = random_state(np.random.default_rng(77), (1, 2))
        probs = projected_probabilities(s, 1, 2)
        counts = {o: 0 for o in BELL_OUTCOMES}
        n = 3000
        for t in range(n):
            o, _ = sample_bell(s, 1, 2, np.random.default_rng([3, t]))
            counts[o] += 1
        for o in BELL_OUTCOMES:
            sigma = np.sqrt(max(probs[o] * (1 - probs[o]), 1e-9) / n)
            assert abs(counts[o] / n - probs[o]) <= 5 * sigma + 1e-9


def scalar_rule(weights, u):
    """The selection rule written out for one uniform: searchsorted on the
    cumulative weights, clamp, then step back past zero weights."""
    cum = weights.cumsum()
    k = min(int(cum.searchsorted(u * cum[-1], side="right")), len(weights) - 1)
    while k > 0 and weights[k] == 0.0:
        k -= 1
    return k


class TestDrawIndex:
    def test_cumulative_boundaries(self):
        cum = np.array([0.25, 0.25, 0.25, 0.25]).cumsum()
        us = (0.0, 0.2499, 0.25, 0.5, 0.99)
        assert [int(draw_index(cum, u)) for u in us] == [0, 0, 1, 2, 3]
        assert draw_index(cum, np.array(us)).tolist() == [0, 0, 1, 2, 3]

    def test_any_scale(self):
        cum = np.array([1.0, 3.0]).cumsum()
        assert draw_index(cum, 0.2) == draw_index(cum / 64, 0.2) == 0
        assert draw_index(cum, 0.3) == draw_index(cum / 64, 0.3) == 1

    def test_zero_weights_never_drawn(self):
        cum = np.array([0.5, 0.0, 0.5, 0.0]).cumsum()
        drawn = set(draw_index(cum, np.linspace(0.0, 1.0, 101)).tolist())
        assert drawn == {0, 2}
        # u * total rounds up to a subnormal total, past every cumulative weight
        tiny = np.array([0.0, 3 * 5e-324, 0.0, 0.0])
        assert 0.9 * tiny.sum() == tiny.sum()
        assert int(draw_index(tiny.cumsum(), 0.9)) == scalar_rule(tiny, 0.9) == 1

    def test_one_row_per_uniform(self, rng):
        weights = rng.random((200, 4)) * (rng.random((200, 4)) < 0.7)
        weights[:, 1] += 1e-3  # every row has a positive total
        u = rng.random(200)
        got = draw_index(weights.cumsum(axis=1), u).tolist()
        assert got == [scalar_rule(w, x) for w, x in zip(weights, u)]
        assert got == [int(draw_index(w.cumsum(), x)) for w, x in zip(weights, u)]

    def test_sample_bell_uses_the_rule(self, rng):
        s = random_state(rng, (1, 2, 3))
        probs = np.array(list(projected_probabilities(s, 1, 2).values()))
        for t in range(50):
            u = np.random.default_rng([4, t]).random()
            outcome, _ = sample_bell(s, 1, 2, np.random.default_rng([4, t]))
            assert outcome is BELL_OUTCOMES[scalar_rule(probs, u)]


TINY = 5e-324  # the least subnormal
ROW_WEIGHTS = {
    "uniform": [0.25] * 4,
    "zero cells": [0.0, 0.5, 0.0, 0.5],
    "leading zeros": [0.0, 0.0, 0.3, 0.7],
    "unnormalized": [3.0, 1.0, 0.0, 7.5],
    "one-hot": [0.0, 0.0, 1.0, 0.0],
    "all zero": [0.0] * 4,
    "all NaN": [math.nan] * 4,
    "one NaN": [0.25, math.nan, 0.25, 0.25],
    "1e-300": [1e-300] * 4,
    "subnormal": [0.0, 3 * TINY, 0.0, 0.0],
    "subnormal total": [TINY, 4 * TINY, 0.0, TINY],
    "1/16 + 1e-17": [1 / 16 + 1e-17] * 4,
}


def edge_uniforms(thresholds):
    """0, the largest uniform 1 - 2**-53, and each threshold a uniform can
    reach with the double just below it."""
    us = {0.0, 1.0 - 2.0**-53}
    for t in thresholds:
        if t < 1.0:
            us |= {t, math.nextafter(t, 0.0)}
    return sorted(us)


class TestThresholds:
    """``index_thresholds`` turns draw_index's rule into one least uniform
    per boundary; counting thresholds must draw what draw_index draws at
    every threshold and the double below it."""

    @pytest.mark.parametrize("name", list(ROW_WEIGHTS))
    def test_count_equals_draw_index_at_every_edge(self, name):
        cum = np.array(ROW_WEIGHTS[name]).cumsum()
        thresholds = index_thresholds(cum.tolist())
        assert len(thresholds) == 3
        for u in edge_uniforms(thresholds):
            assert sum(u >= t for t in thresholds) == int(draw_index(cum, u)), u

    def test_uncounted_boundaries_never_count(self):
        # at the total (the cap), or NaN: 1.0, past every uniform
        assert index_thresholds([0.5, 1.0, 1.0, 1.0]) == [0.5, 1.0, 1.0]
        assert index_thresholds([0.0, 0.0, 0.0, 0.0]) == [1.0] * 3
        assert index_thresholds([math.nan] * 4) == [1.0] * 3

    def test_subnormal_total_needs_more_than_a_step(self):
        # 1/4 is the quotient, but u * 4 * TINY rounds to TINY only above 1/8
        (t, *_) = index_thresholds([TINY, 4 * TINY, 4 * TINY, 4 * TINY])
        assert t == math.nextafter(0.125, 1.0)
        assert draw_index(np.array([TINY, 4 * TINY]), 0.125) == 0
        assert draw_index(np.array([TINY, 4 * TINY]), t) == 1

    CELL_WEIGHTS = {
        "zero cells": np.tile([0.125, 0.0, 0.0, 0.125], 4),
        # what a mutated sign table gives: rows that sum to 3/4 or 3/2 of 1/4
        "unnormalized": np.array([1, 0, 2, 1] * 2 + [2, 2, 0, 2] * 2) / 16 * 0.75,
        "all-zero row": np.concatenate([np.full(4, 1 / 12), np.zeros(4), np.full(8, 1 / 12)]),
        "all-NaN row": np.concatenate([np.full(8, 1 / 16), np.full(4, math.nan), np.full(4, 1 / 16)]),
        "subnormal cells": np.array([TINY, 4 * TINY, 0.0, TINY] * 4),
        "uniform": np.full(16, 1 / 16),
    }

    @pytest.mark.parametrize("name", list(CELL_WEIGHTS))
    def test_cells_equal_draw_index_at_every_edge(self, name):
        probs = self.CELL_WEIGHTS[name]
        joint = probs.reshape(4, 4)
        cum_marginal, cum_rows = joint.sum(axis=1).cumsum(), joint.cumsum(axis=1)
        first, second = cell_thresholds(probs)
        u0s = edge_uniforms(first)
        u1s = sorted({u for row in second.T for u in edge_uniforms(row)})
        pairs = np.array([(u0, u1) for u0 in u0s for u1 in u1s])
        expected = []
        for u0, u1 in pairs:
            i = int(draw_index(cum_marginal, u0))
            expected.append(4 * i + int(draw_index(cum_rows[i], u1)))
        assert outcome_cells(pairs, first, second).tolist() == expected
