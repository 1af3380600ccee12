"""Property tests of the Monte Carlo sampler against the scalar rule.

``sample_outcome_pairs`` draws its trials against thresholds computed once
per call; ``scalar_draw_counts`` feeds ``draw_index`` one uniform at a time.
For any 16 cell weights the two must count alike, block edges included.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterport import floatpath  # noqa: E402
from clusterport.floatpath import sample_outcome_pairs  # noqa: E402
from test_harness import scalar_draw_counts  # noqa: E402

TINY = 5e-324

cell_weights = st.one_of(
    st.lists(  # zeros, subnormals, and unnormalized weights of any scale
        st.one_of(
            st.just(0.0),
            st.floats(TINY, 2.2e-308),
            st.floats(0.0, 4.0),
            st.floats(1e-300, 1e300),
        ),
        min_size=16, max_size=16,
    ),
    st.integers(0, 15).map(lambda k: np.eye(16)[k].tolist()),  # one-hot
    st.floats(1e-3, 2.0).map(lambda w: [w] * 16),
)


@settings(deadline=None, max_examples=100)
@given(cell_weights, st.integers(1, 40), st.integers(1, 200), st.integers(0, 2**64 - 1))
def test_counts_equal_the_scalar_loop(weights, block, trials, seed):
    # a block this small puts several block edges inside every run
    with mock.patch.object(floatpath, "SAMPLE_BLOCK", block):
        counts = sample_outcome_pairs(weights, trials, [seed, 1])
    assert counts == scalar_draw_counts(weights, [seed, 1], [trials])[0]


@settings(deadline=None, max_examples=4)
@given(cell_weights, st.integers(0, 2**64 - 1))
def test_counts_equal_the_scalar_loop_across_a_full_block(weights, seed):
    trials = floatpath.SAMPLE_BLOCK + 1
    counts = sample_outcome_pairs(weights, trials, [seed, 1])
    assert counts == scalar_draw_counts(weights, [seed, 1], [trials])[0]
