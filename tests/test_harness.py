import csv
import functools
import io
import itertools
import json
import math
import operator
import sys
import threading
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import dense_oracle
import repin
from clusterport import (
    BELL_OUTCOMES,
    BellOutcome,
    CorrectionOp,
    InputState,
    InputSummary,
    Report,
    RunConfig,
    Scheme,
    emit_report,
    exact,
    floatpath,
    harness,
    run,
    table_lookup,
)
from clusterport.cli import main, parse_args
from clusterport.harness import (
    CHI2_ALPHA,
    CSV_COLUMNS,
    FORMATS,
    MAX_RANDOM_INPUTS,
    chi2_sf,
    run_derivation,
    run_enumeration,
    run_montecarlo,
    run_verification,
)
from clusterport.floatpath import INPUT_BLOCK, SAMPLE_BLOCK, map_inputs
from clusterport.measurement import draw_index
from clusterport.statevec import StateVector, format_state
from einsum_certificate import branch_maps, repair_matrices, repair_stack


def wrong_table(scheme, o13, o26):
    """A correction table that repairs no branch of either scheme: it
    applies the table's own repair with X on particle 4 multiplied in."""
    op = table_lookup(scheme, o13, o26)[0]
    flipped = {"I": "X", "X": "I", "Y": "Z", "Z": "Y"}[op.p4]
    return [CorrectionOp(flipped, op.p5, cz_first=op.cz_first)]


def no_repair_table(scheme, o13, o26):
    """A table that leaves every branch as measured (the CZ step aside), so
    the outputs differ from branch to branch."""
    return [CorrectionOp("I", "I", cz_first=scheme is Scheme.ARBITRARY)]


def emit_as(report, fmt):
    """``report`` serialized in ``fmt``, under a copy of its config that
    asks for that format."""
    return emit_report(report._replace(config=report.config._replace(output_format=fmt)))


def enum_cfg(**kw):
    base = dict(scheme=Scheme.SPECIAL, mode="enumerate", random_inputs=3, seed=11)
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="enumerate")
        assert cfg._asdict() == {
            "scheme": Scheme.ARBITRARY, "mode": "enumerate", "input_coeffs": None,
            "random_inputs": 100, "trials": 16000, "seed": 0, "output_format": "text",
        }

    def test_scheme_coerced_from_int(self):
        cfg = RunConfig(scheme=2, mode="verify")
        assert cfg.scheme is Scheme.ARBITRARY

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="simulate"),
            dict(output_format="xml"),
            dict(trials=0),
            dict(trials=1.5),
            dict(trials=True),
            dict(random_inputs=0),
            dict(random_inputs=True),
            dict(random_inputs=MAX_RANDOM_INPUTS + 1),
            dict(seed=-1),
            dict(seed=2 ** 64),
            dict(seed=False),
        ],
    )
    def test_bad_values_rejected(self, kw):
        base = dict(scheme=Scheme.SPECIAL, mode="enumerate")
        base.update(kw)
        with pytest.raises(ValueError):
            RunConfig(**base)

    def test_random_inputs_cap_constructs(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="enumerate", random_inputs=MAX_RANDOM_INPUTS)
        assert cfg.random_inputs == MAX_RANDOM_INPUTS == 10_000

    def test_coeffs_validated_against_scheme(self):
        RunConfig(scheme=Scheme.SPECIAL, mode="enumerate", input_coeffs=(0.6, 0.8))
        with pytest.raises(ValueError):
            RunConfig(scheme=Scheme.SPECIAL, mode="enumerate", input_coeffs=(1, 0, 0, 0))
        with pytest.raises(ValueError):
            RunConfig(scheme=Scheme.SPECIAL, mode="enumerate", input_coeffs=(1, 1))

    def test_mode_mismatch_rejected_by_runners(self):
        cfg = enum_cfg()
        with pytest.raises(ValueError):
            run_montecarlo(cfg)
        with pytest.raises(ValueError):
            run_derivation(cfg)
        with pytest.raises(ValueError):
            run_verification(cfg)


class TestEnumeration:
    def test_record_layout(self):
        report = run_enumeration(enum_cfg(random_inputs=3))
        rows = dense_oracle.report_rows(report)
        assert len(rows) == 48
        assert len(report.inputs) == 3
        assert [r.input_index for r in rows[:17]] == [0] * 16 + [1]
        assert [(r.outcome13, r.outcome26) for r in rows[:16]] == dense_oracle.CELLS
        assert report.aggregates["num_inputs"] == 3

    def test_fixed_input_gives_one_block(self):
        report = run_enumeration(enum_cfg(input_coeffs=(0.6, 0.8)))
        assert len(dense_oracle.report_rows(report)) == 16
        assert report.inputs[0].coeffs == (0.6 + 0j, 0.8 + 0j)

    def test_pass_aggregates(self):
        report = run_enumeration(enum_cfg())
        agg = report.aggregates
        assert agg["pass"] is True and report.passed
        assert agg["min_fidelity"] == 1.0
        assert agg["total_probability_worst"] == pytest.approx(1.0, abs=1e-9)
        assert agg["branch_probability_min"] == pytest.approx(1 / 16, abs=1e-12)
        assert agg["branch_probability_max"] == pytest.approx(1 / 16, abs=1e-12)

    def test_zero_tolerance_passes_exactly(self):
        # a certified repair returns the input times a phase and 1/4, so the
        # fidelity is exactly 1, which the run requires
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="enumerate", random_inputs=5, seed=0)
        report = run_enumeration(cfg)
        assert report.aggregates["min_fidelity"] == 1.0
        assert {r.fidelity for r in dense_oracle.report_rows(report)} == {1.0}
        assert report.passed

    def test_wrong_repair_fails(self, monkeypatch):
        monkeypatch.setattr(harness, "table_lookup", wrong_table)
        report = run_enumeration(enum_cfg())
        assert report.aggregates["min_fidelity"] < 0.5
        assert not report.passed

    def test_run_dispatches_by_mode(self):
        cfg = enum_cfg()
        assert run(cfg).aggregates == run_enumeration(cfg).aggregates

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("coeffs", [False, True])
    # no repair: the fidelities differ from cell to cell, and for scheme 2
    # so do the last bits of the probabilities
    @pytest.mark.parametrize("table", [None, no_repair_table])
    def test_summaries_equal_python_reductions(self, monkeypatch, scheme, coeffs, table):
        if table is not None:
            monkeypatch.setattr(harness, "table_lookup", table)
        given = {Scheme.SPECIAL: (0.6, 0.8j), Scheme.ARBITRARY: (0.1, 0.3j, -0.5 + 0.2j, 0.61**0.5)}
        report = run_enumeration(
            enum_cfg(scheme=scheme, input_coeffs=given[scheme]) if coeffs
            else enum_cfg(scheme=scheme, random_inputs=100)
        )
        bits = lambda values: [x.hex() for x in values]  # noqa: E731
        # Python's builtin sum adds left to right up to 3.11 and compensates
        # from 3.12; the totals are the left-to-right sum on every version
        totals = [functools.reduce(operator.add, p) for p in report.probability]
        worst = [min(f) for f in report.fidelity]
        assert bits(s.total_probability for s in report.inputs) == bits(totals)
        assert bits(s.min_fidelity for s in report.inputs) == bits(worst)
        assert all(
            type(s.coeffs) is tuple and all(type(c) is complex for c in s.coeffs)
            for s in report.inputs
        )
        agg = report.aggregates
        assert bits([agg["min_fidelity"]]) == bits([min(worst)])
        worst_total = max(totals, key=lambda t: abs(t - 1))
        assert bits([agg["total_probability_worst"]]) == bits([worst_total])
        assert bits([agg["branch_probability_min"]]) == bits([min(map(min, report.probability))])
        assert bits([agg["branch_probability_max"]]) == bits([max(map(max, report.probability))])


class TestInputBlocks:
    # around the number of inputs map_inputs and format_states take at once
    SIZES = [INPUT_BLOCK - 1, INPUT_BLOCK, INPUT_BLOCK + 1, 2 * INPUT_BLOCK + 3]

    @pytest.mark.parametrize("table", [None, no_repair_table])
    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_rows_equal_each_input_alone(self, monkeypatch, scheme, table):
        # each input of a run, wherever a block boundary falls, reads as the
        # run of that input alone; so the first N inputs' rows are the rows
        # of a run with N
        if table is not None:
            monkeypatch.setattr(harness, "table_lookup", table)
        reports = [run_enumeration(enum_cfg(scheme=scheme, random_inputs=n)) for n in self.SIZES]
        alone = [
            run_enumeration(enum_cfg(scheme=scheme, input_coeffs=s.coeffs))
            for s in reports[-1].inputs
        ]
        for n, report in zip(self.SIZES, reports):
            each = alone[:n]
            assert report.inputs == tuple(a.inputs[0] for a in each)
            assert report.probability.tolist() == [a.probability[0].tolist() for a in each]
            assert report.fidelity.tolist() == [a.fidelity[0].tolist() for a in each]
            assert report.state == [a.state[0] for a in each]
            totals = [a.inputs[0].total_probability for a in each]
            assert report.aggregates == {
                "num_inputs": n,
                "min_fidelity": min(a.aggregates["min_fidelity"] for a in each),
                "total_probability_worst": max(totals, key=lambda t: abs(t - 1.0)),
                "branch_probability_min": min(a.aggregates["branch_probability_min"] for a in each),
                "branch_probability_max": max(a.aggregates["branch_probability_max"] for a in each),
                "pass": all(a.passed for a in each),
            }

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_block_size_does_not_change_reports(self, monkeypatch, fmt):
        cfg = enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=10, output_format=fmt)
        monkeypatch.setattr(harness, "table_lookup", no_repair_table)
        default = emit_report(run(cfg))
        monkeypatch.setattr(floatpath, "INPUT_BLOCK", 3)
        assert emit_report(run(cfg)) == default


def summed_map_inputs(maps, inputs):
    """``map_inputs`` as written with ``.sum(axis=-1)`` over the complex
    parts, block by block: the reference its written-out float-view sums
    must match bit for bit."""
    v = np.asarray(inputs, dtype=np.complex128)
    out = np.empty((len(v), len(maps), 4), dtype=np.complex128)
    prob, fid = np.empty(out.shape[:2]), np.empty(out.shape[:2])
    for start in range(0, len(v), INPUT_BLOCK):
        b = slice(start, start + INPUT_BLOCK)
        np.einsum("pij,nj->npi", maps, v[b], out=out[b])
        a, w = v[b, None, :], out[b]
        re = (a.real * w.real + a.imag * w.imag).sum(axis=-1)
        im = (a.real * w.imag - a.imag * w.real).sum(axis=-1)
        prob[b] = (w.real * w.real + w.imag * w.imag).sum(axis=-1)
        norm = (v[b].real * v[b].real + v[b].imag * v[b].imag).sum(axis=-1)
        fid[b] = (re * re + im * im) / (norm[:, None] * prob[b])
    return out, prob, fid


def listed_stack(scheme):
    ops = [table_lookup(scheme, o13, o26)[0] for o13, o26 in harness._ALL_PAIRS]
    return np.array([exact.repaired_map(op, cell) for cell, op in enumerate(ops)]) / 4 + 0j


def complex_rows(rng, count, scale):
    return (rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))) * scale


class TestMapInputsSums:
    """``map_inputs`` takes its sums on float views, written out left to
    right; every output bit equals the ``.sum(axis=-1)`` formulation's."""

    MAPS = {
        "listed-1": lambda rng: listed_stack(Scheme.SPECIAL),
        "listed-2": lambda rng: listed_stack(Scheme.ARBITRARY),
        "random": lambda rng: complex_rows(rng, 64, 1.0).reshape(16, 4, 4),
        "branch-maps": lambda rng: branch_maps().reshape(16, 4, 4),
        "einsum-repairs": lambda rng: repair_stack(True).reshape(256, 4, 4) / 4,
        "einsum-listed": lambda rng: repair_matrices(
            [table_lookup(Scheme.ARBITRARY, o13, o26)[0] for o13, o26 in harness._ALL_PAIRS]
        ) @ branch_maps().reshape(16, 4, 4),
    }
    INPUTS = {
        # every magnitude from 1e-150 to 1e150 in one row: some products
        # overflow or vanish, and a fidelity reads inf / inf
        "mixed": lambda rng, n: complex_rows(rng, n, 10.0 ** rng.integers(-150, 151, (n, 4))),
        "subnormal": lambda rng, n: complex_rows(
            rng, n, rng.choice([5e-324, 1e-310, 1e-300, 1.0], (n, 4))
        ),
        "signed-zeros": lambda rng, n: rng.choice(
            np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 0.6, -0.8j]), (n, 4)
        ),
        "basis": lambda rng, n: np.eye(4)[rng.integers(0, 4, n)] * rng.choice(
            [1, -1, 1j, -1j], (n, 1)
        ),
    }

    @pytest.mark.parametrize("count", [1, INPUT_BLOCK, INPUT_BLOCK + 1])
    @pytest.mark.parametrize("inputs", INPUTS)
    @pytest.mark.parametrize("maps", MAPS)
    def test_bits_equal_the_summed_formulation(self, maps, inputs, count):
        rng = np.random.default_rng([count, len(maps), len(inputs)])
        stack, v = self.MAPS[maps](rng), self.INPUTS[inputs](rng, count)
        with np.errstate(all="ignore"):
            got, want = map_inputs(stack, v), summed_map_inputs(stack, v)
        for name, a, b in zip(("out", "prob", "fid"), got, want):
            assert a.shape == b.shape, name
            assert a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes(), name

    def test_inputs_need_not_be_contiguous(self):
        # the float views need contiguous rows; a strided input is copied
        rng = np.random.default_rng(2)
        v = complex_rows(rng, 10, 1.0)
        stack = listed_stack(Scheme.ARBITRARY)
        got, want = map_inputs(stack, v[::2]), summed_map_inputs(stack, v[::2])
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        got = map_inputs(stack, np.asfortranarray(v))
        for a, b in zip(got, summed_map_inputs(stack, v)):
            assert a.tobytes() == b.tobytes()


class TestMonteCarlo:
    def test_single_trial_single_record(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=1, seed=5)
        report = run_montecarlo(cfg)
        (row,) = dense_oracle.report_rows(report)
        assert row.count == 1
        assert row.probability == pytest.approx(1 / 16, abs=1e-12)
        assert report.aggregates["distinct_outcomes"] == 1
        (raw,) = json.loads(emit_as(report, "json"))["branches"]
        assert raw["count"] == 1 and raw["frequency"] == 1.0

    def test_counts_total_trials(self):
        cfg = RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=400, seed=9)
        report = run_montecarlo(cfg)
        assert sum(r.count for r in dense_oracle.report_rows(report)) == 400
        assert report.passed

    def test_sigma_bookkeeping(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=1600, seed=3)
        agg = run_montecarlo(cfg).aggregates
        p = 1 / 16
        assert agg["expected_frequency"] == p
        assert agg["frequency_sigma"] == pytest.approx((p * (1 - p) / 1600) ** 0.5)
        assert agg["three_sigma"] == 3 * agg["frequency_sigma"]
        assert agg["max_frequency_deviation"] >= 0

    def test_trial_streams_independent_of_order(self):
        # trial t reads doubles 2t and 2t+1 of the one [seed, 1] stream, so
        # doubling the trial count must not change what the first trials
        # observed
        short = run_montecarlo(
            RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=50, seed=21)
        )
        long = run_montecarlo(
            RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=100, seed=21)
        )
        short_counts = {
            (r.outcome13, r.outcome26): r.count for r in dense_oracle.report_rows(short)
        }
        long_counts = {
            (r.outcome13, r.outcome26): r.count for r in dense_oracle.report_rows(long)
        }
        assert all(long_counts[pair] >= n for pair, n in short_counts.items())

    def test_chi2_bookkeeping(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=1600, seed=3)
        report = run_montecarlo(cfg)
        agg, counts = report.aggregates, cell_counts(report)
        assert agg["chi2"] == pytest.approx(sum((n - 100) ** 2 / 100 for n in counts), rel=1e-12)
        assert agg["chi2_dof"] == 15
        assert agg["chi2_p_value"] == chi2_sf(agg["chi2"], 15)
        assert agg["pass"] is (agg["chi2_p_value"] >= 1e-9)

    def test_counts_independent_of_block_size(self, monkeypatch):
        cfg = RunConfig(
            scheme=Scheme.ARBITRARY, mode="sample", trials=3 * SAMPLE_BLOCK + 5, seed=4
        )
        default = cell_counts(run_montecarlo(cfg))
        monkeypatch.setattr(floatpath, "SAMPLE_BLOCK", 3)
        assert cell_counts(run_montecarlo(cfg)) == default

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_counts_equal_a_scalar_loop_over_the_stream(self, scheme):
        report = run_montecarlo(RunConfig(scheme=scheme, mode="sample", trials=3000, seed=8))
        assert cell_counts(report) == scalar_loop_counts(report, 8, [3000])[0]

    def test_prefix_stable_across_block_boundaries(self):
        sizes = [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 3]
        reports = [
            run_montecarlo(RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=n, seed=21))
            for n in sizes
        ]
        expected = scalar_loop_counts(reports[-1], 21, sizes)
        assert [cell_counts(r) for r in reports] == expected

    def test_memory_does_not_grow_with_trials(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=10**6, seed=1)
        run_montecarlo(RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=1))  # cache the maps
        tracemalloc.start()
        try:
            report = run_montecarlo(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(cell_counts(report)) == 10**6
        assert peak < 4 * 2**20

    def test_sampler_stuck_on_one_cell_fails(self, monkeypatch, capsys):
        def stuck(u, first, second):
            return np.zeros(len(u), dtype=np.intp)

        monkeypatch.setattr(floatpath, "outcome_cells", stuck)
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=2000, seed=0)
        report = run_montecarlo(cfg)
        assert cell_counts(report)[0] == 2000
        assert report.aggregates["min_fidelity"] == 1.0
        assert report.aggregates["chi2_p_value"] < 1e-9
        assert not report.passed
        assert main(["sample", "--scheme", "2", "--trials", "2000"]) == 1
        assert capsys.readouterr().out.endswith("result: FAIL\n")


def cell_counts(report):
    """The 16 outcome-pair counts of a sample report, (1, 3) outcome major."""
    counts = [0] * 16
    for r in dense_oracle.report_rows(report):
        counts[4 * BELL_OUTCOMES.index(r.outcome13) + BELL_OUTCOMES.index(r.outcome26)] = r.count
    return counts


def scalar_loop_counts(report, seed, sizes):
    """Counts after each of ``sizes`` trials of a plain loop that feeds
    ``draw_index`` one uniform of default_rng([seed, 1]) at a time, using
    the branch probabilities a sample report lists for all 16 pairs."""
    rows = dense_oracle.report_rows(report)
    assert len(rows) == 16
    return scalar_draw_counts([r.probability for r in rows], [seed, 1], sizes)


def scalar_draw_counts(probs, seed, sizes):
    """``scalar_loop_counts`` for the 16 cell weights ``probs`` and the
    stream ``default_rng(seed)``."""
    joint = np.reshape(probs, (4, 4))
    cum_marginal, cum_rows = joint.sum(axis=1).cumsum(), joint.cumsum(axis=1)
    rng = np.random.default_rng(seed)
    counts, snapshots = [0] * 16, []
    for t in range(1, max(sizes) + 1):
        i = int(draw_index(cum_marginal, rng.random()))
        j = int(draw_index(cum_rows[i], rng.random()))
        counts[4 * i + j] += 1
        if t in sizes:
            snapshots.append(list(counts))
    return snapshots


def repaired_outputs(scheme, coeff_rows):
    """The normalized repaired output of every branch of every input, taken
    the way ``run_enumeration`` takes it, with ``harness.table_lookup``, but
    through the float repair matrices of the einsum reference."""
    ops = [harness.table_lookup(scheme, o13, o26)[0] for o13, o26 in harness._ALL_PAIRS]
    repaired = repair_matrices(ops) @ branch_maps().reshape(16, 4, 4)
    out, probs, _ = map_inputs(repaired, [InputState(scheme, c).amps for c in coeff_rows])
    return out / np.sqrt(probs)[..., None]


class TestStateStrings:
    """Each branch's ``state`` is format_state of its own output, whether or
    not the repair is certified."""

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("table", [None, wrong_table, no_repair_table])
    def test_states_are_format_state_of_each_output(self, monkeypatch, scheme, table):
        if table is not None:
            monkeypatch.setattr(harness, "table_lookup", table)
        report = run_enumeration(enum_cfg(scheme=scheme, random_inputs=5))
        unit = repaired_outputs(scheme, [s.coeffs for s in report.inputs])
        expected = [format_state(StateVector((4, 5), v)) for row in unit for v in row]
        assert [r.state for r in dense_oracle.report_rows(report)] == expected
        # a fixed Pauli error keeps one string per input; no repair does not
        assert (len(set(expected)) > 5) is (table is no_repair_table)

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_each_shown_state_is_formatted_once(self, ket_calls, scheme):
        # every repaired branch shows its input, so 100 inputs are 100
        # strings, each formatted once from its input's one class output
        report = run_enumeration(enum_cfg(scheme=scheme, random_inputs=100))
        assert len({text for row in report.state for text in row}) == 100
        assert len(ket_calls) == 100

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_csv_and_text_format_no_state(self, ket_calls, scheme, mode, fmt):
        report = run(RunConfig(scheme=scheme, mode=mode, trials=50, output_format=fmt))
        emit_report(report)
        assert ket_calls == []
        assert not report.outputs.flags.writeable

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_json_formats_each_distinct_output_once(self, ket_calls, scheme):
        report = run_enumeration(enum_cfg(scheme=scheme, random_inputs=100, output_format="json"))
        assert ket_calls == []
        emit_report(report)
        assert len(ket_calls) == 100
        # a second read and a second JSON report format nothing more
        assert len({text for row in report.state for text in row}) == 100
        emit_report(report)
        assert len(ket_calls) == 100

    def test_replaced_report_shows_the_same_states(self):
        report = run_enumeration(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=4))
        json_report = report._replace(config=report.config._replace(output_format="json"))
        assert json_report.state == report.state
        assert len(report.state) == 4 and all(len(row) == 16 for row in report.state)

    def test_concurrent_first_reads_agree(self):
        report = run_enumeration(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=50))
        expected = floatpath.format_states(cell_outputs(report))
        seen = []
        threads = [threading.Thread(target=lambda: seen.append(report.state)) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [expected] * 6 and report.state == expected

    def test_unrepaired_states_match_the_dense_simulation(self, monkeypatch):
        monkeypatch.setattr(harness, "table_lookup", no_repair_table)
        monkeypatch.setattr(dense_oracle, "table_lookup", no_repair_table)
        report = run_enumeration(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=2))
        for row in dense_oracle.report_rows(report):
            state = InputState(Scheme.ARBITRARY, report.inputs[row.input_index].coeffs)
            dense_oracle.assert_row_matches(state, row)


def signed_zero_report():
    values = [-0.0, 0.0, -0.0] + [0.5] * 13
    return Report(
        enum_cfg(), (), {"pass": True},
        corrections=(CorrectionOp("I", "Z"),) * 16,
        probability=[values], fidelity=[values], outputs=np.zeros((1, 16, 4)),
    )


def mismatch_verify_report():
    # a cell in which nothing is derived and the table lists two repairs
    row = {
        "outcome13": "Phi+", "outcome26": "Phi+", "verdict": "mismatch",
        "derived": [], "listed": ["IZ", "ZI"], "subspace_only": ["IZ", "ZI"],
    }
    return Report(RunConfig(scheme=Scheme.SPECIAL, mode="verify"), (), {"pass": False},
                  verdicts=(row,))


def csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class TestRowTemplates:
    def test_signed_zeros_keep_their_sign(self):
        # the per-report float cache must not hand 0.0 the text of -0.0
        report = signed_zero_report()
        doc = json.loads(emit_as(report, "json"))
        for key in ("probability", "fidelity"):
            assert [math.copysign(1, b[key]) for b in doc["branches"][:3]] == [-1, 1, -1]
        csv_rows = emit_as(report, "csv").decode().splitlines()[1:4]
        assert [row.split(",")[2:4] for row in csv_rows] == [["-0", "-0"], ["0", "0"], ["-0", "-0"]]
        text_rows = emit_as(report, "text").decode().splitlines()[2:5]
        assert [row.split()[2:4] for row in text_rows] == [["-0", "-0"], ["0", "0"], ["-0", "-0"]]

    @pytest.mark.parametrize("make", [
        lambda: run(enum_cfg(scheme=Scheme.SPECIAL, random_inputs=4)),
        lambda: run(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=4, seed=2**64 - 1)),
        # 5 trials leave at least 11 of the 16 cells undrawn
        lambda: run(RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=5, seed=3)),
        signed_zero_report,
        *(lambda mode=mode, scheme=scheme: run(RunConfig(scheme=scheme, mode=mode))
          for mode in ("derive", "verify") for scheme in Scheme),
        mismatch_verify_report,
    ], ids=["enumerate-1", "enumerate-2", "sample-undrawn", "signed-zeros",
            "derive-1", "derive-2", "verify-1", "verify-2", "verify-mismatch"])
    def test_csv_rows_are_what_csv_writer_writes(self, make):
        # rows are joined by hand, unquoted; they must read back as the
        # cells, and be the bytes csv.writer writes for those cells
        report = make()
        text = emit_as(report, "csv").decode()
        if report.verdicts is None:
            cells = [list(CSV_COLUMNS)] + [
                [row.outcome13.value, row.outcome26.value, format(row.probability, ".17g"),
                 format(row.fidelity, ".17g"), str(row.correction)]
                for row in dense_oracle.report_rows(report)
            ]
            listed = 16 if report.count is None else sum(map(bool, report.count))
            assert len(cells) == 1 + len(report.probability) * listed
        else:
            keys = ["outcome13", "outcome26", "verdict", "derived", "listed"]
            if report.config.mode == "derive":
                keys.remove("verdict")
            cells = [keys] + [
                [row[key] if key not in ("derived", "listed") else "|".join(row[key])
                 for key in keys]
                for row in report.verdicts
            ]
        assert list(csv.reader(io.StringIO(text))) == cells
        assert text == csv_writer_text(cells)

    def test_json_emission_peak_stays_near_the_report(self):
        # the report is joined once and the row strings freed before it is
        # encoded: about two copies at the peak, not three or more
        report = run(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=2000, seed=5))
        for fmt in FORMATS:
            emitted = report._replace(config=report.config._replace(output_format=fmt))
            tracemalloc.start()
            try:
                size = len(emit_report(emitted))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * size, (fmt, peak / size)


def fstring_report(report) -> bytes:
    """An ``enumerate`` or ``sample`` report as plain per-row f-strings write
    it, with no memo, template or cut rows: the reference for the emitters'
    bytes.  The JSON config and aggregate items come from the harness."""
    cfg, counts = report.config, report.count or [None] * 16
    listed = [b for b in range(16) if counts[b] != 0]
    rows = [
        (k, b, *harness._PAIR_NAMES[b], report.probability[k][b], report.fidelity[k][b],
         str(report.corrections[b]), counts[b])
        for k in range(len(report.probability)) for b in listed
    ]

    def coeffs(s, sep):
        return sep.join(f"{c.real:.17g}{c.imag:+.17g}j" for c in s.coeffs)

    def jf(x):
        text = f"{x:.17g}"
        return text if any(ch in text for ch in ".eE") else text + ".0"

    if cfg.output_format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [f"{o13},{o26},{p:.17g},{q:.17g},{op}" for _, _, o13, o26, p, q, op, _ in rows]
        return ("\n".join(lines) + "\n").encode()
    if cfg.output_format == "text":
        lines = [
            f"scheme={int(cfg.scheme)} mode={cfg.mode} seed={cfg.seed} schema={report.schema}"
        ]
        lines += [f"input {k}: {coeffs(s, ', ')}" for k, s in enumerate(report.inputs)]
        head = f"{'outcome13':<10}{'outcome26':<10}{'probability':<22}{'fidelity':<22}correction"
        lines.append(head if report.count is None else head + "  count  frequency")
        lines += [
            f"{o13:<10}{o26:<10}{p:<22.12g}{q:<22.12g}{op}"
            + ("" if n is None else f"  {n}  {n / cfg.trials:.6g}")
            for _, _, o13, o26, p, q, op, n in rows
        ]
        lines.append(" ".join(
            f"{key}={v:.12g}" if isinstance(v, float) else f"{key}={v}"
            for key, v in report.aggregates.items() if key != "pass"
        ))
        lines.append("result: " + ("PASS" if report.passed else "FAIL"))
        return ("\n".join(lines) + "\n").encode()
    branches = ",".join(
        f'{{"input":{k},"outcome13":"{o13}","outcome26":"{o26}","probability":{jf(p)},'
        f'"fidelity":{jf(q)},"correction":"{op}","state":"{report.state[k][b]}"'
        + ("}" if n is None else f',"count":{n},"frequency":{jf(n / cfg.trials)}}}')
        for k, b, o13, o26, p, q, op, n in rows
    )
    quoted = '","'
    inputs = ",".join(
        f'{{"coeffs":["{coeffs(s, quoted)}"],'
        f'"total_probability":{jf(s.total_probability)},"min_fidelity":{jf(s.min_fidelity)}}}'
        for s in report.inputs
    )
    return (
        f'{{"schema":{report.schema},"config":{{{harness._json_items(harness._config_dict(cfg))}}},'
        f'"branches":[{branches}],"aggregates":{{{harness._json_items(report.aggregates)},'
        f'"inputs":[{inputs}]}},"verdicts":null}}\n'
    ).encode()


def repeating_rows_report(fmt):
    """An ``enumerate`` report of 3 * ``_ROW_MEMO`` distinct value rows, taken
    twice over: of each three rows, two differ from the first only in one
    value, 0.0 in one and -0.0 in the other.  The coefficients are signed
    zeros, subnormals and extremes."""
    n = 3 * harness._ROW_MEMO
    probs, fids = [], []
    for k in range(n):
        row = [1 / 16 + (k // 3 + b) * 2.0 ** -56 for b in range(16)]
        if k % 3:
            row[k // 3 % 16] = 0.0 if k % 3 == 1 else -0.0
        probs.append(row)
        fids.append(row[::-1])
    probs, fids = probs * 2, fids * 2
    parts = [0.0, -0.0, 5e-324, -1e-310, 1e300, -0.6]
    inputs = tuple(
        InputSummary(tuple(complex(parts[(k + i) % 6], parts[(k + 2 * i) % 6]) for i in range(4)),
                     sum(p), min(f))
        for k, (p, f) in enumerate(zip(probs, fids))
    )
    rng = np.random.default_rng(9)
    return Report(
        enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=2 * n, output_format=fmt), inputs,
        {"num_inputs": 2 * n, "min_fidelity": -0.0, "pass": False},
        corrections=tuple(table_lookup(Scheme.ARBITRARY, *pair)[0] for pair in harness._ALL_PAIRS),
        probability=probs, fidelity=fids,
        outputs=complex_rows(rng, 2 * n * 16, 1.0).reshape(-1, 16, 4),
    )


class TestRowMemo:
    """Each report's emitter lays out each distinct value row once; its bytes
    are those of per-row f-strings whatever repeats, in every format."""

    CONFIGS = {
        "enumerate-1": dict(mode="enumerate", scheme=Scheme.SPECIAL, random_inputs=300, seed=5),
        "enumerate-2": dict(mode="enumerate", scheme=Scheme.ARBITRARY, random_inputs=300,
                            seed=2**64 - 1),
        "sample-2": dict(mode="sample", scheme=Scheme.ARBITRARY, seed=7),
        # 5 trials leave at least 11 of the 16 cells undrawn
        "sample-undrawn": dict(mode="sample", scheme=Scheme.SPECIAL, trials=5, seed=3),
    }

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "table", [None, wrong_table, no_repair_table], ids=["listed", "wrong", "no-repair"]
    )
    @pytest.mark.parametrize("config", CONFIGS)
    def test_bytes_equal_per_row_fstrings(self, monkeypatch, config, table, fmt):
        # a listed table repeats a few value rows; a wrong table's rows hold
        # fidelity 0 (scheme 1) or differ per input, more than the memo keeps
        if table is not None:
            monkeypatch.setattr(harness, "table_lookup", table)
        report = run(RunConfig(**self.CONFIGS[config], output_format=fmt))
        if report.config.mode == "enumerate" and table is None:
            assert len({(*p, *q) for p, q in zip(report.probability, report.fidelity)}) < 20
        assert emit_report(report) == fstring_report(report)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_repeated_rows_and_zeros(self, fmt):
        report = repeating_rows_report(fmt)
        assert emit_report(report) == fstring_report(report)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("table", [wrong_table, no_repair_table], ids=["wrong", "no-repair"])
    def test_signed_zero_rows_are_laid_out_once_each(self, monkeypatch, table, fmt):
        # a scheme-1 run of these tables reads fidelity 0.0 in some cells;
        # its value rows, the same rows with each zero made -0.0, and the
        # rows again: each distinct row (by its bits) is laid out once, and
        # each zero prints with its own sign
        monkeypatch.setattr(harness, "table_lookup", table)
        base = run(enum_cfg(scheme=Scheme.SPECIAL, random_inputs=3, output_format=fmt))
        assert all(0.0 in row for row in base.fidelity)
        negated = np.where(base.fidelity == 0, -0.0, base.fidelity)
        report = base._replace(
            inputs=base.inputs * 3, probability=np.concatenate([base.probability] * 3),
            fidelity=np.concatenate([base.fidelity, negated, base.fidelity]),
            outputs=np.concatenate([base.outputs] * 3),
        )
        # a row is laid out by formatting its values, a probability and a
        # fidelity for each cell in turn
        formatted = []
        input_rows = harness._input_rows
        monkeypatch.setattr(
            harness, "_input_rows", lambda pieces, probs, fids, f, *rest: input_rows(
                pieces, probs, fids, lambda x: formatted.append(x) or f(x), *rest
            )
        )
        assert emit_report(report) == fstring_report(report)

        def bits(report):
            rows = zip(report.probability.tolist(), report.fidelity.tolist())
            return [tuple(map(float.hex, p + q)) for p, q in rows]

        rows = list(dict.fromkeys(bits(report)))
        laid_out = [tuple(map(float.hex, formatted[k:k + 32:2] + formatted[k + 1:k + 32:2]))
                    for k in range(0, len(formatted), 32)]
        assert laid_out == rows
        assert len(rows) == 2 * len(set(bits(base)))

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("count", [1, harness._SUMMARY_BLOCK, 2 * harness._SUMMARY_BLOCK + 1])
    def test_summaries_of_any_coefficient_counts(self, fmt, count):
        # input lines and entries take one % a block: blocks end at their
        # size and wherever the coefficient count changes
        base = run(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=count, output_format=fmt))
        assert emit_report(base) == fstring_report(base)
        widths = [4, 2, 1, 4, 3, 2, 4]  # a width for each run of 10 inputs
        cut = tuple(s._replace(coeffs=s.coeffs[: widths[k // 10 % 7]])
                    for k, s in enumerate(base.inputs))
        report = base._replace(inputs=cut)
        assert emit_report(report) == fstring_report(report)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_interleaved_reports_give_their_own_bytes(self, monkeypatch, fmt):
        # the first two reports share every value row but not their repairs;
        # each report's pieces, taken in turn, must come from its own memo
        listed = run(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=40, output_format=fmt))
        relabelled = listed._replace(corrections=(CorrectionOp("X", "Y"),) * 16)
        monkeypatch.setattr(harness, "table_lookup", wrong_table)
        wrong = run(enum_cfg(scheme=Scheme.ARBITRARY, random_inputs=40, output_format=fmt))
        reports = (listed, relabelled, wrong, repeating_rows_report(fmt))
        streams = [harness.report_pieces(r) for r in reports]
        texts = [[] for _ in reports]
        for pieces in itertools.zip_longest(*streams):
            for text, piece in zip(texts, pieces):
                if piece is not None:
                    text.append(piece)
        assert ["".join(t).encode() for t in texts] == [fstring_report(r) for r in reports]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_that_never_repeat_keep_memory_flat(self, monkeypatch, tmp_path, fmt):
        # a wrong table's rows differ per input, and the memo stops at
        # _ROW_MEMO rows: the run peaks within 1 MiB of a listed-table run
        argv = ["enumerate", "--scheme", "2", "--seed", "7", "--format", fmt,
                "--out", str(tmp_path / "report")]
        peaks = []
        for table in (table_lookup, wrong_table):
            monkeypatch.setattr(harness, "table_lookup", table)
            main(argv)  # imports and caches outside the trace
            tracemalloc.start()
            try:
                main([*argv, "--random-inputs", str(MAX_RANDOM_INPUTS)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20, [peak / 2**20 for peak in peaks]


class TestChiSquareTail:
    @pytest.mark.parametrize("dof", [1, 3, 5, 7, 15, 31])
    def test_matches_scipy(self, dof):
        stats = pytest.importorskip("scipy.stats")
        for x in (0.0, 1e-6, 0.3, 1.0, 4.5, 15.0, 30.0, 73.63, 150.0, 400.0):
            assert chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-12, abs=1e-12)

    def test_known_values(self):
        assert chi2_sf(0.0, 15) == 1.0
        # the series alone rounds to 1.0000000000000002 here; the clamp holds it
        assert chi2_sf(0.053, 15) == 1.0
        assert chi2_sf(2.0, 1) == pytest.approx(math.erfc(1.0), rel=1e-15)
        # the benchmark checker's 1e-9 limit for 16 cells
        assert chi2_sf(73.63, 15) == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 5])
    def test_small_trial_false_alarm_rate(self, trials):
        # the exact rate at which a correct sampler fails the gate, summed
        # over every 16-cell count vector: 0 below 5 trials, and at 5 only
        # the 16 vectors with all trials in one cell fail
        expected = trials / 16
        rate = Fraction(0)
        for cells in itertools.combinations_with_replacement(range(16), trials):
            counts = [cells.count(b) for b in range(16)]
            chi2 = sum((n - expected) ** 2 / expected for n in counts)
            if chi2_sf(chi2, 15) < CHI2_ALPHA:
                ways = math.factorial(trials) // math.prod(map(math.factorial, counts))
                rate += Fraction(ways, 16 ** trials)
        assert rate == (Fraction(16, 16 ** 5) if trials == 5 else 0)

    def test_false_alarm_rate_up_to_30_trials(self):
        # chi2 = 16 sum(n^2) / T - T, so count vectors are grouped by
        # (T, sum(n^2)) in a DP over the 16 cells, each weighted by its
        # multinomial coefficient
        most = 30
        ways = {(0, 0): 1}
        for _ in range(16):
            grown = defaultdict(int)
            for (t, sq), w in ways.items():
                for n in range(most - t + 1):
                    grown[t + n, sq + n * n] += w * math.comb(t + n, n)
            ways = grown
        failing = defaultdict(int)
        for (t, sq), w in ways.items():
            if t:
                p = chi2_sf(float(Fraction(16 * sq, t) - t), 15)
                # every group is far from the threshold, so the gate's own
                # float rounding of chi2 cannot move a vector across it
                assert abs(p / CHI2_ALPHA - 1) > 1e-3, (t, sq)
                failing[t] += w * (p < CHI2_ALPHA)
        rates = {t: Fraction(failing[t], 16 ** t) for t in range(1, most + 1)}
        assert all(rates[t] == 0 for t in range(1, 5))
        assert rates[5] == Fraction(16, 16 ** 5)
        six_to_30 = [rates[t] for t in range(6, most + 1)]
        assert max(six_to_30) == rates[7] and min(six_to_30) == rates[30]
        assert [f"{float(rates[t]):.1e}" for t in (6, 7, 30)] == ["9.5e-07", "6.3e-06", "2.2e-07"]


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_enumerate_bytes_stable(self, fmt):
        cfg = enum_cfg(output_format=fmt)
        assert emit_report(run(cfg)) == emit_report(run(cfg))

    def test_sample_bytes_stable(self):
        cfg = RunConfig(
            scheme=Scheme.ARBITRARY, mode="sample",
            trials=200, seed=17, output_format="json",
        )
        assert emit_report(run(cfg)) == emit_report(run(cfg))

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_sample_bytes_do_not_depend_on_builtin_sum(self, monkeypatch, scheme):
        # from Python 3.12 builtin sum() compensates float sums; the report
        # adds left to right, so a compensated sum must not move a byte
        cfgs = [
            RunConfig(scheme=scheme, mode="sample", trials=4000, seed=seed, output_format="json")
            for seed in range(8)
        ]
        plain = [emit_report(run(cfg)) for cfg in cfgs]
        monkeypatch.setattr(harness, "sum", math.fsum, raising=False)
        assert [emit_report(run(cfg)) for cfg in cfgs] == plain

    def test_seed_changes_report(self):
        a = emit_report(run(enum_cfg(seed=1, output_format="json")))
        b = emit_report(run(enum_cfg(seed=2, output_format="json")))
        assert a != b


class TestJsonFormat:
    def test_top_level_shape(self):
        doc = json.loads(emit_as(run(enum_cfg()), "json"))
        assert list(doc) == ["schema", "config", "branches", "aggregates", "verdicts"]
        assert doc["schema"] == 6
        assert list(doc["config"]) == [
            "scheme", "mode", "coeffs", "random_inputs", "trials", "seed", "output_format",
        ]
        assert doc["verdicts"] is None
        assert doc["config"]["mode"] == "enumerate"
        assert doc["config"]["scheme"] == 1
        assert len(doc["branches"]) == 48

    def test_floats_round_trip_exactly(self):
        report = run(enum_cfg(random_inputs=2))
        doc = json.loads(emit_as(report, "json"))
        rows = dense_oracle.report_rows(report)
        assert len(rows) == len(doc["branches"]) == 32
        for row, raw in zip(rows, doc["branches"]):
            assert raw["probability"] == row.probability
            assert raw["fidelity"] == row.fidelity
        assert doc["aggregates"]["min_fidelity"] == report.aggregates["min_fidelity"]

    def test_coeffs_parse_back_as_complex(self):
        report = run(enum_cfg(input_coeffs=(0.6, 0.8j)))
        doc = json.loads(emit_as(report, "json"))
        parsed = [complex(s) for s in doc["config"]["coeffs"]]
        assert parsed == [0.6 + 0j, 0.8j]
        parsed_in = [complex(s) for s in doc["aggregates"]["inputs"][0]["coeffs"]]
        assert parsed_in == [0.6 + 0j, 0.8j]

    def test_sample_records_carry_counts(self):
        cfg = RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=64, seed=2)
        doc = json.loads(emit_as(run(cfg), "json"))
        assert all("count" in b and "frequency" in b for b in doc["branches"])
        assert sum(b["count"] for b in doc["branches"]) == 64

    def test_verify_verdict_rows(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="verify")
        doc = json.loads(emit_as(run(cfg), "json"))
        assert len(doc["verdicts"]) == 16
        assert all(v["verdict"] == "exact-up-to-global-phase" for v in doc["verdicts"])
        assert doc["branches"] == []
        assert doc["aggregates"]["pass"] is True

    def test_derive_verdict_rows(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="derive")
        doc = json.loads(emit_as(run(cfg), "json"))
        assert len(doc["verdicts"]) == 16
        assert all(v["derived"] == v["listed"] for v in doc["verdicts"])
        assert doc["aggregates"]["unique_per_cell"] is True


class TestJsonValues:
    """``_json_items`` writes None, bools and ints itself and sends strings
    and lists to the encoder: every value a config or aggregates dict holds
    comes out as compact json.dumps writes it, floats as ``_format_float``
    writes them."""

    ENCODE = json.JSONEncoder(separators=(",", ":")).encode

    class Count(int):
        """An int that prints otherwise: the encoder writes its digits."""

        def __str__(self):
            return "count"

        __repr__ = __str__

    @pytest.mark.parametrize(
        "value",
        [True, False, 0, 1, 15, -3, 2**64 - 1, Scheme.ARBITRARY, Count(7), None, "sample",
         "a\"b\\c\u00e9", [], ["0.59999999999999998+0j", "-0.80000000000000004j"]],
        ids=repr,
    )
    def test_values_as_the_encoder_writes_them(self, value):
        assert harness._json_items({"key": value}) == '"key":' + self.ENCODE(value)

    @pytest.mark.parametrize(
        "value,text",
        [(-0.0, "-0.0"), (1e16, "10000000000000000.0"), (5e-324, "4.9406564584124654e-324"),
         (0.0625, "0.0625"), (1.0, "1.0"), (3e-17, "3.0000000000000001e-17")],
    )
    def test_floats_through_format_float(self, value, text):
        assert harness._format_float(value) == text
        assert harness._json_items({"key": value}) == f'"key":{text}'
        assert json.loads("{" + harness._json_items({"key": value}) + "}")["key"] == value

    def test_a_whole_dict_joins_its_members(self):
        values = {"trials": 8000, "pass": True, "coeffs": None, "chi2": 12.5, "mode": "sample"}
        want = ",".join(f'"{k}":' + (
            harness._format_float(v) if isinstance(v, float) else self.ENCODE(v)
        ) for k, v in values.items())
        assert harness._json_items(values) == want

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_raise(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            harness._json_items({"key": value})


class TestCsvAndText:
    def test_enumerate_csv_shape(self):
        out = emit_as(run(enum_cfg(input_coeffs=(0.6, 0.8))), "csv")
        lines = out.decode().splitlines()
        assert lines[0] == "outcome13,outcome26,probability,fidelity,correction"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[0] == "Phi+" and first[1] == "Phi+"
        assert float(first[2]) == pytest.approx(1 / 16, abs=1e-12)

    def test_verify_csv_has_verdict_column(self):
        cfg = RunConfig(scheme=Scheme.SPECIAL, mode="verify")
        lines = emit_as(run(cfg), "csv").decode().splitlines()
        assert lines[0] == "outcome13,outcome26,verdict,derived,listed"
        assert len(lines) == 17

    def test_derive_csv_lacks_verdict_column(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="derive")
        lines = emit_as(run(cfg), "csv").decode().splitlines()
        assert lines[0] == "outcome13,outcome26,derived,listed"

    def test_text_reports_verdict_line(self):
        out = emit_as(run(enum_cfg()), "text").decode()
        assert out.endswith("result: PASS\n")
        assert "outcome13" in out

    def test_text_fail_line(self, monkeypatch):
        monkeypatch.setattr(harness, "table_lookup", wrong_table)
        assert emit_as(run(enum_cfg()), "text").decode().endswith("result: FAIL\n")

    def test_unknown_format_rejected(self):
        # a report is written in its config's format, and a config cannot
        # name an unknown one
        assert emit_report(run(enum_cfg(output_format="csv"))).startswith(b"outcome13,")
        with pytest.raises(ValueError):
            enum_cfg(output_format="yaml")


class TestSparseSampleRows:
    """A sample of few trials draws only some cells: every format lists the
    same drawn cells, in cell order, with the same values."""

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("seed", [0, 3, 7, 11, 19])
    def test_formats_list_the_same_drawn_cells(self, scheme, seed):
        trials = 5
        report = run(RunConfig(scheme=scheme, mode="sample", trials=trials, seed=seed))
        rows = dense_oracle.report_rows(report)
        drawn = [b for b in range(16) if report.count[b]]
        cells = [dense_oracle.CELLS[b] for b in drawn]
        assert [(r.outcome13, r.outcome26) for r in rows] == cells
        assert all(r.count >= 1 for r in rows) and sum(r.count for r in rows) == trials
        assert report.aggregates["distinct_outcomes"] == len(rows) < 16

        doc = json.loads(emit_as(report, "json"))
        assert doc["aggregates"]["distinct_outcomes"] == len(rows)
        assert len(doc["branches"]) == len(rows)
        for row, raw in zip(rows, doc["branches"]):
            assert raw["outcome13"] == row.outcome13.value
            assert raw["outcome26"] == row.outcome26.value
            assert raw["probability"] == row.probability
            assert raw["fidelity"] == row.fidelity
            assert raw["correction"] == str(row.correction)
            assert raw["count"] == row.count
            assert raw["frequency"] == row.count / trials

        csv_rows = emit_as(report, "csv").decode().splitlines()[1:]
        assert len(csv_rows) == len(rows)
        for row, line in zip(rows, csv_rows):
            o13, o26, prob, fid, op = line.split(",")
            assert (o13, o26) == (row.outcome13.value, row.outcome26.value)
            assert (float(prob), float(fid)) == (row.probability, row.fidelity)
            assert op == str(row.correction)

        lines = emit_as(report, "text").decode().splitlines()
        head = lines.index(next(line for line in lines if line.startswith("outcome13")))
        assert lines[head].endswith("count  frequency")
        text_rows = lines[head + 1:head + 1 + len(rows)]
        for row, line in zip(rows, text_rows):
            assert line.split() == [
                row.outcome13.value, row.outcome26.value,
                f"{row.probability:.12g}", f"{row.fidelity:.12g}", str(row.correction),
                str(row.count), f"{row.count / trials:.6g}",
            ]
        assert lines[head + 1 + len(rows)].startswith("trials=")
        assert f" distinct_outcomes={len(rows)} " in lines[head + 1 + len(rows)]


class TestReportObject:
    def test_passed_defaults_false_without_aggregate(self):
        r = Report(enum_cfg(), (), {})
        assert not r.passed

    @pytest.mark.parametrize("mode", ["derive", "verify"])
    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_fields_after_aggregates_take_the_record_defaults(self, scheme, mode):
        report = run(RunConfig(scheme, mode))
        assert report.probability == () and report.fidelity == ()
        bare = Report(report.config, (), {})
        assert tuple(Report._field_defaults) == Report._fields[3:]
        for name, default in Report._field_defaults.items():
            assert type(getattr(bare, name)) is type(default) and getattr(bare, name) == default
        # a derive or verify report sets verdicts alone of those fields
        assert report[4:] == bare[4:] and report.verdicts
        copy, changed = Report._make(report), report._replace(count=[1] * 16)
        assert type(copy) is type(changed) is Report
        assert copy == report and changed[:10] == report[:10]


RECORDS = {
    "RunConfig": lambda: RunConfig(Scheme.ARBITRARY, "derive"),
    "InputSummary": lambda: InputSummary((0.6 + 0j, 0.8j), 1.0, 1.0),
    "InputState": lambda: InputState(Scheme.SPECIAL, (0.6, 0.8j)),
    "CorrectionOp": lambda: CorrectionOp("I", "Z"),
    "Report": lambda: run(RunConfig(Scheme.SPECIAL, "enumerate", random_inputs=2)),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_fields_are_read_only(self, name):
        record = RECORDS[name]()
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        again = record._replace()
        assert type(again) is type(record) and again == record

    @pytest.mark.parametrize("record,change", [
        (RunConfig(Scheme.SPECIAL, "sample"), {"trials": 0}),
        (CorrectionOp("I", "Z"), {"p4": "Q"}),
        (InputState(Scheme.SPECIAL, (0.6, 0.8)), {"coeffs": (1, 1)}),
    ], ids=["RunConfig", "CorrectionOp", "InputState"])
    def test_replace_validates_as_the_constructor_does(self, record, change):
        with pytest.raises(ValueError) as built:
            type(record)(**{**record._asdict(), **change})
        with pytest.raises(ValueError) as replaced:
            record._replace(**change)
        assert str(replaced.value) == str(built.value)

    def test_replace_coerces_as_the_constructor_does(self):
        cfg = RunConfig(Scheme.SPECIAL, "sample")._replace(scheme=2, input_coeffs=[1, 0, 0, 0])
        assert cfg.scheme is Scheme.ARBITRARY
        assert cfg.input_coeffs == (1, 0, 0, 0) and type(cfg.input_coeffs[0]) is complex

    def test_reports_differing_only_in_outputs_are_equal(self):
        report = RECORDS["Report"]()
        other = report._replace(
            outputs=np.zeros_like(report.outputs), classes=None, phases=np.zeros(16),
        )
        assert report == other and not report != other
        assert report != report._replace(count=[1] * 16)
        assert report != report._replace(fidelity=[])

    def test_correction_ops_are_set_members_and_dict_keys(self):
        iz, also_iz = CorrectionOp("I", "Z"), CorrectionOp("I", "Z")
        cz_iz = CorrectionOp("I", "Z", cz_first=True)
        assert len({iz, also_iz, cz_iz}) == 2
        assert {iz: "listed"}[also_iz] == "listed"
        assert cz_iz not in {iz: "listed"}


# SHA-256 of the report bytes of each pinned config, keyed by its command
# line: derive and verify, enumerate and sample at seeds 0, 7 and 2**32 + 15,
# and --coeffs inputs where the zero entries of the repaired maps, whose
# signs are free, meet zero amplitudes.  Every byte must stay until a
# deliberate schema bump runs tests/repin.py
REPORT_DIGESTS = repin.load()


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(key):
    assert repin.digest(key) == REPORT_DIGESTS[key]


def test_report_digest_table_is_canonical_and_covers_every_family():
    with open(repin.PATH, "rb") as f:
        data = f.read()
    assert data == repin.table_bytes(json.loads(data))
    families = set()
    for key in json.loads(data):
        cfg, _ = parse_args(key.split())
        families.add((cfg.mode, cfg.scheme, cfg.output_format))
    assert families == set(itertools.product(harness.MODES, Scheme, FORMATS))


def sixteen_map_repair_branches(ops, scheme, coeffs):
    """``floatpath.repair_branches`` as it was before it mapped each input
    once per class of repaired maps: each cell's own map applied to every
    input, and no classes, so ``Report.state`` formats all 16 outputs of an
    input.  The reference the class path must match."""
    c = np.asarray(coeffs, dtype=np.complex128)
    amps = np.zeros((len(c), 4), dtype=np.complex128)
    amps[:, exact._BASIS_INPUTS[Scheme(scheme)]] = c
    maps = np.array([exact.repaired_map(op, cell) for cell, op in enumerate(ops)], dtype=complex)
    out, probs, fids = map_inputs(maps / 4, amps)
    out /= np.sqrt(probs)[..., None]
    out.setflags(write=False)
    return c, probs, fids, out, None, None


def reference_run(monkeypatch, cfg):
    """``run(cfg)`` through ``sixteen_map_repair_branches``."""
    with monkeypatch.context() as mp:
        mp.setattr(floatpath, "repair_branches", sixteen_map_repair_branches)
        return run(cfg)


def cell_outputs(report):
    """Each cell's own unit output, (inputs, 16, 4): its class's output
    times its phase, or ``outputs`` itself in a report with no classes."""
    if report.classes is None:
        return report.outputs
    return report.outputs.take(report.classes, axis=1) * report.phases[:, None]


def assert_same_branches(report, reference):
    """The probabilities and fidelities of ``report`` are the reference's
    bit for bit, its cells' outputs are the reference's values, and its
    display forms and bytes are the reference's."""
    values = operator.attrgetter("probability", "fidelity")
    assert np.array(values(report)).tobytes() == np.array(values(reference)).tobytes()
    # a cell's output is its class's times a unit phase: the same values,
    # with a zero part's sign free, which == on the float parts allows
    got, want = cell_outputs(report), cell_outputs(reference)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert report.state == reference.state
    assert emit_report(report) == emit_report(reference)


class TestOneMapPerClass:
    """``repair_branches`` maps each input once per class of repaired maps,
    and ``Report.state`` formats each class output once per input; every
    value, text and byte is the 16-map reference's, drawn and given inputs
    alike (the --coeffs inputs of the pin table, where zero amplitudes meet
    the maps' zero entries)."""

    GIVEN = sorted({key.rsplit(" --format", 1)[0] for key in REPORT_DIGESTS if "--coeffs" in key})
    DRAWN = [
        f"{mode} --scheme {scheme} --seed {seed}"
        for mode in ("enumerate --random-inputs 1000", "sample")
        for scheme in (1, 2) for seed in (0, 7, 2**64 - 1)
    ]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("args", DRAWN + GIVEN)
    def test_reports_equal_the_sixteen_map_reference(self, monkeypatch, args, fmt):
        cfg, _ = parse_args([*args.split(), "--format", fmt])
        assert_same_branches(run(cfg), reference_run(monkeypatch, cfg))


class TestValueArrays:
    """A run keeps its probabilities and fidelities as the arrays it made
    them in, to the report text; a report with nested lists there instead
    emits the same bytes."""

    @pytest.mark.parametrize("args", TestOneMapPerClass.DRAWN)
    def test_values_are_read_only_arrays_of_the_reference_bits(self, monkeypatch, args):
        cfg, _ = parse_args(args.split())
        report, reference = run(cfg), reference_run(monkeypatch, cfg)
        for got, want in zip((report.probability, report.fidelity),
                             (reference.probability, reference.fidelity)):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == (len(report.inputs), 16) and not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("args", [
        "enumerate --scheme 1", "enumerate --scheme 2", "sample --scheme 1", "sample --scheme 2",
        "sample --scheme 2 --trials 5",  # most cells undrawn
    ])
    def test_nested_list_copies_emit_the_same_bytes(self, args, seed, fmt):
        cfg, _ = parse_args([*args.split(), "--seed", str(seed), "--format", fmt])
        report = run(cfg)
        lists = report._replace(
            probability=report.probability.tolist(), fidelity=report.fidelity.tolist(),
        )
        assert lists == report
        assert emit_report(lists) == emit_report(report)


def basis_coeffs(scheme):
    k = 2 if scheme is Scheme.SPECIAL else 4
    return [",".join("1" if i == j else "0" for j in range(k)) for i in range(k)]


class TestAgainstDenseOracle:
    """Enumerate and sample evaluate the branch maps; the dense six-qubit
    simulation must agree record for record and count for count."""

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_enumerate_records(self, scheme, seed):
        report = run_enumeration(
            RunConfig(scheme=scheme, mode="enumerate", random_inputs=6, seed=seed)
        )
        rows = dense_oracle.report_rows(report)
        assert len(rows) == 96
        for row in rows:
            state = InputState(scheme, report.inputs[row.input_index].coeffs)
            dense_oracle.assert_row_matches(state, row)

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_sample_counts(self, scheme, seed):
        report = run_montecarlo(RunConfig(scheme=scheme, mode="sample", trials=800, seed=seed))
        state = InputState(scheme, report.inputs[0].coeffs)
        dense = dense_oracle.sample_counts(state, seed, 800)
        rows = dense_oracle.report_rows(report)
        counts = {(r.outcome13, r.outcome26): r.count for r in rows}
        assert {pair: counts.get(pair, 0) for pair in dense} == dense
        for row in rows:
            dense_oracle.assert_row_matches(state, row)

    @pytest.mark.parametrize("scheme", [Scheme.SPECIAL, Scheme.ARBITRARY])
    def test_degenerate_inputs_via_coeffs(self, scheme, tmp_path, capsys):
        for text in basis_coeffs(scheme):
            state = InputState(scheme, tuple(complex(t) for t in text.split(",")))
            for mode in ("enumerate", "sample"):
                out = tmp_path / f"{mode}.json"
                argv = [mode, "--scheme", str(int(scheme)), "--coeffs", text,
                        "--seed", "3", "--format", "json", "--out", str(out)]
                if mode == "sample":
                    argv += ["--trials", "500"]
                assert main(argv) == 0
                doc = json.loads(out.read_text())
                assert [complex(c) for c in doc["config"]["coeffs"]] == list(state.coeffs)
                if mode == "enumerate":
                    assert len(doc["branches"]) == 16
                counts = {}
                for raw in doc["branches"]:
                    row = SimpleNamespace(**raw)
                    row.outcome13 = BellOutcome(row.outcome13)
                    row.outcome26 = BellOutcome(row.outcome26)
                    dense_oracle.assert_row_matches(state, row)
                    counts[(row.outcome13, row.outcome26)] = raw.get("count")
                if mode == "sample":
                    dense_counts = dense_oracle.sample_counts(state, 3, 500)
                    assert {p: counts.get(p, 0) for p in dense_counts} == dense_counts
        assert capsys.readouterr().out == ""
