import hashlib
import json

import pytest

from clusterport import (
    Report,
    RunConfig,
    Scheme,
    emit_report,
    run,
    run_derivation,
    run_enumeration,
    run_montecarlo,
    run_verification,
)


def enum_cfg(**kw):
    base = dict(scheme=Scheme.SPECIAL, mode="enumerate", random_inputs=3, seed=11)
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="enumerate")
        assert cfg.random_inputs == 100
        assert cfg.trials == 16000
        assert cfg.seed == 0
        assert cfg.fidelity_tol == 1e-10
        assert cfg.output_format == "text"

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
            dict(random_inputs=0),
            dict(seed=-1),
            dict(seed=2 ** 64),
            dict(fidelity_tol=1.0),
            dict(fidelity_tol=-0.1),
        ],
    )
    def test_bad_values_rejected(self, kw):
        base = dict(scheme=Scheme.SPECIAL, mode="enumerate")
        base.update(kw)
        with pytest.raises(ValueError):
            RunConfig(**base)

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
        assert len(report.branches) == 48
        assert len(report.inputs) == 3
        assert [b.input_index for b in report.branches[:17]] == [0] * 16 + [1]
        assert report.aggregates["num_inputs"] == 3

    def test_fixed_input_gives_one_block(self):
        report = run_enumeration(enum_cfg(input_coeffs=(0.6, 0.8)))
        assert len(report.branches) == 16
        assert report.inputs[0].coeffs == (0.6 + 0j, 0.8 + 0j)

    def test_pass_aggregates(self):
        report = run_enumeration(enum_cfg())
        agg = report.aggregates
        assert agg["pass"] is True and report.passed
        assert agg["min_fidelity"] >= 1 - 1e-10
        assert agg["total_probability_worst"] == pytest.approx(1.0, abs=1e-9)
        assert agg["branch_probability_min"] == pytest.approx(1 / 16, abs=1e-12)
        assert agg["branch_probability_max"] == pytest.approx(1 / 16, abs=1e-12)

    def test_zero_tolerance_can_fail(self):
        # seeded run whose worst fidelity sits a few ulp under 1, so a
        # zero tolerance must flip the verdict
        cfg = RunConfig(
            scheme=Scheme.ARBITRARY, mode="enumerate",
            random_inputs=5, seed=0, fidelity_tol=0.0,
        )
        report = run_enumeration(cfg)
        assert report.aggregates["min_fidelity"] < 1.0
        assert not report.passed

    def test_run_dispatches_by_mode(self):
        cfg = enum_cfg()
        assert run(cfg).aggregates == run_enumeration(cfg).aggregates


class TestMonteCarlo:
    def test_single_trial_single_record(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="sample", trials=1, seed=5)
        report = run_montecarlo(cfg)
        assert len(report.branches) == 1
        b = report.branches[0]
        assert b.count == 1 and b.frequency == 1.0
        assert b.probability == pytest.approx(1 / 16, abs=1e-12)
        assert report.aggregates["distinct_outcomes"] == 1

    def test_counts_total_trials(self):
        cfg = RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=400, seed=9)
        report = run_montecarlo(cfg)
        assert sum(b.count for b in report.branches) == 400
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
        # trial t draws from its own substream, so doubling the trial
        # count must not change what the first trials observed
        short = run_montecarlo(
            RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=50, seed=21)
        )
        long = run_montecarlo(
            RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=100, seed=21)
        )
        short_counts = {(b.outcome13, b.outcome26): b.count for b in short.branches}
        long_counts = {(b.outcome13, b.outcome26): b.count for b in long.branches}
        assert all(long_counts[pair] >= n for pair, n in short_counts.items())


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

    def test_seed_changes_report(self):
        a = emit_report(run(enum_cfg(seed=1, output_format="json")))
        b = emit_report(run(enum_cfg(seed=2, output_format="json")))
        assert a != b


class TestJsonFormat:
    def test_top_level_shape(self):
        doc = json.loads(emit_report(run(enum_cfg()), "json"))
        assert list(doc) == ["schema", "config", "branches", "aggregates", "verdicts"]
        assert doc["schema"] == 1
        assert doc["verdicts"] is None
        assert doc["config"]["mode"] == "enumerate"
        assert doc["config"]["scheme"] == 1
        assert len(doc["branches"]) == 48

    def test_floats_round_trip_exactly(self):
        report = run(enum_cfg(random_inputs=2))
        doc = json.loads(emit_report(report, "json"))
        for rec, raw in zip(report.branches, doc["branches"]):
            assert raw["probability"] == rec.probability
            assert raw["fidelity"] == rec.fidelity
        assert doc["aggregates"]["min_fidelity"] == report.aggregates["min_fidelity"]

    def test_coeffs_parse_back_as_complex(self):
        report = run(enum_cfg(input_coeffs=(0.6, 0.8j)))
        doc = json.loads(emit_report(report, "json"))
        parsed = [complex(s) for s in doc["config"]["coeffs"]]
        assert parsed == [0.6 + 0j, 0.8j]
        parsed_in = [complex(s) for s in doc["aggregates"]["inputs"][0]["coeffs"]]
        assert parsed_in == [0.6 + 0j, 0.8j]

    def test_sample_records_carry_counts(self):
        cfg = RunConfig(scheme=Scheme.SPECIAL, mode="sample", trials=64, seed=2)
        doc = json.loads(emit_report(run(cfg), "json"))
        assert all("count" in b and "frequency" in b for b in doc["branches"])
        assert sum(b["count"] for b in doc["branches"]) == 64

    def test_verify_verdict_rows(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="verify")
        doc = json.loads(emit_report(run(cfg), "json"))
        assert len(doc["verdicts"]) == 16
        assert all(v["verdict"] == "exact-up-to-global-phase" for v in doc["verdicts"])
        assert doc["branches"] == []
        assert doc["aggregates"]["pass"] is True

    def test_derive_verdict_rows(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="derive")
        doc = json.loads(emit_report(run(cfg), "json"))
        assert len(doc["verdicts"]) == 16
        assert all(v["derived"] == v["listed"] for v in doc["verdicts"])
        assert doc["aggregates"]["unique_per_cell"] is True


class TestCsvAndText:
    def test_enumerate_csv_shape(self):
        out = emit_report(run(enum_cfg(input_coeffs=(0.6, 0.8))), "csv")
        lines = out.decode().splitlines()
        assert lines[0] == "outcome13,outcome26,probability,fidelity,correction"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[0] == "Phi+" and first[1] == "Phi+"
        assert float(first[2]) == pytest.approx(1 / 16, abs=1e-12)

    def test_verify_csv_has_verdict_column(self):
        cfg = RunConfig(scheme=Scheme.SPECIAL, mode="verify")
        lines = emit_report(run(cfg), "csv").decode().splitlines()
        assert lines[0] == "outcome13,outcome26,verdict,derived,listed"
        assert len(lines) == 17

    def test_derive_csv_lacks_verdict_column(self):
        cfg = RunConfig(scheme=Scheme.ARBITRARY, mode="derive")
        lines = emit_report(run(cfg), "csv").decode().splitlines()
        assert lines[0] == "outcome13,outcome26,derived,listed"

    def test_text_reports_verdict_line(self):
        out = emit_report(run(enum_cfg()), "text").decode()
        assert out.endswith("result: PASS\n")
        assert "outcome13" in out

    def test_text_fail_line(self):
        cfg = RunConfig(
            scheme=Scheme.ARBITRARY, mode="enumerate",
            random_inputs=5, seed=0, fidelity_tol=0.0,
        )
        assert emit_report(run(cfg), "text").decode().endswith("result: FAIL\n")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(run(enum_cfg()), "yaml")


class TestReportObject:
    def test_passed_defaults_false_without_aggregate(self):
        r = Report(enum_cfg(), (), (), {})
        assert not r.passed


# SHA-256 of derive/verify reports as the probe-based derivation wrote them;
# the exact derivation must reproduce every byte
_PINNED_DIGESTS = {
    ("derive", 1, "json", 0): "901e67af8b77b49410dccc7a076685f7c4e0a5194d78fafa02a7d9f556a1a763",
    ("derive", 1, "json", 7): "15c86b22f9aef0f1f05a58d7c8d57456cbe465fe028ac6e65117ee61f49ecafc",
    ("derive", 1, "csv", 0): "eddbf167dfb14810d4ec74f3a57b98824924b3e6e3f334cc367c40329b281705",
    ("derive", 1, "csv", 7): "eddbf167dfb14810d4ec74f3a57b98824924b3e6e3f334cc367c40329b281705",
    ("derive", 1, "text", 0): "030cb82d96cfd2f79e18a7e828735872953cede1874e249595e0a0f4bbd0d796",
    ("derive", 1, "text", 7): "6b56ec93ee508b454b08f1f0c2cab202b45a7d7be6d53fafd6032f2b29caeb25",
    ("derive", 2, "json", 0): "9420f6df455cb805fc27eb8c50ccefce356626ca137d0e0c6b9adfce297fdaf0",
    ("derive", 2, "json", 7): "07a5e1bc89f1abee9d6f3f215361d69c906a02f01f665c6a75d9d306211014d3",
    ("derive", 2, "csv", 0): "546cbfb6d0b53225222030d599ab02a1b5cab71728cf5562731edf2ea279d64a",
    ("derive", 2, "csv", 7): "546cbfb6d0b53225222030d599ab02a1b5cab71728cf5562731edf2ea279d64a",
    ("derive", 2, "text", 0): "881295041728f5b62b2ce0bbb7b2d4419e47018180d56b88e56577452dd7206b",
    ("derive", 2, "text", 7): "ffac94b82e3dea6f2c10b7294a9f5b0f5838e9f1a2cb0cea72900a70896b2465",
    ("verify", 1, "json", 0): "5cfb05236754616ecb9dbece05b994597ab309775d8f31477480d02ff2e0ba02",
    ("verify", 1, "json", 7): "2edc367f382410f6f70ef629f579b9f1a80faf24b92c3d2f36bf7672b0308644",
    ("verify", 1, "csv", 0): "58e910938ba634d2205f85374882673fb78d91b03476496c38e3d6aaf4c28ad8",
    ("verify", 1, "csv", 7): "58e910938ba634d2205f85374882673fb78d91b03476496c38e3d6aaf4c28ad8",
    ("verify", 1, "text", 0): "99037e73a2256827a938072c7ade7e31d39a76be49ac176fd8cf17218dbbe0e1",
    ("verify", 1, "text", 7): "6f3a85adab133480da45dd6d583ca6b7db3f4389102227edd58010c92798b6a6",
    ("verify", 2, "json", 0): "c28abc34c5dce94cc9aa22c4f77d70b41e77e278b4600fbeb9f70a96bfdc92ef",
    ("verify", 2, "json", 7): "1cc858a679d955d876d9d8aeb6bb8ae9e569d83f8e9ee30707c72812c3ee0384",
    ("verify", 2, "csv", 0): "3612859f45dfb03a01faaa44ea84e36bb886a24f0a034fb8d0405763ffc1df27",
    ("verify", 2, "csv", 7): "3612859f45dfb03a01faaa44ea84e36bb886a24f0a034fb8d0405763ffc1df27",
    ("verify", 2, "text", 0): "559da2dfe663f5d7e0637a02124c841d7c369fd1e9021036388bf634ac8c5504",
    ("verify", 2, "text", 7): "32cc4c707df646550ab35171eb00c7151d91b7c32770d9c5fb70e6cbbb9e5137",
}


class TestPinnedReportDigests:
    @pytest.mark.parametrize("key", sorted(_PINNED_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_derive_verify_bytes_unchanged(self, key):
        mode, scheme, fmt, seed = key
        cfg = RunConfig(scheme=Scheme(scheme), mode=mode, seed=seed, output_format=fmt)
        assert hashlib.sha256(emit_report(run(cfg))).hexdigest() == _PINNED_DIGESTS[key]
