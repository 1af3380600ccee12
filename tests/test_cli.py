import contextlib
import errno
import io
import json
import os
import stat
import sys
import threading
import tracemalloc

import pytest

from clusterport import BellOutcome, CorrectionOp, Scheme, cli, exact, harness
from clusterport.cli import _parse_coeffs, main, parse_args
from clusterport.harness import FORMATS, MAX_RANDOM_INPUTS, MODES, RunConfig, emit_report
from test_corrections import reject_everything
from test_harness import wrong_table


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffParsing:
    def test_comma_separated(self):
        assert _parse_coeffs("0.6,0.8j") == (0.6 + 0j, 0.8j)

    def test_whitespace_and_mixed(self):
        assert _parse_coeffs(" 0.5, 0.5 0.5j,-0.5j ") == (0.5, 0.5, 0.5j, -0.5j)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="could not parse '0.6,spam'"):
            _parse_coeffs("0.6,spam")
        with pytest.raises(ValueError, match="empty coefficient list"):
            _parse_coeffs("  ,  ")


def parse_exit(capsys, argv):
    """The exit code, stdout and stderr of a ``parse_args`` call that exits."""
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParser:
    def test_mode_required(self, capsys):
        code, out, err = parse_exit(capsys, [])
        assert (code, out) == (2, "")
        assert err.startswith("usage: clusterport ")
        assert err.endswith("clusterport: error: the following arguments are required: mode\n")

    def test_scheme_required(self, capsys):
        code, _, err = parse_exit(capsys, ["enumerate"])
        assert code == 2
        assert err.endswith("clusterport: error: the following arguments are required: --scheme\n")

    def test_scheme_choices(self, capsys):
        code, _, err = parse_exit(capsys, ["enumerate", "--scheme", "3"])
        assert code == 2
        assert "argument --scheme: must be one of (1, 2), got 3" in err
        # converted with int first, so a leading zero still names scheme 1
        assert parse_args(["enumerate", "--scheme", "01"])[0].scheme is Scheme.SPECIAL

    def test_defaults(self):
        cfg, out = parse_args(["sample", "--scheme", "2"])
        assert cfg.trials == 16000
        assert cfg.seed == 0
        assert cfg.output_format == "text"
        assert cfg.fidelity_tol == 1e-10
        assert out is None

    def test_random_inputs_default(self):
        cfg, _ = parse_args(["enumerate", "--scheme", "1"])
        assert cfg.random_inputs == 100

    @pytest.mark.parametrize("mode", MODES)
    def test_every_option_sets_a_config_field(self, mode):
        # a stray field would make RunConfig(**values) raise TypeError, a
        # traceback instead of exit 2; the table holds no defaults to shadow
        # RunConfig's, and no flag starts another, so a whole flag is never
        # taken for an ambiguous prefix
        assert tuple(cli.MODES) == MODES
        options = cli.MODES[mode][1]
        fields = {name for name, *_ in options.values()}
        assert fields - {None, "out", "renormalize"} <= set(RunConfig._fields)
        assert all(len(entry) == 4 for entry in options.values())
        assert not [(a, b) for a in options for b in options if a != b and b.startswith(a)]

    @pytest.mark.parametrize("scheme", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_only_scheme_builds_the_default_config(self, mode, scheme):
        assert parse_args([mode, "--scheme", str(scheme)]) == (RunConfig(Scheme(scheme), mode), None)

    def test_random_inputs_help_states_the_cap(self, capsys):
        code, out, err = parse_exit(capsys, ["enumerate", "--help"])
        assert (code, err) == (0, "")
        assert f"at most {MAX_RANDOM_INPUTS}" in " ".join(out.split())

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["derive", "-h"], ["verify", "--he"],
                                      ["sample", "--scheme", "1", "-h", "--bogus"]])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = parse_exit(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: clusterport ") and "--scheme" in out

    def test_the_last_repeat_wins(self):
        argv = ["enumerate", "--scheme", "2", "--seed", "3", "--sch=1", "--se=4", "--format", "csv"]
        assert parse_args(argv) == (RunConfig(Scheme(1), "enumerate", seed=4, output_format="csv"), None)

    def test_a_negative_number_is_a_value(self, capsys):
        # so RunConfig, not the parser, rejects it
        code, out, err = run_main(capsys, "derive", "--scheme", "1", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "clusterport: seed must be a 64-bit unsigned integer, got -1\n"

    @pytest.mark.parametrize("argv, error", [
        (["bogus"], "argument mode: invalid choice: 'bogus'"),
        (["enumerate", "--scheme", "x"], "argument --scheme: invalid literal for int()"),
        (["enumerate", "--scheme", "1", "--format", "xml"], "argument --format: must be one of"),
        (["enumerate", "--scheme", "1", "--renormalize=x"],
         "argument --renormalize: ignored explicit argument 'x'"),
        (["enumerate", "--scheme", "1", "--r", "3"],
         "ambiguous option: --r could match --renormalize, --random-inputs"),
        (["enumerate", "--scheme", "1", "--seed"], "argument --seed: expected one argument"),
        (["enumerate", "--scheme", "1", "--seed", "-x"], "argument --seed: expected one argument"),
        (["enumerate", "--scheme", "1", "--out", "-"], "argument --out: expected one argument"),
        (["enumerate", "--scheme", "1", "--coeffs="], "argument --coeffs: empty coefficient list"),
        (["derive", "--scheme", "1", "--coeffs", "1,0"], "unrecognized argument: --coeffs"),
        (["derive", "--scheme", "1", "extra"], "unrecognized argument: extra"),
        (["derive", "--scheme", "1", "-s", "2"], "unrecognized argument: -s"),
    ])
    def test_unusable_arguments_exit_2_after_the_usage(self, capsys, argv, error):
        code, out, err = parse_exit(capsys, argv)
        assert (code, out) == (2, "")
        usage, line = err.split("\n", 1)
        assert usage.startswith(f"usage: clusterport {argv[0] if argv[0] in MODES else '{'}")
        assert line.startswith(f"clusterport: error: {error}") and line.endswith("\n")

    def test_negative_coeffs_are_parsed_once_per_call(self, capsys, monkeypatch):
        # main reads its arguments in one parse_args call, which keeps a
        # leading minus sign as part of the list
        calls = []
        parse = cli.parse_args
        monkeypatch.setattr(cli, "parse_args", lambda argv: calls.append(parse(argv)) or calls[-1])
        code, _, err = run_main(
            capsys, "enumerate", "--scheme", "1", "--coeffs", "-0.6,0.8", "--format", "csv",
        )
        assert (code, err, len(calls)) == (0, "", 1)
        assert calls[0][0].input_coeffs == (-0.6, 0.8)


class TestNegativeCoeffs:
    """A --coeffs list that starts with a minus sign is the option's value,
    written apart or with '=', and never swallows the next option."""

    LISTS = ["-0.6,0.8", "-0.0,1", "-1j,0"]

    @pytest.mark.parametrize("coeffs", LISTS)
    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_apart_equals_joined(self, capsys, mode, coeffs):
        args = [mode, "--scheme", "1", "--format", "json"]
        if mode == "sample":
            args += ["--trials", "300"]
        joined = run_main(capsys, *args, f"--coeffs={coeffs}")
        apart = run_main(capsys, *args, "--coeffs", coeffs)
        assert joined[0] == 0 and joined[2] == ""
        assert apart == joined
        assert parse_args([*args, "--coeffs", coeffs]) == parse_args([*args, f"--coeffs={coeffs}"])

    def test_apart_then_renormalize(self, capsys):
        args = ["enumerate", "--scheme", "1", "--format", "json"]
        apart = run_main(capsys, *args, "--coeffs", "-3,4", "--renormalize")
        assert apart == run_main(capsys, *args, "--coeffs=-3,4", "--renormalize")
        assert apart[0] == 0

    def test_an_option_is_not_the_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--scheme", "1", "--coeffs", "--renormalize"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --coeffs: expected one argument" in err

    def test_help_says_so(self, capsys):
        code, out, _ = parse_exit(capsys, ["sample", "--help"])
        assert code == 0
        assert "a leading minus sign is part of the list" in " ".join(out.split())


class TestMain:
    def test_enumerate_fixed_input_passes(self, capsys):
        code, out, err = run_main(
            capsys, "enumerate", "--scheme", "1", "--coeffs", "0.6,0.8",
            "--format", "text",
        )
        assert code == 0
        assert out.endswith("result: PASS\n")
        assert err == ""

    def test_enumerate_json_structure(self, capsys):
        code, out, _ = run_main(
            capsys, "enumerate", "--scheme", "2",
            "--coeffs", "0.5,0.5,0.5,0.5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["aggregates"]["pass"] is True
        assert len(doc["branches"]) == 16

    def test_unnormalized_coeffs_exit_2(self, capsys):
        code, _, err = run_main(capsys, "enumerate", "--scheme", "1", "--coeffs", "1,1")
        assert code == 2
        assert "not normalized" in err

    @pytest.mark.parametrize("coeffs", ["nan,0", "1,infj", "0,nan+1j"])
    def test_nonfinite_coeffs_exit_2(self, capsys, coeffs):
        code, out, err = run_main(capsys, "enumerate", "--scheme", "1", "--coeffs", coeffs)
        assert (code, out) == (2, "")
        assert err == "clusterport: coefficients must be finite\n"

    def test_renormalize_all_zero_coeffs_exit_2(self, capsys):
        code, out, err = run_main(
            capsys, "enumerate", "--scheme", "1", "--renormalize", "--coeffs", "0,0"
        )
        assert (code, out) == (2, "")
        assert err == "clusterport: cannot renormalize all-zero coefficients\n"

    def test_one_random_input(self, capsys):
        code, out, _ = run_main(
            capsys, "enumerate", "--scheme", "2", "--random-inputs", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["random_inputs"] == 1
        assert doc["aggregates"]["num_inputs"] == len(doc["aggregates"]["inputs"]) == 1
        assert len(doc["branches"]) == 16
        assert doc["aggregates"]["pass"] is True

    def test_renormalize_rescues_coeffs(self, capsys):
        code, out, _ = run_main(
            capsys, "enumerate", "--scheme", "1", "--coeffs", "1,1",
            "--renormalize", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        parsed = [complex(s) for s in doc["config"]["coeffs"]]
        assert abs(parsed[0] - 2 ** -0.5) < 1e-12

    def test_wrong_coeff_count_exit_2(self, capsys):
        code, _, err = run_main(
            capsys, "enumerate", "--scheme", "2", "--coeffs", "0.6,0.8"
        )
        assert code == 2
        assert "coefficients" in err

    def test_bad_trials_exit_2(self, capsys):
        code, _, err = run_main(
            capsys, "sample", "--scheme", "1", "--trials", "0"
        )
        assert code == 2
        assert "trials" in err

    def test_random_inputs_above_cap_exit_2(self, capsys):
        code, out, err = run_main(
            capsys, "enumerate", "--scheme", "2", "--random-inputs", str(MAX_RANDOM_INPUTS + 1),
        )
        assert code == 2
        assert out == ""
        assert err == f"clusterport: random_inputs must be at most {MAX_RANDOM_INPUTS}, got 10001\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_stdout_write_failure_exit_2(self, capsys, monkeypatch, failing):
        # a full disk behind stdout is an unwritable report, not a failed check
        class FullBuffer:
            def write(self, data):
                if failing == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return len(data)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FullStdout:
            buffer = FullBuffer()

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(["derive", "--scheme", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"clusterport: cannot write report: {os.strerror(errno.ENOSPC)}\n"

    def test_closed_stdout_exit_2(self, capsys, monkeypatch):
        # Python sets sys.stdout to None when descriptor 1 is closed
        monkeypatch.setattr(sys, "stdout", None)
        code = main(["derive", "--scheme", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "clusterport: cannot write report: stdout is closed\n"

    @pytest.mark.parametrize("table", [None, wrong_table], ids=["listed", "wrong"])
    @pytest.mark.parametrize("mode", MODES)
    def test_text_stdout_takes_the_report_text(self, capsys, monkeypatch, tmp_path, mode, table):
        # a text stream with no byte buffer, such as redirect_stdout puts in
        # place, gets the report decoded and the exit code of --out
        if table is not None:
            monkeypatch.setattr(harness, "table_lookup", table)
        argv = [mode, "--scheme", "2", "--seed", "7"]
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            code = main(argv)
        assert code == main([*argv, "--out", str(tmp_path / "report")])
        assert code == (1 if table is not None and mode != "derive" else 0)
        report = harness.run(parse_args(argv)[0])
        assert stream.getvalue() == emit_report(report).decode()
        assert capsys.readouterr() == ("", "")

    def test_zero_tolerance_exit_0(self, capsys):
        # every repaired fidelity is exactly 1, so a zero tolerance passes
        for mode in ("enumerate", "sample"):
            for scheme in ("1", "2"):
                code, out, _ = run_main(
                    capsys, mode, "--scheme", scheme, "--seed", "0", "--tol", "0",
                )
                assert code == 0
                assert out.endswith("result: PASS\n")

    def test_wrong_repair_exit_1(self, capsys, monkeypatch):
        # a table whose repairs fail: the report still prints, the code flips
        monkeypatch.setattr(harness, "table_lookup", wrong_table)
        code, out, _ = run_main(
            capsys, "enumerate", "--scheme", "2", "--random-inputs", "5", "--seed", "0",
        )
        assert code == 1
        assert out.endswith("result: FAIL\n")

    def test_verify_fails_a_subspace_only_scheme2_entry(self, capsys, monkeypatch):
        # CZ+ZZ in cell (Phi+, Phi+) is the Z-twin of CZ+II: exact on the
        # |00>/|11> span alone, so it breaks the claim for arbitrary inputs
        phi_p = BellOutcome.PHI_PLUS

        def twin_table(scheme, o13, o26):
            if (scheme, o13, o26) == (Scheme.ARBITRARY, phi_p, phi_p):
                return [CorrectionOp("Z", "Z", cz_first=True)]
            return exact.table_lookup(scheme, o13, o26)

        monkeypatch.setattr(harness, "table_lookup", twin_table)
        code, out, _ = run_main(capsys, "verify", "--scheme", "2")
        assert code == 1
        assert "(Phi+, Phi+)  subspace-only  derived=CZ+II  listed=CZ+ZZ\n" in out
        assert "exact=15 subspace_only=1 mismatch=0\nresult: FAIL\n" in out
        code, out, _ = run_main(capsys, "enumerate", "--scheme", "2", "--random-inputs", "5")
        assert code == 1 and out.endswith("result: FAIL\n")

    def test_huge_coeffs_exit_2(self, capsys):
        code, _, err = run_main(capsys, "enumerate", "--scheme", "1", "--coeffs", "1e200,1")
        assert code == 2
        assert "not normalized" in err

    @pytest.mark.parametrize(
        "mode, scheme, coeffs, expected",
        [
            ("enumerate", "1", "1e200,1", [1, 0]),
            ("sample", "2", "1e-200,0,0,0", [1, 0, 0, 0]),
            ("enumerate", "2", "1e308,1e308j,-1e308,0", [0.5773502691896258, 0.5773502691896258j, -0.5773502691896258, 0]),
        ],
    )
    def test_renormalize_extreme_magnitudes(self, capsys, mode, scheme, coeffs, expected):
        code, out, _ = run_main(
            capsys, mode, "--scheme", scheme, "--coeffs", coeffs,
            "--renormalize", "--format", "json",
        )
        assert code == 0
        parsed = [complex(c) for c in json.loads(out)["config"]["coeffs"]]
        assert parsed == pytest.approx(expected, abs=1e-15)

    def test_sample_small_run(self, capsys):
        code, out, _ = run_main(
            capsys, "sample", "--scheme", "2", "--trials", "64",
            "--seed", "7", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert sum(b["count"] for b in doc["branches"]) == 64

    def test_verify_both_schemes(self, capsys):
        for scheme in ("1", "2"):
            code, out, _ = run_main(
                capsys, "verify", "--scheme", scheme, "--format", "json"
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["aggregates"]["mismatch"] == 0

    def test_derive_csv(self, capsys):
        code, out, _ = run_main(capsys, "derive", "--scheme", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outcome13,outcome26,derived,listed"
        assert len(lines) == 17

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("mode", ["derive", "verify"])
    def test_nothing_certified_writes_a_failing_report(self, capsys, tmp_path,
                                                       monkeypatch, mode, fmt):
        monkeypatch.setattr(harness, "certified_repairs", reject_everything)
        dest = tmp_path / f"report.{fmt}"
        code, out, err = run_main(
            capsys, mode, "--scheme", "2", "--format", fmt, "--out", str(dest),
        )
        assert code == 1
        assert out == "" and err == ""
        text = dest.read_text()
        if fmt == "json":
            doc = json.loads(text)
            assert doc["aggregates"]["pass"] is False
            assert [row["derived"] for row in doc["verdicts"]] == [[]] * 16
        elif fmt == "text":
            assert text.endswith("result: FAIL\n")
            assert text.count("derived=  ") == 16

    @pytest.mark.parametrize("scheme", ["1", "2"])
    @pytest.mark.parametrize("mode, allowed", [("derive", {1}), ("verify", {2})])
    def test_one_certificate_per_table(self, capsys, monkeypatch, mode, allowed, scheme):
        # each certificate covers all 16 cells at once: derive needs its own,
        # verify one more
        calls = []
        real = exact.certified_repairs

        def counting(cz, s):
            calls.append((cz, s))
            return real(cz, s)

        monkeypatch.setattr(harness, "certified_repairs", counting)
        code, _, _ = run_main(capsys, mode, "--scheme", scheme, "--format", "json")
        assert code == 0
        assert len(calls) in allowed
        assert (int(scheme) == 2, Scheme(int(scheme))) in calls

    def test_each_run_reads_the_certificate(self, capsys, monkeypatch):
        # the certificate is built once per process, but no report is: a
        # run sees the certificate as it is at that run
        argv = ("derive", "--scheme", "2", "--format", "json")
        passing = run_main(capsys, *argv)
        assert passing[0] == 0
        with monkeypatch.context() as mp:
            mp.setattr(harness, "certified_repairs", reject_everything)
            code, out, _ = run_main(capsys, *argv)
            assert code == 1
            assert [row["derived"] for row in json.loads(out)["verdicts"]] == [[]] * 16
        assert run_main(capsys, *argv) == passing

    def test_out_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_main(
            capsys, "enumerate", "--scheme", "1", "--coeffs", "0.6,0.8",
            "--format", "json", "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(dest.read_text())
        assert doc["schema"] == 5

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("scheme", ["1", "2"])
    @pytest.mark.parametrize("mode", MODES)
    def test_stdout_and_out_get_the_same_bytes(self, capsysbinary, tmp_path, mode, scheme, fmt):
        argv = [mode, "--scheme", scheme, "--format", fmt, "--seed", "7"]
        assert main(argv) == 0
        printed = capsysbinary.readouterr()
        dest = tmp_path / "report"
        assert main([*argv, "--out", str(dest)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        assert printed.err == b"" and dest.read_bytes() == printed.out
        assert printed.out == emit_report(harness.run(parse_args(argv)[0]))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_report_of_many_write_runs_is_emit_report(self, capsysbinary, tmp_path, fmt):
        # the sinks write a long report a run at a time; the runs join to
        # the bytes emit_report makes at once
        argv = ["enumerate", "--scheme", "2", "--random-inputs", "300", "--format", fmt]
        expected = emit_report(harness.run(parse_args(argv)[0]))
        assert len(expected) > 2 * cli.WRITE_RUN
        assert main(argv) == 0
        assert capsysbinary.readouterr() == (expected, b"")
        dest = tmp_path / "report"
        assert main([*argv, "--out", str(dest)]) == 0
        assert dest.read_bytes() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    @staticmethod
    def failing_emitter(emitter, size):
        """``emitter`` with its first piece padded to ``size`` characters,
        then a ValueError instead of its second."""
        def emit(report):
            yield next(emitter(report)).ljust(size)
            raise ValueError("non-finite value in report: nan")
        return emit

    # a first piece below one write run is held back, one above it written
    @pytest.mark.parametrize("size", [0, 3 * cli.WRITE_RUN])
    @pytest.mark.parametrize("existing", [False, True])
    def test_emission_error_exits_2_and_leaves_out_as_it_was(
        self, capsys, monkeypatch, tmp_path, existing, size
    ):
        dest = tmp_path / "report.json"
        if existing:
            dest.write_bytes(b"old report\n")
        monkeypatch.setitem(
            harness._EMITTERS, "json", self.failing_emitter(harness._EMITTERS["json"], size)
        )
        code, out, err = run_main(
            capsys, "enumerate", "--scheme", "2", "--format", "json", "--out", str(dest)
        )
        assert code == 2 and out == ""
        assert err == f"clusterport: cannot write report to {dest}: non-finite value in report: nan\n"
        assert [p.name for p in tmp_path.iterdir()] == (["report.json"] if existing else [])
        if existing:
            assert dest.read_bytes() == b"old report\n"

    def test_nonfinite_report_value_exits_2(self, capsys, monkeypatch, tmp_path):
        # _format_float rejects it as the report is written, not in a traceback
        def nan_run(cfg):
            report = harness.run(cfg)
            return report._replace(aggregates={**report.aggregates, "min_fidelity": float("nan")})

        monkeypatch.setattr(cli, "run", nan_run)
        argv = ["enumerate", "--scheme", "1", "--format", "json"]
        code, _, err = run_main(capsys, *argv)
        assert code == 2
        assert err == "clusterport: cannot write report: non-finite value in report: nan\n"
        code, _, _ = run_main(capsys, *argv, "--out", str(tmp_path / "report.json"))
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt,whole_mib,written_mib", [
        ("json", 40, 16), ("csv", 30, 2), ("text", 32, 2),
    ])
    def test_memory_at_the_cap_does_not_hold_the_report(
        self, capsys, tmp_path, fmt, whole_mib, written_mib
    ):
        # the report streams to its sink: a call holds the results the report
        # is made from, not its text (36.5 MiB in JSON for scheme 2)
        dest = str(tmp_path / "report")
        argv = ["enumerate", "--scheme", "2", "--seed", "7", "--format", fmt, "--out", dest]
        cap = [*argv, "--random-inputs", str(MAX_RANDOM_INPUTS)]
        assert main(argv) == 0  # imports and caches outside the trace
        tracemalloc.start()
        try:
            assert main(cap) == 0
            whole = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = harness.run(parse_args(cap)[0])
        tracemalloc.start()
        try:
            cli._write_report(dest, cli._runs(harness.report_pieces(report)))
            written = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert whole <= whole_mib * 2**20, whole / 2**20
        assert written <= written_mib * 2**20, written / 2**20

    def test_out_into_missing_directory_exit_2(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "report.json"
        code, out, err = run_main(capsys, "derive", "--scheme", "2", "--out", str(dest))
        assert code == 2
        assert out == ""
        assert err.startswith(f"clusterport: cannot write report to {dest}: ")
        assert "Traceback" not in err
        assert not dest.parent.exists()

    def test_out_onto_directory_exit_2_leaves_nothing(self, capsys, tmp_path):
        dest = tmp_path / "taken"
        dest.mkdir()
        code, _, err = run_main(capsys, "verify", "--scheme", "1", "--out", str(dest))
        assert code == 2
        assert "cannot write report" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(dest.iterdir()) == []

    def test_out_replaces_existing_file_whole(self, capsys, tmp_path):
        dest = tmp_path / "report.csv"
        dest.write_text("stale\n" * 1000)
        code, _, _ = run_main(
            capsys, "derive", "--scheme", "2", "--format", "csv", "--out", str(dest)
        )
        assert code == 0
        assert dest.read_text().startswith("outcome13,outcome26,derived,listed\n")
        assert "stale" not in dest.read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_out_keeps_existing_file_mode(self, capsys, tmp_path):
        dest = tmp_path / "report.csv"
        dest.write_text("stale\n")
        dest.chmod(0o640)
        code, _, _ = run_main(
            capsys, "derive", "--scheme", "2", "--format", "csv", "--out", str(dest)
        )
        assert code == 0
        assert stat.S_IMODE(dest.stat().st_mode) == 0o640
        assert dest.read_text().startswith("outcome13,outcome26,derived,listed\n")

    def test_two_threads_writing_one_out_both_publish_a_whole_report(
        self, capsysbinary, monkeypatch, tmp_path
    ):
        # both writers finish their temp files before either renames: with a
        # shared temp name the second open truncates the first writer's file,
        # and one rename finds nothing left to move
        argvs = [["derive", "--scheme", "2", "--format", "json", "--seed", s] for s in "12"]
        expected = []
        for argv in argvs:
            assert main(argv) == 0
            expected.append(capsysbinary.readouterr().out)
        dest = tmp_path / "report.json"
        barrier = threading.Barrier(2, timeout=30)
        replace = os.replace

        def held_replace(src, dst):
            barrier.wait()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", held_replace)
        codes = [None, None]

        def write(i):
            codes[i] = main([*argvs[i], "--out", str(dest)])

        threads = [threading.Thread(target=write, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert codes == [0, 0], capsysbinary.readouterr().err
        assert dest.read_bytes() in expected
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_out_through_symlink_writes_its_target(self, capsys, tmp_path):
        target = tmp_path / "real.csv"
        target.write_text("stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, _ = run_main(
            capsys, "derive", "--scheme", "2", "--format", "csv", "--out", str(link)
        )
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().startswith("outcome13,outcome26,derived,listed\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_into_fifo_writes_through(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open the pipe; the report
        # fits in the pipe buffer, so nothing blocks.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_main(
                capsys, "derive", "--scheme", "1", "--format", "csv", "--out", str(fifo)
            )
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert data.startswith(b"outcome13,outcome26,derived,listed\n")
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_out_to_dev_null_leaves_the_device(self, capsys):
        code, out, err = run_main(capsys, "derive", "--scheme", "1", "--out", "/dev/null")
        assert code == 0 and out == "" and err == ""
        assert stat.S_ISCHR(os.lstat("/dev/null").st_mode)

    def test_same_seed_same_stdout(self, capsys):
        _, first, _ = run_main(
            capsys, "sample", "--scheme", "1", "--trials", "100",
            "--seed", "3", "--format", "json",
        )
        _, second, _ = run_main(
            capsys, "sample", "--scheme", "1", "--trials", "100",
            "--seed", "3", "--format", "json",
        )
        assert first == second
