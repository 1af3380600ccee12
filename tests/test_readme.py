"""The README's exact facts, checked against the code: the channel, the
two-entry cells of the scheme-1 table, the block sizes, the input cap, the
run defaults, the two random streams, the exit codes and the option list.
Each command of its CLI block runs and exits 0, and its Library block
prints what its comment says.  Measured figures (times, memory) are not
checked here."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from clusterport import RunConfig, Scheme, cli, run
from clusterport.exact import _BASIS_INPUTS, _TABLE1, CLUSTER_SIGNS
from clusterport.floatpath import INPUT_BLOCK, SAMPLE_BLOCK, random_inputs
from clusterport.harness import MAX_RANDOM_INPUTS
from test_channels import channel  # noqa: F401  (a fixture)
from test_harness import scalar_draw_counts

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# the README with every run of whitespace read as one space, so a phrase
# matches however its lines wrap
TEXT = " ".join(README.split())
NUMBERS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight")


def section_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the ``## heading`` line."""
    after = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def channel_text() -> str:
    """The channel as the README writes it, from ``CLUSTER_SIGNS``: its
    terms |c d e f> in order, each of twice-amplitude +-1, over 2."""
    terms = [
        (sign, f"|{c}{d}{e}{f}>")
        for c in (0, 1) for d in (0, 1) for e in (0, 1) for f in (0, 1)
        if (sign := CLUSTER_SIGNS[c][d][e][f])
    ]
    assert all(sign in (1, -1) for sign, _ in terms)
    text = "".join(f" {'+' if sign > 0 else '-'} {ket}" for sign, ket in terms)
    return f"({text[3:]})/2" if terms[0][0] > 0 else f"(-{text[3:]})/2"


def test_channel():
    assert f"the cluster state {channel_text()} on particles" in TEXT


def test_cells_listing_both_repairs():
    both = sum(len(pairs) == 2 for pairs in _TABLE1.values())
    assert f"the built-in table lists both only in {NUMBERS[both]} cells" in TEXT


def test_sample_block():
    assert f"fixed blocks of {SAMPLE_BLOCK} (`SAMPLE_BLOCK`)" in TEXT
    # a block's uniforms: two doubles a trial
    size = f"{16 * SAMPLE_BLOCK:,}".replace(",", " ")
    assert f"its uniforms, holds {size} bytes" in TEXT


def test_input_block_and_cap():
    assert f"in blocks of {INPUT_BLOCK} inputs (`INPUT_BLOCK`)" in TEXT
    assert f"is at most {MAX_RANDOM_INPUTS} (`MAX_RANDOM_INPUTS`)" in TEXT


def test_run_defaults():
    cfg = RunConfig(Scheme.SPECIAL, "enumerate")
    assert f"`--random-inputs` seeded inputs (default {cfg.random_inputs})" in TEXT
    assert f"number of Monte Carlo shots, default {cfg.trials}." in TEXT


CLI_COMMANDS = [
    line for line in section_block("CLI", "sh").splitlines() if line and not line.startswith("#")
]


def test_cli_block_has_every_mode():
    assert len(CLI_COMMANDS) == 5
    assert {shlex.split(line)[1] for line in CLI_COMMANDS} == set(cli.MODES)


@pytest.mark.parametrize("line", CLI_COMMANDS)
def test_cli_command_passes(tmp_path, monkeypatch, capsys, line):
    program, *argv = shlex.split(line)
    assert program == "clusterport"
    monkeypatch.chdir(tmp_path)  # where an --out file lands
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_library_block_prints_its_comment():
    code = section_block("Library", "python")
    comment = re.search(r"# (.*)\n", code).group(1)
    assert comment == "0.0625 1.0 CZ+YI"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == comment + "\n"


@pytest.mark.parametrize("scheme", list(Scheme))
def test_input_stream(scheme):
    # each input a row of standard normals on default_rng([seed, 0]), its
    # real parts then its imaginary parts, scaled to unit norm
    assert "All inputs are drawn from one stream, `default_rng([seed, 0])`" in TEXT
    k = len(_BASIS_INPUTS[scheme])
    for seed in (0, 7, 2**64 - 1):
        x = np.random.default_rng([seed, 0]).standard_normal((5, 2 * k))
        c = x[:, :k] + 1j * x[:, k:]
        want = c / np.linalg.norm(c, axis=1, keepdims=True)
        np.testing.assert_allclose(random_inputs(scheme, seed, 5), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_trial_stream(scheme):
    # trial t reads doubles 2t and 2t + 1 of default_rng([seed, 1])
    assert "All trials read one stream, `default_rng([seed, 1])`" in TEXT
    assert "It keys two streams: `[seed, 0]` for the inputs and `[seed, 1]` for the trials." in TEXT
    report = run(RunConfig(scheme, "sample", seed=7, trials=300))
    assert report.count == scalar_draw_counts(report.probability[0].tolist(), [7, 1], [300])[0]


def exit_code(argv, capsys) -> int:
    """What ``cli.main(argv)`` exits with, its output dropped."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


def test_exit_codes(tmp_path, capsys, channel):  # noqa: F811
    assert ("Exit codes: `0` all configured checks passed, `1` a check failed, `2` the arguments "
            "or configuration were unusable, or the report could not be written") in TEXT
    assert exit_code(["verify", "--scheme", "1"], capsys) == 0
    assert exit_code(["enumerate", "--scheme", "1", "--coeffs", "1,1"], capsys) == 2
    assert exit_code(["verify", "--scheme", "1", "--out", str(tmp_path)], capsys) == 2
    # the Bell product passes none of the cluster's scheme-2 table
    channel("Bell(3,4)xBell(5,6)")
    assert exit_code(["verify", "--scheme", "2"], capsys) == 1


def documented_flags() -> dict:
    """Each flag the README's Common flags list documents, with the modes
    it names for it ("(sample only)", "(enumerate and sample only)"), or
    every mode; and ``--help``, which its own bullet gives every mode."""
    section = README.split("Common flags", 1)[1].split("How the command line is read", 1)[0]
    flags = {}
    for flag, modes in re.findall(r"^\* `(--[a-z-]+)[^`]*`(?: \(([a-z ]+) only\))?", section, re.M):
        flags[flag] = set(modes.split(" and ")) if modes else set(cli.MODES)
    assert "* `-h` or `--help` prints the modes, or, after a mode, that mode's options" in TEXT
    flags["--help"] = set(cli.MODES)
    return flags


def test_option_list():
    in_code = {}
    for mode, (_, options) in cli.MODES.items():
        for flag in options:
            in_code.setdefault(flag, set()).add(mode)
    assert documented_flags() == in_code
