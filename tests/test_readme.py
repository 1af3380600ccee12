"""The README's exact facts, checked against the code: the channel, the
two-entry cells of the scheme-1 table, the block sizes, the input cap and
the run defaults.  Each command of its CLI block runs and exits 0, and its
Library block prints what its comment says.  Measured figures (times,
memory) are not checked here."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from clusterport import RunConfig, Scheme, cli
from clusterport.exact import _TABLE1, CLUSTER_SIGNS
from clusterport.floatpath import INPUT_BLOCK, SAMPLE_BLOCK
from clusterport.harness import MAX_RANDOM_INPUTS

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
