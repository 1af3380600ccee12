"""Drawn ``enumerate`` reports against the benchmark's independent checker.

``benchmarks/checker.py`` shares no code with the package: it writes the
channel and the Bell kets as literals and builds its own maps and repair
sets.  It is loaded here by its path and only read, so both the benchmark
and these tests run the one copy.
"""

import importlib.util
from pathlib import Path

import pytest

from clusterport.cli import main

CHECKER = Path(__file__).resolve().parent.parent / "benchmarks" / "checker.py"


@pytest.fixture(scope="module")
def check_report():
    spec = importlib.util.spec_from_file_location("report_checker", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_report


@pytest.mark.parametrize("count", [1, 6, 100])
@pytest.mark.parametrize("seed", [0, 7, 2**32 + 15, 2**64 - 1])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("scheme", ["1", "2"])
def test_drawn_enumerate_reports_pass_the_checker(check_report, tmp_path, scheme, fmt, seed, count):
    out = tmp_path / f"report.{fmt}"
    argv = [
        "enumerate", "--scheme", scheme, "--seed", str(seed),
        "--random-inputs", str(count), "--format", fmt,
    ]
    assert main([*argv, "--out", str(out)]) == 0
    assert check_report(argv, out.read_bytes()) == []
