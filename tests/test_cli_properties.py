"""Property tests of the command-line parser, the --coeffs lists and
inputs at extreme magnitudes."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterport import RunConfig, Scheme, cli, harness  # noqa: E402
from clusterport.cli import _parse_coeffs, main, parse_args  # noqa: E402
from clusterport.harness import FORMATS, MAX_RANDOM_INPUTS, format_complex  # noqa: E402
from clusterport.exact import COEFF_TOL  # noqa: E402
from clusterport.statevec import StateVector, format_state  # noqa: E402
from test_harness import no_repair_table, repaired_outputs  # noqa: E402

coeff_lists = st.lists(st.complex_numbers(allow_nan=False), min_size=1, max_size=6)
separators = st.sampled_from([",", " ", ", ", " ,", "\t", "\n", ",\t ", ",,", "  "])


def bits(values):
    """Each part's repr, which tells -0.0 from 0.0 and round-trips."""
    return [(repr(c.real), repr(c.imag)) for c in values]


def is_malformed(token):
    try:
        complex(token)
    except ValueError:
        return True
    return False


@settings(deadline=None)
@given(coeff_lists)
def test_formatted_coefficients_parse_back_exactly(values):
    text = ",".join(format_complex(c) for c in values)
    assert bits(_parse_coeffs(text)) == bits(values)


@settings(deadline=None)
@given(coeff_lists, st.data())
def test_comma_and_whitespace_separators_are_equivalent(values, data):
    tokens = [format_complex(c) for c in values]
    text = data.draw(st.sampled_from(["", " ", ",", "\n"]))
    text += "".join(t + data.draw(separators) for t in tokens[:-1]) + tokens[-1]
    text += data.draw(st.sampled_from(["", " ", ","]))
    assert _parse_coeffs(text) == _parse_coeffs(",".join(tokens))


@settings(deadline=None)
@given(st.text(min_size=1, max_size=12).filter(
    lambda t: not re.search(r"[,\s]", t) and is_malformed(t)
))
def test_malformed_token_exits_2_without_traceback(token):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["enumerate", "--scheme", "1", f"--coeffs=0.6,{token}"])
    assert exc.value.code == 2
    assert "argument --coeffs: could not parse" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def run_cli(mode, scheme, coeffs, *extra):
    """Exit code and stderr of one ``cli.main`` call; the report goes to
    the null device.  Any exception propagates and fails the test."""
    text = ",".join(format_complex(c) for c in coeffs)
    argv = [mode, "--scheme", str(scheme), f"--coeffs={text}", "--out", os.devnull, *extra]
    if mode == "sample":
        argv += ["--trials", "500"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


magnitudes = st.floats(min_value=1e-300, max_value=1e300)
signs = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / math.sqrt(2)])
huge_or_tiny = st.tuples(magnitudes, signs).map(lambda ms: ms[0] * ms[1])
modes = st.sampled_from(["enumerate", "sample"])


def coeff_count(scheme):
    return 2 if scheme == 1 else 4


def unit_vectors(k):
    """Unit vectors of ``k`` complex values."""
    parts = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda ab: complex(*ab))
    return st.lists(parts, min_size=k, max_size=k).filter(
        lambda c: math.hypot(*map(abs, c)) > 0.1
    ).map(lambda c: [x / math.hypot(*map(abs, c)) for x in c])


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([1, 2]), modes, st.data())
def test_extreme_magnitudes_exit_cleanly(scheme, mode, data):
    coeffs = data.draw(st.lists(huge_or_tiny, min_size=coeff_count(scheme),
                                max_size=coeff_count(scheme)))
    code, err = run_cli(mode, scheme, coeffs)
    assert code in (0, 2)
    if code == 2:
        assert "not normalized" in err
    # scaled to unit norm, any such input teleports exactly
    assert run_cli(mode, scheme, coeffs, "--renormalize")[0] == 0


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([1, 2]), modes, st.data(), st.floats(-3 * COEFF_TOL, 3 * COEFF_TOL))
def test_norm_near_coeff_tol(scheme, mode, data, excess):
    # squared norm 1 + excess: accepted as given within COEFF_TOL, and
    # then the fidelity is still exactly 1
    unit = data.draw(unit_vectors(coeff_count(scheme)))
    coeffs = [c * math.sqrt(1.0 + excess) for c in unit]
    code, _ = run_cli(mode, scheme, coeffs)
    assert code in (0, 2)
    if abs(excess) < 0.99 * COEFF_TOL:
        assert code == 0
    elif abs(excess) > 1.01 * COEFF_TOL:
        assert code == 2
    assert run_cli(mode, scheme, coeffs, "--renormalize")[0] == 0


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([1, 2]), modes, st.data(), st.floats(1e-13, 1e-11), signs, st.booleans())
def test_near_degenerate_inputs(scheme, mode, data, tiny, phase, renormalize):
    # one amplitude about 1e-12, the others carrying the rest of the norm
    k = coeff_count(scheme)
    rest = data.draw(unit_vectors(k - 1))
    at = data.draw(st.integers(0, k - 1))
    scale = math.sqrt(1.0 - tiny * tiny)
    coeffs = [c * scale for c in rest]
    coeffs.insert(at, tiny * phase)
    extra = ["--renormalize"] if renormalize else []
    assert run_cli(mode, scheme, coeffs, *extra)[0] == 0


def signed_parts(top):
    """Reals of either sign with magnitudes from 1e-330 (zero once rounded)
    up to ``top``, subnormals and the least normal included, or a signed
    zero."""
    edges = st.sampled_from([5e-324, 2.2250738585072014e-308])
    magnitudes = st.floats(-330, math.log10(top)).map(lambda e: 10.0 ** e) | edges
    return (st.tuples(magnitudes, st.sampled_from([1.0, -1.0])).map(lambda ms: ms[0] * ms[1])
            | st.sampled_from([0.0, -0.0]))


def adversarial_coeffs(k, top):
    """``k`` coefficients whose parts are ``signed_parts(top)``: purely real,
    purely imaginary, signed zeros or both parts set."""
    parts = signed_parts(top)
    return st.lists(st.builds(complex, parts, parts), min_size=k, max_size=k)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([1, 2]), modes, st.booleans(), st.data())
def test_every_fidelity_is_exactly_one(scheme, mode, renormalize, data):
    # a certified repair returns the input times a phase and 1/4, and the
    # fidelity's sums are taken alike, so every branch reads exactly 1 and
    # the run, which requires that, passes: scaled by --renormalize, or as
    # given, a unit coefficient beside parts too small to move the norm
    k = coeff_count(scheme)
    if renormalize:
        coeffs = data.draw(adversarial_coeffs(k, 1.0).filter(any))
    else:
        coeffs = data.draw(adversarial_coeffs(k, 1e-5))
        coeffs[data.draw(st.integers(0, k - 1))] = data.draw(signs)
    text = ",".join(format_complex(c) for c in coeffs)
    argv = [mode, "--scheme", str(scheme), f"--coeffs={text}"]
    if renormalize:
        argv.append("--renormalize")
    if mode == "sample":
        argv += ["--trials", "500"]
    report = harness.run(parse_args(argv)[0])
    assert [f for row in report.fidelity for f in row] == [1.0] * 16
    assert report.passed


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, 2]), st.data(), st.booleans(),
       st.floats(1e-10, 1e-8) | st.just(0.0), st.integers(0, 2 ** 64 - 1))
def test_json_state_is_format_state_of_each_output(scheme, data, unrepaired, tiny, seed):
    # one --coeffs input with an amplitude near the display tolerance, or
    # three drawn ones; certified repairs or none
    argv = ["enumerate", "--scheme", str(scheme), "--format", "json", "--seed", str(seed)]
    if data.draw(st.booleans()):
        k = coeff_count(scheme)
        coeffs = data.draw(unit_vectors(k))
        coeffs[data.draw(st.integers(0, k - 1))] = tiny * data.draw(signs)
        if not any(coeffs):
            # a zero replaced the one nonzero amplitude: nothing to scale
            code, err = run_cli("enumerate", scheme, coeffs, "--renormalize")
            assert code == 2 and "all-zero" in err
            return
        argv +=["--renormalize", "--coeffs=" + ",".join(format_complex(c) for c in coeffs)]
    else:
        argv += ["--random-inputs", "3"]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        if unrepaired:
            mp.setattr("clusterport.harness.table_lookup", no_repair_table)
        out = os.path.join(tmp, "report.json")
        assert main(argv + ["--out", out]) == (1 if unrepaired else 0)
        with open(out) as f:
            doc = json.load(f)
        inputs = [[complex(c) for c in s["coeffs"]] for s in doc["aggregates"]["inputs"]]
        unit = repaired_outputs(Scheme(scheme), inputs)
    expected = [format_state(StateVector((4, 5), v)) for row in unit for v in row]
    assert [b["state"] for b in doc["branches"]] == expected


def option_value(flag, scheme):
    """A value ``flag`` accepts, as the text on the command line, and the
    value it gives its field."""
    if flag == "--coeffs":
        return unit_vectors(coeff_count(scheme)).map(
            lambda c: (",".join(format_complex(x) for x in c), tuple(complex(x) for x in c))
        )
    ints = {"--scheme": st.just(scheme), "--seed": st.integers(0, 2 ** 64 - 1),
            "--random-inputs": st.integers(1, MAX_RANDOM_INPUTS), "--trials": st.integers(1, 10 ** 9)}
    if flag in ints:
        return ints[flag].map(lambda n: (str(n), n))
    if flag == "--format":
        return st.sampled_from(FORMATS).map(lambda f: (f, f))
    assert flag == "--out", flag
    return st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
        lambda t: not t.startswith("-")).map(lambda t: (t, t))


def unique_prefixes(flag, flags):
    """Every prefix of ``flag`` that starts no other of ``flags``, ``flag`` itself included."""
    return [flag[:k] for k in range(3, len(flag) + 1)
            if not any(f.startswith(flag[:k]) for f in flags if f != flag)]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(list(cli.MODES)), st.sampled_from([1, 2]), st.data())
def test_each_option_reads_the_same_written_any_way(mode, scheme, data):
    # --opt v, --opt=v and --prefix v set the option's field, and only it
    options = cli.MODES[mode][1]
    flag = data.draw(st.sampled_from([f for f in options if f != "--help"]))
    name = options[flag][0]
    head = [mode] if flag == "--scheme" else [mode, "--scheme", str(scheme)]
    prefix = data.draw(st.sampled_from(unique_prefixes(flag, options)))
    if flag == "--renormalize":
        coeffs = ["--coeffs", "3,4j" if scheme == 1 else "1,1,1,1"]
        forms = [[*head, *coeffs, f] for f in (flag, prefix)]
        expected = (RunConfig(scheme, mode, (0.6, 0.8j) if scheme == 1 else (0.5,) * 4), None)
    else:
        text, value = data.draw(option_value(flag, scheme))
        forms = [[*head, flag, text], [*head, f"{flag}={text}"], [*head, prefix, text],
                 [*head, f"{prefix}={text}"]]
        if name == "out":
            expected = (RunConfig(scheme, mode), value)
        else:
            expected = (RunConfig(**{"scheme": scheme, "mode": mode, name: value}), None)
    for argv in forms:
        assert parse_args(argv) == expected, argv


FLAGS = sorted({flag for _, options in cli.MODES.values() for flag in options})
junk = st.text(max_size=3)
values = st.sampled_from(
    ["1", "2", "0", "01", "-1", "3", "json", "csv", "xml", "0.6,0.8", "-0.6,0.8", "0.6,spam",
     "1,0,0,0", "nan,0", "1e-3", "-1e-3", "", "-", "--", "-x", "=", "-h"]
) | junk
words = (
    st.sampled_from(FLAGS)
    | st.sampled_from(FLAGS).flatmap(lambda f: st.integers(2, len(f)).map(lambda k: f[:k]))
    | st.tuples(st.sampled_from(FLAGS), values).map(lambda fv: f"{fv[0]}={fv[1]}")
    | values
)


@settings(deadline=None, max_examples=400)
@given(st.sampled_from([*cli.MODES, "bogus", "", "-h"]), st.lists(words, max_size=8))
def test_any_arguments_exit_0_1_or_2_without_traceback(mode, args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([mode, *args, "--out", os.devnull])
            exited = False
        except SystemExit as exc:
            code, exited = exc.code, True
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if exited and code == 2:
        usage, error = err.getvalue().split("\n", 1)
        assert usage.startswith("usage: clusterport ")
        assert error.startswith("clusterport: error: ")
    elif exited:
        assert code == 0 and err.getvalue() == ""
        assert out.getvalue().startswith("usage: clusterport ")
    elif code == 2:
        assert err.getvalue().startswith("clusterport: ")
    else:
        assert err.getvalue() == out.getvalue() == ""
