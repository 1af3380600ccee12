"""Property tests of the --coeffs parser."""

import contextlib
import io
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterport.cli import _parse_coeffs, main  # noqa: E402
from clusterport.harness import format_complex  # noqa: E402

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
