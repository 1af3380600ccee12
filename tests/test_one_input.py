"""A run of one input is computed and displayed in Python floats, a run of
more in numpy blocks; both paths must give the same bits.

Each one-input result is compared with the block path on the same input,
by its bytes:
``repair_branches`` with ``map_inputs`` and the block normalization, and
the display (``format_states`` of a single vector or of one input's
stack) with ``_format_block``.  Drawn inputs, the ``--coeffs`` inputs of
the pin table, signed zeros and every sign-flip mutant of the channel and
the Bell basis are covered, and ``enumerate`` reports agree row for row
across the boundary between one input and more.
"""

import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repin
from clusterport import RunConfig, Scheme, emit_report, exact, floatpath, run
from clusterport.cli import parse_args
from clusterport.exact import table_lookup
from clusterport.floatpath import DISPLAY_TOL, format_states, map_inputs, repair_branches
from clusterport.harness import _ALL_PAIRS, FORMATS
from test_mutants import clear_caches, sign_flip_mutants
from test_statevec import gaussian, special_rows


def listed_ops(scheme):
    """Each cell's first listed repair, as a run applies them."""
    return tuple(table_lookup(Scheme(scheme), o13, o26)[0] for o13, o26 in _ALL_PAIRS)


def block_repair_branches(ops, scheme, coeffs):
    """``repair_branches`` of every row of ``coeffs`` on the block path:
    ``(probs, fids, outputs)`` from ``map_inputs`` and the normalization of
    a run of two or more inputs, whatever the count."""
    cols = exact._BASIS_INPUTS[Scheme(scheme)]
    maps = tuple(map(exact.repaired_map, ops, range(16)))
    stack, index, *_ = floatpath._repaired_stack(maps, cols)
    amps = np.zeros((len(coeffs), 4), dtype=np.complex128)
    amps[:, cols] = coeffs
    out, probs, fids = map_inputs(stack, amps)
    out /= np.sqrt(probs)[..., None]
    return probs.take(index, axis=1), fids.take(index, axis=1), out


def assert_one_input_paths_agree(ops, scheme, coeffs):
    """Each row of ``coeffs`` alone through ``repair_branches`` gives the
    block path's probabilities, fidelities and outputs by their bytes (the
    signs of zero parts and NaNs included), and its display text."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    with np.errstate(all="ignore"):  # a zero vector divides 0 by 0 there
        probs, fids, outs = block_repair_branches(ops, scheme, coeffs)
    for n, row in enumerate(coeffs):
        c, p, f, out, classes, _ = repair_branches(ops, scheme, [row])
        assert c.tobytes() == row[None].tobytes()
        assert p.shape == f.shape == (1, 16)
        assert p.tobytes() == probs[n:n + 1].tobytes(), row
        assert f.tobytes() == fids[n:n + 1].tobytes(), row
        assert out.shape == outs[n:n + 1].shape
        assert out.tobytes() == outs[n:n + 1].tobytes(), row
        assert not (p.flags.writeable or f.flags.writeable or out.flags.writeable)
        assert format_states(out, classes) == floatpath._format_block(outs[n:n + 1], classes)


class TestRepairBranches:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_drawn_inputs(self, scheme):
        for seed in (0, 7, 2**64 - 1):
            coeffs = floatpath.random_inputs(scheme, seed, 3400)
            assert_one_input_paths_agree(listed_ops(scheme), scheme, coeffs)

    def test_the_given_inputs_of_the_pin_table(self):
        given = {
            (cfg.scheme, cfg.input_coeffs)
            for cfg, _ in map(parse_args, map(str.split, repin.load()))
            if cfg.input_coeffs is not None
        }
        assert len(given) >= 10
        for scheme, coeffs in sorted(given, key=str):
            assert_one_input_paths_agree(listed_ops(scheme), scheme, [coeffs])

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_signed_zero_coefficients(self, scheme):
        # every mix of signed zeros, with and without a unit entry: the sign
        # of each zero part of each output, and the zero vector's NaN
        parts = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0), 1, -1j]
        k = len(exact._BASIS_INPUTS[scheme])
        coeffs = list(itertools.product(parts, repeat=k))
        assert_one_input_paths_agree(listed_ops(scheme), scheme, coeffs)

    @pytest.mark.parametrize("name", ["CLUSTER_SIGNS", "BELL_SIGNS"])
    def test_every_sign_flip_mutant(self, monkeypatch, name):
        # the classes split and the fidelities fall below 1: still the
        # block path's bits, on drawn and basis inputs
        split, below_one = 0, 0
        try:
            for table, _ in sign_flip_mutants(name):
                with monkeypatch.context() as mp:
                    mp.setattr(exact, name, table)
                    clear_caches()
                    for scheme in Scheme:
                        k = len(exact._BASIS_INPUTS[scheme])
                        coeffs = [*floatpath.random_inputs(scheme, 7, 6), *np.eye(k)]
                        ops = listed_ops(scheme)
                        assert_one_input_paths_agree(ops, scheme, coeffs)
                        _, _, fids, out, _, _ = repair_branches(ops, scheme, coeffs[:1])
                        split += out.shape[1] > 1
                        below_one += bool((fids < 1).any())
        finally:
            clear_caches()
        assert split > 0 and below_one > 0

    def test_any_maps_and_inputs(self):
        # maps and inputs no run makes, over scales up to overflow: the
        # normalization's zero terms turn an infinite part's partner to NaN.
        # Bits are compared but for a NaN's sign, which the two may set apart
        def canon(a):
            f = np.array(a, dtype=np.complex128).view(np.float64)
            f[np.isnan(f)] = np.nan
            return f.tobytes()

        rng = np.random.default_rng(9)
        nan = 0
        for _ in range(300):
            maps = gaussian(rng, (3, 4, 4)) * 10.0 ** rng.integers(-300, 308, (3, 4, 4))
            v = gaussian(rng, (1, 4)) * 10.0 ** rng.integers(-300, 308, (1, 4))
            with np.errstate(all="ignore"):
                want, probs, fids = map_inputs(maps, v)
                want /= np.sqrt(probs)[..., None]
            outputs, p, f = floatpath._map_one(maps.tolist(), v[0].tolist())
            assert canon([outputs]) == canon(want)
            assert canon([p]) == canon(probs) and canon([f]) == canon(fids)
            nan += bool(np.isnan(want).any())
        assert 0 < nan < 300


def one_input_stacks(rng, count, classes, n):
    """``count`` stacks of one input, (1, classes, n): gaussian vectors
    over many scales, with special parts (signed zeros, parts at and one
    ulp around DISPLAY_TOL, dust, NaN) mixed in, some infinite amplitudes,
    and some vectors with nothing above DISPLAY_TOL."""
    amps = gaussian(rng, (count, classes, n)) * 10.0 ** rng.integers(-12, 1, (count, classes, 1))
    mixed = rng.random(amps.shape) < 0.3
    amps[rng.random(amps.shape[:2]) < 0.1] *= 1e-12
    amps[mixed] = special_rows(rng, int(mixed.sum()), 1)[:, 0]
    amps[rng.random(amps.shape) < 0.02] = complex(np.inf, 0.5)
    return amps[:, None]


class TestOneInputDisplay:
    """``format_states`` of one vector, or of one input's (1, classes, n)
    stack, gives ``_format_block``'s text, vector for vector."""

    @staticmethod
    def assert_block_text(stack, cells=None):
        with np.errstate(all="ignore"):  # NaN and inf parts, an overflowing modulus
            want = floatpath._format_block(stack, cells)
            assert format_states(stack, cells) == want
            for vals in stack.reshape(-1, stack.shape[-1]):
                assert format_states(vals) == floatpath._format_block(vals)
        return want

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_special_parts(self, n):
        texts = []
        for stack in one_input_stacks(np.random.default_rng(n), 400, 3, n):
            texts += self.assert_block_text(stack)[0]
        assert any("nan" in t for t in texts) and any(t == "0" for t in texts)
        assert n == 1 or any(t.count("|") < n for t in texts if t != "0")  # some left out

    def test_parts_at_and_just_above_the_tolerance(self):
        above = np.nextafter(DISPLAY_TOL, 1)
        near = [DISPLAY_TOL, -DISPLAY_TOL, above, -above, 0.0, -0.0, 0.3]
        rows = [[0.6, complex(x, y), complex(y, x), 0.8] for x in near for y in near]
        rows += [[x, 0, complex(0, y), 0] for x in near for y in near]
        # moduli that the C library's hypot rounds to the tolerance and
        # math.hypot one ulp above it, and the other way round
        for z in (complex(3.9089206203465297e-10, 9.204365246111746e-10),
                  complex(4.1249941176477203e-10, 9.109578669146655e-10)):
            assert (abs(z) > DISPLAY_TOL) != (math.hypot(z.real, z.imag) > DISPLAY_TOL)
            rows += [[z, 0.6, 0, 0.8j], [0.6, z, 0, 0], [z, 0, 0, 0]]
        texts = self.assert_block_text(np.array([rows]))[0]
        assert "1e-09|00>" in texts and "0" in texts

    def test_nothing_above_the_tolerance(self):
        stack = np.array([[[DISPLAY_TOL, -0.0, complex(0, -DISPLAY_TOL), 1e-300], [0, 0, 0, 0]]])
        assert self.assert_block_text(stack) == [["0", "0"]]

    def test_exact_and_signed_zeros(self):
        zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
        rows = [[0.6, z, -0.8j, w] for z in zeros for w in zeros]
        self.assert_block_text(np.array([rows]))

    def test_an_empty_stack(self):
        assert self.assert_block_text(np.zeros((1, 0, 4), dtype=np.complex128)) == [[]]

    def test_an_overflowing_modulus(self):
        # |z| past the float maximum, np.hypot's inf: as the lead it turns
        # every part to 0, and after another lead it prints
        stack = np.array([[
            [complex(1.5e308, 1.5e308), 0.5, 0, 1j], [0.6, complex(-1.7e308, 1e308), 0, 0],
        ]])
        assert self.assert_block_text(stack) == [["0", "0.6|00> + (-1.7e+308+1e+308i)|01>"]]

    def test_cells_take_their_class_text(self):
        rng = np.random.default_rng(5)
        stack = gaussian(rng, (1, 4, 4))
        cells = np.array([3, 0, 0, 2, 1, 3])
        want = [[format_states(stack[0, p]) for p in cells]]
        assert self.assert_block_text(stack, cells) == want


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e308, -1.7976931348623157e308,
    ]),
)


@given(FLOATS, FLOATS)
def test_complex_abs_is_numpy_hypot(x, y):
    # the C library's hypot under both, bit for bit; complex abs raises
    # where the modulus overflows and np.hypot gives inf, which _modulus
    # returns.  A NaN modulus only enters comparisons (it is never above
    # DISPLAY_TOL), and its sign may differ.
    with np.errstate(over="ignore"):
        want = float(np.hypot(x, y))
    try:
        assert bits(abs(complex(x, y))) == bits(want) or math.isnan(want)
    except OverflowError:
        assert want == math.inf
    got = floatpath._modulus(complex(x, y))
    assert bits(got) == bits(want) or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("scale", [1e-300, 1e-9, 1.0, 1e300])
def test_modulus_is_numpy_hypot_on_many_pairs(scale):
    # math.hypot rounds otherwise on about 1 pair in 200
    x, y = np.random.default_rng(20).standard_normal((2, 20000)) * scale
    got = [floatpath._modulus(complex(a, b)) for a, b in zip(x.tolist(), y.tolist())]
    assert np.array(got).tobytes() == np.hypot(x, y).tobytes()


class TestOneInputReport:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_each_class_output_is_formatted_once(self, ket_calls, scheme):
        report = run(RunConfig(scheme, "sample", seed=7, trials=100, output_format="json"))
        assert ket_calls == []
        emit_report(report)
        assert ket_calls == report.outputs[0].tolist()
        assert len(report.state) == 1 and len(report.state[0]) == 16
        emit_report(report)
        assert len(ket_calls) == 1

    def test_split_classes_are_formatted_once_each(self, monkeypatch, ket_calls):
        table, _ = next(itertools.islice(sign_flip_mutants("BELL_SIGNS"), 1, None))
        try:
            with monkeypatch.context() as mp:
                mp.setattr(exact, "BELL_SIGNS", table)
                clear_caches()
                report = run(RunConfig(Scheme.ARBITRARY, "enumerate", seed=7, random_inputs=1))
                assert report.outputs.shape == (1, 4, 4)
                states = report.state
        finally:
            clear_caches()
        assert len(ket_calls) == 4
        assert states[0] == [format_states(report.outputs[0, p]) for p in report.classes]


def input_rows(text: str, fmt: str) -> str:
    """The branch rows of input 0 in an ``enumerate`` report."""
    if fmt == "json":
        return ",".join(re.findall(r'\{"input":0,[^{}]*\}', text))
    lines = text.splitlines()
    start = 1 if fmt == "csv" else [l[:9] for l in lines].index("outcome13") + 1
    return "\n".join(lines[start:start + 16])


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("scheme", list(Scheme))
def test_one_input_rows_are_input_0_of_more(scheme, fmt):
    for seed in (0, 7, 2**64 - 1):
        texts = [
            emit_report(run(RunConfig(scheme, "enumerate", random_inputs=n, seed=seed,
                                      output_format=fmt))).decode()
            for n in (1, 2, 100)
        ]
        rows = [input_rows(text, fmt) for text in texts]
        assert rows[0].count("Phi+") == 8
        assert rows[0] == rows[1] == rows[2]
