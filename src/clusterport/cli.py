"""Command-line front end.

Each mode reads its options from one table, ``MODES[mode][1]``, which
maps a flag to the ``RunConfig`` field it sets (``out`` and
``renormalize`` are read here instead, and ``--help`` sets nothing), the
function that converts its value (None for a flag that takes no value),
its metavar and its help line.  An option reads ``--opt value`` or
``--opt=value``; a unique prefix of its name (``--ran 5``) stands for the
name, and ``-h`` for ``--help``.  A value written apart may start with '-'
only when it reads as a number or a list of numbers (``--seed -1``,
``--coeffs -0.6,0.8``): any other word that starts with '-' is taken for
the next option.  When an option repeats, the last one wins.  No option
has a default, so the ``RunConfig`` defaults apply, and ``RunConfig``
checks every value but the choices of ``--scheme`` and ``--format``.

Exit codes: 0 when every configured check passes, 1 when a check fails,
2 for unusable arguments or configuration, or a report that cannot be
written.  An argument that cannot be read raises SystemExit(2) after a
``usage:`` line and a ``clusterport: error:`` line on stderr; help raises
SystemExit(0).
"""

import _thread
import os
import stat
import sys

from .harness import FORMATS, MAX_RANDOM_INPUTS, InputState, RunConfig, report_pieces, run


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty coefficient list")
    try:
        return tuple(complex(t) for t in tokens)
    except ValueError:
        raise ValueError(f"could not parse {text!r}; expected complex values like 0.6,0.8j") from None


# flag: (field, converter, metavar, help)
_COMMON = {
    "--help": (None, None, "", "show this help message and exit (also -h)"),
    "--scheme": ("scheme", int, "{1,2}", "1 teleports alpha|00>+delta|11>, 2 any two-qubit state"),
    "--seed": ("seed", int, "SEED", "base seed for all randomness"),
    "--format": ("output_format", str, "{" + ",".join(FORMATS) + "}", "report format"),
    "--out": ("out", str, "OUT", "write the report here instead of stdout"),
}
_INPUT = {
    "--coeffs": ("input_coeffs", _parse_coeffs, "LIST", "input coefficients, comma separated complex "
                 "values ('0.6,0.8j'); a leading minus sign is part of the list"),
    "--renormalize": ("renormalize", None, "", "scale --coeffs to unit norm instead of rejecting them"),
}
# mode: (help, options)
MODES = {
    "enumerate": ("run all 16 branches deterministically", {**_COMMON, **_INPUT, "--random-inputs": (
        "random_inputs", int, "N", f"seeded random inputs when --coeffs is absent (at most "
        f"{MAX_RANDOM_INPUTS}; the report streams to its sink, while the results it is made from "
        "take about 1 KB per input)")}),
    "sample": ("Monte Carlo over the measurement outcomes", {**_COMMON, **_INPUT, "--trials": (
        "trials", int, "N", "Monte Carlo trials (unbounded: time grows, memory stays flat); a "
        "correct sampler fails the chi-square gate at rate 1e-9 asymptotically, but at about "
        "1.5e-5 with 5 trials and 2.2e-7 to 6.3e-6 with 6 to 30 (none below 5)")}),
    "derive": ("derive the correction table from the branch maps", _COMMON),
    "verify": ("check the built-in table against the derivation", _COMMON),
}
# the values the parser admits for these fields; RunConfig checks the rest
_CHOICES = {"scheme": (1, 2), "output_format": FORMATS}


def _usage(mode: str) -> str:
    return f"usage: clusterport {mode or '{' + ','.join(MODES) + '}'} [-h] --scheme {{1,2}} [options]"


def _help(mode: str):
    """Write the help of ``mode``, or the top-level help for "", and exit 0."""
    import textwrap

    head, rows = MODES.get(mode) or ("Simulate two-qubit teleportation over a four-qubit cluster "
                                     "channel.", {m: (0, 0, "", t) for m, (t, _) in MODES.items()})
    sys.stdout.write(f"{_usage(mode)}\n\n{head}\n\n" + "".join(
        f"  {flag} {meta}".rstrip() + "\n" + textwrap.indent(textwrap.fill(text, 70), " " * 8) + "\n"
        for flag, (_, _, meta, text) in rows.items()))
    raise SystemExit(0)


def _fail(mode: str, message: str):
    sys.stderr.write(f"{_usage(mode)}\nclusterport: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv) -> tuple[RunConfig, str | None]:
    """The RunConfig that ``argv``, the arguments after the program name,
    asks for, and its ``--out`` path (None for stdout).  Raises SystemExit(0)
    after writing help to stdout, SystemExit(2) after writing the usage and
    the error of an unusable argument to stderr, and ValueError for a value
    that RunConfig or the renormalization rejects."""
    mode, *args = [*argv] or [""]
    if mode in ("-h", "--help"):
        _help("")
    if mode not in MODES:
        _fail("", f"argument mode: invalid choice: {mode!r} (choose from {', '.join(map(repr, MODES))})"
              if mode else "the following arguments are required: mode")
    options, values, args = MODES[mode][1], {}, iter(args)
    for arg in args:
        flag, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        # the flags ``flag`` starts, when it is '--' and more: no flag starts
        # another, so a whole flag is its own one match
        matches = [f for f in options if f.startswith(flag)] if flag[:2] == "--" and flag[2:] else []
        if len(matches) != 1:
            _fail(mode, f"ambiguous option: {flag} could match {', '.join(matches)}" if matches
                  else f"unrecognized argument: {arg}")
        flag = matches[0]
        name, convert = options[flag][:2]
        if convert is None:
            if eq:
                _fail(mode, f"argument {flag}: ignored explicit argument {value!r}")
            if name is None:
                _help(mode)
            values[name] = True
            continue
        if not eq:
            # the next word, unless it starts with '-' and reads as no numbers:
            # then it is the next option (with no word left, "-" fails the same way)
            value = next(args, "-")
            try:
                if value.startswith("-"):
                    _parse_coeffs(value)
            except ValueError:
                _fail(mode, f"argument {flag}: expected one argument")
        try:
            values[name] = convert(value)
            if name in _CHOICES and values[name] not in _CHOICES[name]:
                raise ValueError(f"must be one of {_CHOICES[name]}, got {values[name]!r}")
        except ValueError as exc:
            _fail(mode, f"argument {flag}: {exc}")
    if "scheme" not in values:
        _fail(mode, "the following arguments are required: --scheme")
    out = values.pop("out", None)
    if values.pop("renormalize", False) and "input_coeffs" in values:
        values["input_coeffs"] = InputState.renormalized(values["scheme"], values["input_coeffs"]).coeffs
    return RunConfig(mode=mode, **values), out


# Characters of report text joined into each write: large enough that the
# fixed cost of a write is spread over many pieces, small enough that the
# joined run and its bytes stay far below the report.
WRITE_RUN = 1 << 16


def _runs(pieces):
    """The str ``pieces`` joined into UTF-8 runs of about WRITE_RUN
    characters each; a report shorter than that is one run."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= WRITE_RUN:
            yield "".join(batch).encode("utf-8")
            batch, size = [], 0
    if batch:
        yield "".join(batch).encode("utf-8")


def _write_report(path: str | None, runs) -> None:
    """Write the byte ``runs`` of a report to ``path``, or to stdout when
    ``path`` is None, each as it comes: decoded, where stdout is a text
    stream with no byte buffer.

    A new or regular file is written through a sibling temp file that is
    then renamed over it, keeping its mode, so ``path`` never holds half a
    report: any failure while the runs are made or written removes the temp
    file and leaves ``path`` as it was.  The temp name carries the process
    and thread ids, so two writers of one ``path`` never share it.  Anything
    else (a symlink, a device such as /dev/null, a FIFO) is written through
    in place: renaming over it would replace the link or the device node
    instead of writing to it, so there, as on stdout, a failure leaves the
    runs written before it.
    """
    if path is None:
        if sys.stdout is None:  # what Python leaves for a closed descriptor 1
            raise OSError("stdout is closed")
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # such as io.StringIO
            out, runs = sys.stdout, (data.decode("utf-8") for data in runs)
        for data in runs:
            out.write(data)
        out.flush()
        return
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as f:
            f.writelines(runs)
        return
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{_thread.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(runs)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def main(argv=None) -> int:
    try:
        cfg, out = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"clusterport: {exc}", file=sys.stderr)
        return 2
    report = run(cfg)
    try:
        _write_report(out, _runs(report_pieces(report)))
    except (OSError, ValueError) as exc:
        # a ValueError is a value the report cannot hold (a non-finite
        # float) or a write to a closed stream
        where = "" if out is None else f" to {out}"
        detail = getattr(exc, "strerror", None) or exc
        print(f"clusterport: cannot write report{where}: {detail}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
