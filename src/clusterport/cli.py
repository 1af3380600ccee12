"""Command-line front end.

Exit codes: 0 when every configured check passes, 1 when a check fails,
2 for unusable arguments or configuration, or a report that cannot be
written.
"""

from __future__ import annotations

import _thread
import argparse
import functools
import os
import re
import stat
import sys

from .harness import FORMATS, MAX_RANDOM_INPUTS, RunConfig, report_pieces, run
from .exact import InputState, Scheme


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise argparse.ArgumentTypeError("empty coefficient list")
    try:
        return tuple(complex(t) for t in tokens)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"could not parse {text!r}; expected complex values like 0.6,0.8j"
        ) from None


def _joins_negative_coeffs(args: list[str]) -> list[str]:
    """``args`` with each ``--coeffs LIST`` whose LIST starts with '-' and
    parses written as ``--coeffs=LIST``: argparse would read such a LIST as
    an option, not as the value.  An option name after ``--coeffs`` stays
    apart, so argparse still rejects it as a missing value."""
    out = []
    for arg in args:
        if out and len(out[-1]) > 2 and "--coeffs".startswith(out[-1]) and arg.startswith("-"):
            try:
                _parse_coeffs(arg)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] = f"{out[-1]}={arg}"
                continue
        out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a negative ``--coeffs`` list as its
    value, written apart or with '='."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        return super().parse_known_args(_joins_negative_coeffs(list(args)), namespace)


def _add_common(p: argparse.ArgumentParser, with_input: bool) -> None:
    p.add_argument(
        "--scheme", type=int, choices=(1, 2), required=True,
        help="1 teleports alpha|00>+delta|11>, 2 teleports any two-qubit state",
    )
    p.add_argument("--seed", type=int, help="base seed for all randomness")
    p.add_argument("--format", choices=FORMATS, dest="output_format")
    p.add_argument("--out", help="write the report here instead of stdout")
    if with_input:
        p.add_argument(
            "--coeffs", type=_parse_coeffs, dest="input_coeffs", metavar="LIST",
            help="input coefficients, comma separated complex values ('0.6,0.8j'); "
            "a leading minus sign is part of the list, with or without '='",
        )
        p.add_argument(
            "--renormalize", action="store_true",
            help="scale --coeffs to unit norm instead of rejecting them",
        )
        p.add_argument("--tol", type=float, dest="fidelity_tol", metavar="TOL",
                       help="fidelity check tolerance")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="clusterport",
        description="Simulate two-qubit teleportation over a four-qubit cluster channel.",
    )
    # each mode parses what the top level has already rewritten
    sub = parser.add_subparsers(dest="mode", required=True, parser_class=argparse.ArgumentParser)
    # An option left out sets nothing, so the RunConfig default applies.
    add_mode = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p_enum = add_mode("enumerate", help="run all 16 branches deterministically")
    _add_common(p_enum, with_input=True)
    p_enum.add_argument(
        "--random-inputs", type=int,
        help=f"seeded random inputs when --coeffs is absent (at most {MAX_RANDOM_INPUTS}; "
        "the report streams to its sink, while the results it is made from take about "
        "3 KB per input)",
    )

    p_sample = add_mode("sample", help="Monte Carlo over the measurement outcomes")
    _add_common(p_sample, with_input=True)
    p_sample.add_argument(
        "--trials", type=int,
        help="Monte Carlo trials (unbounded: time grows, memory stays flat); a correct "
        "sampler fails the chi-square gate at rate 1e-9 asymptotically, but at about "
        "1.5e-5 with 5 trials and 2.2e-7 to 6.3e-6 with 6 to 30 (none below 5)",
    )

    p_derive = add_mode("derive", help="derive the correction table from the branch maps")
    _add_common(p_derive, with_input=False)

    p_verify = add_mode("verify", help="check the built-in table against the derivation")
    _add_common(p_verify, with_input=False)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    """The run's config: every parsed option but ``--out``, each stored under
    the name of the RunConfig field it sets."""
    fields = {key: value for key, value in vars(args).items() if key != "out"}
    if fields.pop("renormalize", False) and "input_coeffs" in fields:
        scheme = Scheme(fields["scheme"])
        fields["input_coeffs"] = InputState.renormalized(scheme, fields["input_coeffs"]).coeffs
    return RunConfig(**fields)


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
    ``path`` is None, each as it comes.

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
        out = sys.stdout.buffer
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
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print(f"clusterport: {exc}", file=sys.stderr)
        return 2
    report = run(cfg)
    out = getattr(args, "out", None)
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
