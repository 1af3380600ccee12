"""Command-line front end.

Exit codes: 0 when every configured check passes, 1 when a check fails,
2 for unusable arguments or configuration, or a report that cannot be
written.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from .harness import FORMATS, RunConfig, emit_report, run
from .protocol import InputState, Scheme


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


def _add_common(p: argparse.ArgumentParser, with_input: bool) -> None:
    p.add_argument(
        "--scheme", type=int, choices=(1, 2), required=True,
        help="1 teleports alpha|00>+delta|11>, 2 teleports any two-qubit state",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    p.add_argument("--format", choices=FORMATS, default="text", dest="format")
    p.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    if with_input:
        p.add_argument(
            "--coeffs", type=_parse_coeffs, default=None, metavar="LIST",
            help="input coefficients, comma separated complex values ('0.6,0.8j')",
        )
        p.add_argument(
            "--renormalize", action="store_true",
            help="scale --coeffs to unit norm instead of rejecting them",
        )
        p.add_argument("--tol", type=float, default=1e-10, help="fidelity check tolerance")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="clusterport",
        description="Simulate two-qubit teleportation over a four-qubit cluster channel.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p_enum = sub.add_parser("enumerate", help="run all 16 branches deterministically")
    _add_common(p_enum, with_input=True)
    p_enum.add_argument(
        "--random-inputs", type=int, default=100, dest="random_inputs",
        help="seeded random inputs when --coeffs is absent (unbounded; memory grows "
        "with it, by 16 probabilities, fidelities and states per input)",
    )

    p_sample = sub.add_parser("sample", help="Monte Carlo over the measurement outcomes")
    _add_common(p_sample, with_input=True)
    p_sample.add_argument(
        "--trials", type=int, default=16000,
        help="Monte Carlo trials (unbounded: time grows, memory stays flat); a correct "
        "sampler fails the chi-square gate at rate 1e-9 asymptotically, but at about "
        "1.5e-5 with 5 trials and 2e-7 to 6e-6 with 6 to 30 (none below 5)",
    )

    p_derive = sub.add_parser("derive", help="derive the correction table from the branch maps")
    _add_common(p_derive, with_input=False)

    p_verify = sub.add_parser("verify", help="check the built-in table against the derivation")
    _add_common(p_verify, with_input=False)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    coeffs = getattr(args, "coeffs", None)
    if coeffs is not None and getattr(args, "renormalize", False):
        coeffs = InputState.renormalized(Scheme(args.scheme), coeffs).coeffs
    kwargs = {
        "scheme": Scheme(args.scheme),
        "mode": args.mode,
        "input_coeffs": coeffs,
        "seed": args.seed,
        "output_format": args.format,
    }
    if hasattr(args, "tol"):
        kwargs["fidelity_tol"] = args.tol
    if hasattr(args, "random_inputs"):
        kwargs["random_inputs"] = args.random_inputs
    if hasattr(args, "trials"):
        kwargs["trials"] = args.trials
    return RunConfig(**kwargs)


def _write_report(path: Path, data: bytes) -> None:
    """Write the report to ``path``.

    A new or regular file is written through a sibling temp file that is
    then renamed over it, keeping its mode, so ``path`` never holds half a
    report.  Anything else (a symlink, a device such as /dev/null, a FIFO)
    is written through in place: renaming over it would replace the link or
    the device node instead of writing to it.
    """
    if path.is_symlink() or (path.exists() and not path.is_file()):
        path.write_bytes(data)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        if path.exists():
            os.chmod(tmp, path.stat().st_mode & 0o7777)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print(f"clusterport: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(cfg)
    except RuntimeError as exc:
        print(f"clusterport: {exc}", file=sys.stderr)
        return 1
    data = emit_report(report)
    if args.out is not None:
        try:
            _write_report(args.out, data)
        except OSError as exc:
            print(f"clusterport: cannot write report to {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
