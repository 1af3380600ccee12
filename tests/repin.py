"""Recompute every pin in ``report_digests.json`` and print the configs that moved.

The table maps each pinned config, written as its command-line arguments
(``sample --scheme 2 --coeffs=0,0,0,-1j --format text``), to the SHA-256 of
the report bytes it writes at the current ``schema``.  Run this only with a
deliberate ``schema`` bump, and list the moved configs with that change:

    PYTHONPATH=src python tests/repin.py
"""

import hashlib
import json
import os

from clusterport import emit_report, run
from clusterport.cli import parse_args

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_digests.json")


def digest(key: str) -> str:
    """SHA-256 of the report that the arguments ``key`` ask for."""
    cfg, _ = parse_args(key.split())
    return hashlib.sha256(emit_report(run(cfg))).hexdigest()


def table_bytes(digests: dict) -> bytes:
    """The table's one written form: sorted keys, one entry per line."""
    return (json.dumps(digests, indent=1, sort_keys=True) + "\n").encode()


def load() -> dict:
    """The table as it is written now."""
    with open(PATH, "rb") as f:
        return json.load(f)


def main() -> None:
    old = load()
    new = {key: digest(key) for key in old}
    with open(PATH, "wb") as f:
        f.write(table_bytes(new))
    moved = sorted(key for key in new if new[key] != old[key])
    for key in moved:
        print(key)
    print(f"{len(moved)} of {len(new)} configs moved")


if __name__ == "__main__":
    main()
