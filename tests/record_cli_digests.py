#!/usr/bin/env python3
"""Record the sha256 of ``hha classify --format json`` on every catalog export.

    PYTHONPATH=src python3 tests/record_cli_digests.py

Writes ``tests/data/cli_digests.json``: for each built-in entry, the digest of
its classify report in four modes (exact, ``--float``, the rotated pair
``0,1,0;1,0,0``, and both).  Re-pin only on a commit whose reports are known
to be right: ``test_cli_digests.py`` fails on any report whose bytes differ.
"""
import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hha.catalog import entry_names
from hha.cli import main

DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "cli_digests.json"
PAIR = "0,1,0;1,0,0"
MODES = {
    "exact": [],
    "float": ["--float"],
    "pair": ["--pair", PAIR],
    "float_pair": ["--float", "--pair", PAIR],
}


def _cli(args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"hha {' '.join(args)} exited {code}")
    return out.getvalue()


def cli_digests(directory) -> dict:
    """{entry: {mode: sha256 of its classify report}} over every catalog export."""
    digests = {}
    for name in entry_names():
        path = Path(directory) / f"{name}.json"
        path.write_text(_cli(["catalog", "export", name]))
        digests[name] = {
            mode: hashlib.sha256(
                _cli(["classify", str(path), "--format", "json", *flags]).encode()
            ).hexdigest()
            for mode, flags in MODES.items()
        }
    return digests


def record():
    with tempfile.TemporaryDirectory() as directory:
        digests = cli_digests(directory)
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print(f"{len(digests)} entries x {len(MODES)} modes -> {DIGESTS_PATH.name}")


if __name__ == "__main__":
    record()
