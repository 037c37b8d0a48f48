#!/usr/bin/env python3
"""Record the sha256 of ``hha classify --format json`` on every catalog export
and on the benchmark's ``dense`` and ``quadratic`` inputs.

    PYTHONPATH=src python3 tests/record_cli_digests.py

Writes ``tests/data/cli_digests.json``: for each built-in entry, and for each
input that ``bench/inputs.write_inputs`` writes for the two workloads at
``oracle.DEFAULT_SEED`` (keyed ``<workload>/<input name>``), the digest of its
classify report in four modes (exact, ``--float``, the rotated pair
``0,1,0;1,0,0``, and both).  Re-pin only on a commit whose reports are known
to be right: ``test_cli_digests.py`` fails on any report whose bytes differ.
"""
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hha.catalog import entry_names
from hha.cli import main

DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "cli_digests.json"
BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_WORKLOADS = ("dense", "quadratic")
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


def _mode_digests(path) -> dict:
    return {
        mode: hashlib.sha256(
            _cli(["classify", str(path), "--format", "json", *flags]).encode()
        ).hexdigest()
        for mode, flags in MODES.items()
    }


def bench_inputs(directory) -> dict:
    """{"<workload>/<name>": path} of the seed-pinned dense and quadratic inputs.

    The benchmark's modules import each other by bare name from ``bench/``.
    """
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
        import oracle
    finally:
        sys.path.remove(str(BENCH))
    return {f"{workload}/{path.stem}": path
            for workload in BENCH_WORKLOADS
            for path in inputs.write_inputs(workload, oracle.DEFAULT_SEED,
                                            Path(directory) / workload)}


def cli_digests(directory) -> dict:
    """{input: {mode: sha256 of its classify report}} over every catalog export
    and every seed-pinned bench input."""
    digests = {}
    for name in entry_names():
        path = Path(directory) / f"{name}.json"
        path.write_text(_cli(["catalog", "export", name]))
        digests[name] = _mode_digests(path)
    for name, path in bench_inputs(directory).items():
        digests[name] = _mode_digests(path)
    return digests


def record():
    with tempfile.TemporaryDirectory() as directory:
        digests = cli_digests(directory)
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print(f"{len(digests)} inputs x {len(MODES)} modes -> {DIGESTS_PATH.name}")


if __name__ == "__main__":
    record()
