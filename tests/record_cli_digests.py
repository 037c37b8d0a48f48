#!/usr/bin/env python3
"""Record the sha256 of ``hha classify --format json`` on every catalog export
and on the benchmark's ``dense`` and ``quadratic`` inputs.

    PYTHONPATH=src python3 tests/record_cli_digests.py

Writes ``tests/data/cli_digests.json``: for each built-in entry, and for each
input that ``bench/inputs.write_inputs`` writes for the two workloads at
``oracle.DEFAULT_SEED`` (keyed ``<workload>/<input name>``), the digest of its
classify report in four modes (exact, ``--float``, the rotated pair
``0,1,0;1,0,0``, and both).  The catalog exports over Q and Q(sqrt(2)), 20
of the 21, add a fifth, ``pair_sqrt2``: the pair
``1/2*sqrt(2),1/2*sqrt(2),0;0,0,1``, whose frame lies in Q(sqrt(2)), over a
rational algebra for most of them (``joyce_su3``, over Q(sqrt(3)), refuses
that pair; ``test_cli.py`` pins the refusal).  Re-pin only on a commit whose
reports are known to be right: ``test_cli_digests.py`` fails on any report
whose bytes differ.
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
PAIR_SQRT2 = "1/2*sqrt(2),1/2*sqrt(2),0;0,0,1"
# a rotation out of Q, for the documents whose field holds sqrt(2)
SQRT2_MODES = {**MODES, "pair_sqrt2": ["--pair", PAIR_SQRT2]}


def _cli(args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"hha {' '.join(args)} exited {code}")
    return out.getvalue()


def _mode_digests(path, modes=MODES) -> dict:
    return {
        mode: hashlib.sha256(
            _cli(["classify", str(path), "--format", "json", *flags]).encode()
        ).hexdigest()
        for mode, flags in modes.items()
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
        export = _cli(["catalog", "export", name])
        path.write_text(export)
        field = json.loads(export)["scalar_field"]
        digests[name] = _mode_digests(path, SQRT2_MODES if field.get("d", 2) == 2 else MODES)
    for name, path in bench_inputs(directory).items():
        digests[name] = _mode_digests(path)
    return digests


def record():
    with tempfile.TemporaryDirectory() as directory:
        digests = cli_digests(directory)
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print(f"{len(digests)} inputs, {sum(map(len, digests.values()))} digests "
          f"-> {DIGESTS_PATH.name}")


if __name__ == "__main__":
    record()
