#!/usr/bin/env python3
"""Record the sha256 of the CLI's outputs on every catalog export and on the
benchmark's ``dense`` and ``quadratic`` inputs.

    PYTHONPATH=src python3 tests/record_cli_digests.py

Writes two files.  ``tests/data/cli_digests.json`` holds, for each built-in
entry and for each input that ``bench/inputs.write_inputs`` writes for the two
workloads at ``oracle.DEFAULT_SEED`` (keyed ``<workload>/<input name>``), the
digest of its ``classify --format json`` report in four modes (exact,
``--float``, the rotated pair ``0,1,0;1,0,0``, and both).  The catalog
exports over Q and Q(sqrt(2)), 20 of the 21, add a fifth, ``pair_sqrt2``: the
pair ``1/2*sqrt(2),1/2*sqrt(2),0;0,0,1``, whose frame lies in Q(sqrt(2)),
over a rational algebra for most of them (``joyce_su3``, over Q(sqrt(3)),
refuses that pair; ``test_cli.py`` pins the refusal).

``tests/data/cli_gate_digests.json`` pins the other exact outputs: ``hha
catalog run all --verbose``, and ``hha check`` and ``classify --format text``
on the same documents.

Re-pin only on a commit whose outputs are known to be right:
``test_cli_digests.py`` fails on any output whose bytes differ.
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
GATE_PATH = Path(__file__).resolve().parent / "data" / "cli_gate_digests.json"
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
CATALOG_RUN = ("catalog", "run", "all", "--verbose")


def _cli(args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"hha {' '.join(args)} exited {code}")
    return out.getvalue()


def _digest(args) -> str:
    return hashlib.sha256(_cli(args).encode()).hexdigest()


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


def write_documents(directory) -> dict:
    """{input: (path, modes)}: every catalog export, written to ``directory``,
    then every seed-pinned bench input, with the classify modes each takes."""
    documents = {}
    for name in entry_names():
        path = Path(directory) / f"{name}.json"
        export = _cli(["catalog", "export", name])
        path.write_text(export)
        field = json.loads(export)["scalar_field"]
        documents[name] = (path, SQRT2_MODES if field.get("d", 2) == 2 else MODES)
    for name, path in bench_inputs(directory).items():
        documents[name] = (path, MODES)
    return documents


def cli_digests(documents) -> dict:
    """{input: {mode: sha256 of its classify --format json report}}."""
    return {name: {mode: _digest(["classify", str(path), "--format", "json", *flags])
                   for mode, flags in modes.items()}
            for name, (path, modes) in documents.items()}


def gate_digests(documents) -> dict:
    """The exact outputs besides the JSON reports: the verbose catalog run,
    and per input ``check`` and ``classify --format text``."""
    return {
        " ".join(CATALOG_RUN): _digest(CATALOG_RUN),
        "check": {name: _digest(["check", str(path)])
                  for name, (path, _) in documents.items()},
        "classify --format text": {name: _digest(["classify", str(path), "--format", "text"])
                                   for name, (path, _) in documents.items()},
    }


def _write(path: Path, digests: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")


def record():
    with tempfile.TemporaryDirectory() as directory:
        documents = write_documents(directory)
        digests = cli_digests(documents)
        gate = gate_digests(documents)
    _write(DIGESTS_PATH, digests)
    _write(GATE_PATH, gate)
    print(f"{len(digests)} inputs, {sum(map(len, digests.values()))} digests "
          f"-> {DIGESTS_PATH.name}; 1 + {len(gate['check'])} + "
          f"{len(gate['classify --format text'])} -> {GATE_PATH.name}")


if __name__ == "__main__":
    record()
