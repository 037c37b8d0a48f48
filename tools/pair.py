#!/usr/bin/env python3
"""Time two source trees of ``hha`` against each other in one process.

    python3 tools/pair.py BASE CHANGE [--workload catalog|dense|quadratic|all ...]
                          [--pairs 20] [--seed 1]

BASE and CHANGE are checkouts of this repository (for example a ``git
archive`` of the parent commit and the working tree).  Each tree's
``src/hha`` is loaded as a package of its own, ``hha_base`` and
``hha_change``, so both run in one interpreter, on one machine state.

A pass runs the workload's inputs once on each side:

- ``catalog``: ``catalog.run_report([name])`` for every built-in entry;
- ``dense`` and ``quadratic``: ``hha classify FILE --format json`` (through
  ``cli.main``, output discarded) on the inputs that
  ``bench/inputs.write_inputs`` writes for the seed.

Within a pass the side that runs an input first alternates from input to
input, and the first side of the first input alternates from pass to pass,
so neither side is always the one that runs warm.  Each pass gives one pair:
the CHANGE/BASE ratio of the two sides' summed wall times.  The script prints
every ratio, then their median and quartiles, and the number of pairs that
CHANGE won (ratio below 1).

``--workload`` may be given more than once, or as ``all`` for the three; the
workloads run one after the other, each with its own warm-up pass, and each
prints its block of three lines, the last one its summary.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("catalog", "dense", "quadratic")


def load_tree(root: Path, name: str) -> dict:
    """The ``catalog`` and ``cli`` modules of ``root/src/hha``, loaded as the
    package ``name``."""
    src = root / "src" / "hha"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("catalog", "cli")}


def tasks(tree: dict, workload: str, paths: list) -> list:
    """One callable per input of the workload, on one tree."""
    if workload == "catalog":
        catalog = tree["catalog"]
        return [lambda name=name: catalog.run_report([name])
                for name in catalog.entry_names()]
    main = tree["cli"].main

    def classify(path):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if main(["classify", str(path), "--format", "json"]) != 0:
                raise RuntimeError(f"classify {path.name} failed")

    return [lambda path=path: classify(path) for path in paths]


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_pairs(base: list, change: list, pairs: int) -> list:
    """CHANGE/BASE ratios of ``pairs`` passes."""
    ratios = []
    for p in range(pairs):
        totals = [0.0, 0.0]
        for i, both in enumerate(zip(base, change)):
            first = (p + i) % 2
            for side in (first, 1 - first):
                totals[side] += timed(both[side])
        ratios.append(totals[1] / totals[0])
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), action="append",
                        help="a workload to time (repeatable; all: the three); default catalog")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    chosen = args.workload or ["catalog"]
    workloads = [w for w in WORKLOADS if w in chosen or "all" in chosen]

    base, change = load_tree(args.base, "hha_base"), load_tree(args.change, "hha_change")
    with tempfile.TemporaryDirectory() as directory:
        for workload in workloads:
            paths = []
            if workload != "catalog":
                sys.path.insert(0, str(BENCH))
                import inputs
                paths = inputs.write_inputs(workload, args.seed, Path(directory) / workload)
            sides = [tasks(tree, workload, paths) for tree in (base, change)]
            for task in (*sides[0], *sides[1]):   # a warm-up pass on each side
                task()
            report(workload, len(sides[0]), run_pairs(*sides, args.pairs))
    return 0


def report(workload: str, inputs: int, ratios: list) -> None:
    """Print the workload's block: its header, every ratio, and the summary."""
    print(f"workload {workload}, {inputs} inputs, {len(ratios)} pairs")
    print("ratios (change/base): " + " ".join(f"{r:.3f}" for r in ratios))
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else (ratios[0],) * 3)
    wins = sum(r < 1 for r in ratios)
    print(f"median {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
          f"change won {wins}/{len(ratios)}")


if __name__ == "__main__":
    sys.exit(main())
