#!/usr/bin/env python3
"""Time two source trees of ``hha`` against each other in one process.

    python3 tools/pair.py BASE CHANGE [--workload catalog|dense|quadratic|construct|all ...]
                          [--pairs 20] [--seed 1]

BASE and CHANGE are checkouts of this repository (for example a ``git
archive`` of the parent commit and the working tree).  Each tree's
``src/hha`` is loaded as a package of its own, ``hha_base`` and
``hha_change``, so both run in one interpreter, on one machine state.

A pass runs the workload's inputs once on each side:

- ``catalog``: ``catalog.run_report([name])`` for every built-in entry;
- ``dense`` and ``quadratic``: ``hha classify FILE --format json`` (through
  ``cli.main``, output discarded) on the inputs that
  ``bench/inputs.write_inputs`` writes for the seed;
- ``construct``: the benchmark's four constructions through the tree's
  ``constructions`` module, each loading its inputs from
  ``bench/inputs.write_inputs``: ``arroyo_nicolini`` on qbal12 x qbal12,
  ``direct_sum`` on qbal12 x qsg12, ``barberis_fino`` on joyce_su2 with the
  spin representation, and ``joyce_build`` on su(3).

Within a pass the side that runs an input first alternates from input to
input, and the first side of the first input alternates from pass to pass,
so neither side is always the one that runs warm.  Each pass gives one pair:
the CHANGE/BASE ratio of the two sides' summed wall times.  The script prints
every ratio, then their median and quartiles, and the number of pairs that
CHANGE won (ratio below 1).

``--workload`` may be given more than once, or as ``all`` for the three
benchmark workloads (catalog, dense and quadratic); the
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
WORKLOADS = ("catalog", "dense", "quadratic")   # what ``all`` runs


def load_tree(root: Path, name: str) -> dict:
    """The ``catalog``, ``cli``, ``constructions`` and ``documents`` modules of
    ``root/src/hha``, loaded as the package ``name``."""
    src = root / "src" / "hha"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("catalog", "cli", "constructions", "documents")}


def tasks(tree: dict, workload: str, paths: list) -> list:
    """One callable per input of the workload, on one tree."""
    if workload == "catalog":
        catalog = tree["catalog"]
        return [lambda name=name: catalog.run_report([name])
                for name in catalog.entry_names()]
    if workload == "construct":
        return construct_tasks(tree, paths)
    main = tree["cli"].main

    def classify(path):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if main(["classify", str(path), "--format", "json"]) != 0:
                raise RuntimeError(f"classify {path.name} failed")

    return [lambda path=path: classify(path) for path in paths]


def construct_tasks(tree: dict, paths: list) -> list:
    """The four constructions of the benchmark, each loading its inputs."""
    con, documents = tree["constructions"], tree["documents"]

    def load(name):
        text = next(p for p in paths if p.stem == name).read_text(encoding="utf-8")
        return documents.load_document(documents.parse_input(text))

    def extend():
        g, m = load("joyce_su2")
        con.barberis_fino(g, m, con.sp1_spin_rep(g.algebra, su2_indices=(1, 2, 3)))

    return [lambda: con.arroyo_nicolini(*load("qbal12"), 2, *load("qbal12"), 2),
            lambda: con.direct_sum(*load("qbal12"), *load("qsg12")),
            extend,
            lambda: con.joyce_build(con.joyce_su3_data())]


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
    parser.add_argument("--workload", choices=(*WORKLOADS, "construct", "all"),
                        action="append", help="a workload to time (repeatable; all: "
                        "catalog, dense and quadratic); default catalog")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    chosen = args.workload or ["catalog"]
    workloads = [w for w in (*WORKLOADS, "construct")
                 if w in chosen or ("all" in chosen and w in WORKLOADS)]

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
