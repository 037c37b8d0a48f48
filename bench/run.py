#!/usr/bin/env python3
"""Benchmark for hha: exact classification verdicts, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload catalog --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --repeats 2     # every workload, a table

One process, one thread, a closed loop with a single caller: each input
starts after the previous verdict is out.  A run sets up (interpreter start,
``import hha``, writing the generated inputs) several times in fresh
processes and reports the median as ``setup_s``, then repeats whole passes
over the workload's inputs until the next pass would overrun ``--seconds``
(always at least one pass).  Every verdict is checked (see oracle.py); the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Times are reference seconds:
wall seconds scaled by the machine speed sampled while they ran
(calibrate.py); wall seconds are printed beside them.

With ``--trace 1`` the run makes one pass that counts scalar operations and
one pass with spans installed on the public functions of ``hha``
(spans.py), and reports the per-layer metrics instead.  Spans
and a record of the run go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("catalog", "dense", "quadratic", "construct")
SETUP_PROBES = 7
DIMENSIONS = (8, 12, 16, 20, 24, 28)

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402  (standard library only)
import inputs  # noqa: E402  (standard library only)


def import_hha():
    """Make the checkout's ``src/hha`` importable; exit 1 if it is missing."""
    if not (ROOT / "src" / "hha" / "__init__.py").is_file():
        sys.exit(f"error: no hha sources under {ROOT / 'src'}; "
                 "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports every hha module)


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg())}


# -- set-up ---------------------------------------------------------------------


def setup_probe(workload: str, seed: int, directory: Path):
    """What a run does before its first input, in a fresh process; then the
    machine speed right after it, on the line after ``ready``."""
    import_hha()
    inputs.write_inputs(workload, seed, directory)
    print("ready", flush=True)
    print(calibrate.reference_speed(), flush=True)


def measure_setup(workload: str, seed: int, work: Path):
    """Wall and reference seconds from process start to ``ready``, per probe."""
    walls, refs = [], []
    for k in range(SETUP_PROBES):
        probe = work / f"probe{k}"
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload, "--seed",
                               str(seed), "--dir", str(probe)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            wall = time.perf_counter() - start
            speed = proc.stdout.readline()
        if proc.returncode != 0 or ready.strip() != "ready":
            sys.exit(f"error: set-up probe failed with exit code {proc.returncode}")
        walls.append(wall)
        refs.append(wall * calibrate.NOMINAL_S / float(speed))
        shutil.rmtree(probe, ignore_errors=True)
    return walls, refs


# -- measurement ------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (the 'inclusive' rule)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_passes(pass_fn, ctx, seconds: float):
    """Whole passes until the next one would overrun ``seconds``.

    Returns the passes, each a list of verdicts whose ``seconds`` are wall
    seconds, the reference seconds of each verdict in the same shape, and the
    kernel times sampled (each verdict's ``mark`` is its range of them).
    """
    passes, walls, reports = [], [], {}
    speedometer = calibrate.Speedometer()
    ctx.clock = speedometer.measure
    speedometer.start()
    try:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            batch = pass_fn(ctx)
            walls.append(time.perf_counter() - t0)
            for v in batch:
                # the same input must give the same report bytes on every pass
                if reports.setdefault(v.input_id, v.report) != v.report:
                    v.problems.append("report bytes differ between passes")
            passes.append(batch)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        settle = time.perf_counter() + calibrate.PERIOD_S * calibrate.MIN_SAMPLES
        while time.perf_counter() < settle:   # samples after the last verdict
            calibrate.kernel()
    finally:
        speedometer.stop()
        ctx.clock = None
    refs = [[speedometer.reference(v.seconds, v.mark) for v in batch] for batch in passes]
    return passes, refs, speedometer.samples


def end_to_end(setup, passes, refs) -> dict:
    """The end-to-end metrics, each as (reference value, wall value, unit, samples)."""
    def timed(setup_times, per_pass):
        pass_times = [sum(batch) for batch in per_pass]
        times = [t for batch in per_pass for t in batch]
        return {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "verdict_s.p50": statistics.median(times),
            "verdict_s.p90": quantile(times, 0.9),
        }

    wall = timed(setup[0], [[v.seconds for v in batch] for batch in passes])
    ref = timed(setup[1], refs)
    verdicts = sum(len(batch) for batch in passes)
    samples = {"setup_s": len(setup[0]), "pass_s": len(passes),
               "verdict_s.p50": verdicts, "verdict_s.p90": verdicts}
    metrics = {name: (ref[name], wall[name], "s", samples[name]) for name in ref}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss, rss, "MB", 1)
    return metrics


def per_layer(tracer, counts, traced_s: float, untraced_s: float) -> dict:
    s, c = tracer.self_s, tracer.calls

    def per_call(name, dim):
        calls, total = tracer.by_dim.get((name, dim), (0, 0.0))
        return total / calls if calls else 0.0

    m = {
        "scalars.mul_count": (counts["mul"], "count"),
        "scalars.add_count": (counts["add"], "count"),
        "scalars.inverse_count": (counts["inverse"], "count"),
        "scalars.irrational_mul_share": (
            counts["irrational_mul"] / counts["mul"] if counts["mul"] else 0.0, "share"),
        "linalg.det_count": (c["linalg.det"], "count"),
        "linalg.det_s": (s["linalg.det"], "s"),
        "linalg.solve_count": (c["linalg.solve"], "count"),
        "linalg.solve_s": (s["linalg.solve"], "s"),
        "linalg.inverse_s": (s["linalg.inverse"], "s"),
        "linalg.rank_s": (s["linalg.rank"], "s"),
        "linalg.definiteness_s": (s["linalg.definiteness"], "s"),
        "linalg.max_order": (tracer.max_order, "rows"),
        "forms.wedge_count": (c["forms.wedge"], "count"),
        "forms.wedge_s": (s["forms.wedge"], "s"),
        "forms.wedge_power_s": (s["forms.wedge_power"], "s"),
        "forms.wedge_terms_out": (tracer.wedge_terms_out, "count"),
        "forms.substitute_s": (s["forms.substitute"], "s"),
        "forms.contract_count": (c["forms.contract"], "count"),
        "liealg.validate_s": (s["liealg.validate"], "s"),
        "liealg.ce_differential_count": (c["liealg.ce_differential"], "count"),
        "hypercomplex.geometry_s": (s["hypercomplex.geometry"], "s"),
        "hypercomplex.rotated_s": (s["hypercomplex.rotated"], "s"),
        "hypercomplex.d_count": (c["hypercomplex.d"], "count"),
        "hypercomplex.d_s": (s["hypercomplex.d"], "s"),
        "hypercomplex.del_j_s": (s["hypercomplex.del_j"], "s"),
        "hermitian.metric_init_count": (c["hermitian.metric_init"], "count"),
        "hermitian.metric_init_s": (s["hermitian.metric_init"], "s"),
        "hermitian.omega_power_s": (s["hermitian.omega_power"], "s"),
        "hermitian.inner_product_count": (c["hermitian.inner_product"], "count"),
        "hermitian.inner_product_s": (s["hermitian.inner_product"], "s"),
        "hermitian.lefschetz_adjoint_s": (s["hermitian.lefschetz_adjoint"], "s"),
        "hermitian.canonical_forms_s": (s["hermitian.canonical_forms"], "s"),
        "hermitian.curvature_s": (s["hermitian.curvature"], "s"),
        "hermitian.in_rotated_frame_s": (s["hermitian.in_rotated_frame"], "s"),
        "classify.classify_metric_s": (s["classify.classify_metric"], "s"),
        "classify.solve_exactness_s": (s["classify.solve_exactness"], "s"),
        "classify.einstein_factor_s": (s["classify.einstein_factor"], "s"),
        "classify.sl_check_s": (s["classify.sl_check"], "s"),
        "classify.obstruction_s": (s["classify.obstruction"], "s"),
        "classify.family_checks_s": (s["classify.family_checks"], "s"),
        "constructions.joyce_build_s": (s["constructions.joyce_build"], "s"),
        "constructions.arroyo_nicolini_s": (s["constructions.arroyo_nicolini"], "s"),
        "constructions.direct_sum_s": (s["constructions.direct_sum"], "s"),
        "constructions.barberis_fino_s": (s["constructions.barberis_fino"], "s"),
        "catalog.check_entry_s": (s["catalog.check_entry"], "s"),
        "documents.parse_s": (s["documents.parse"], "s"),
        "documents.load_s": (s["documents.load"], "s"),
        "documents.report_s": (s["documents.report"], "s"),
        "cli.main_s": (s["cli.main"], "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    for dim in DIMENSIONS:
        m[f"forms.wedge_power_total_s.d{dim}"] = (per_call("forms.wedge_power", dim), "s")
        m[f"classify.classify_metric_total_s.d{dim}"] = (
            per_call("classify.classify_metric", dim), "s")
    return {name: (value, unit, 1) for name, (value, unit) in m.items()}


def traced_run(pass_fn, ctx, tag: str):
    """A counting pass, then a traced pass; per-layer metrics and verdicts.

    The counting pass carries only the scalar counters (a few percent: each
    counted multiply or add costs well under a microsecond more) and is the
    untraced reference of ``trace.overhead_ratio``.
    Two passes instead of three keep a traced catalog run near two minutes.
    """
    from spans import ScalarCounter, Tracer

    counter = ScalarCounter()
    counter.install()
    try:
        t0 = time.perf_counter()
        verdicts = pass_fn(ctx)
        untraced_s = time.perf_counter() - t0
    finally:
        counter.uninstall()

    tracer = Tracer()
    ctx.on_input = lambda input_id: setattr(tracer, "input_id", input_id)
    tracer.install()
    try:
        t0 = time.perf_counter()
        verdicts += pass_fn(ctx)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    ctx.on_input = None
    tracer.write(OUT / f"{tag}.spans.jsonl")
    return per_layer(tracer, counter.counts, traced_s, untraced_s), verdicts


def run_workload(args) -> int:
    import_hha()
    import workloads

    before = environment()
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    setup = None if args.trace else measure_setup(args.workload, args.seed, work)
    paths = inputs.write_inputs(args.workload, args.seed, work / "inputs")
    ctx = workloads.PassContext(args.workload, args.seed, paths)
    pass_fn = workloads.PASSES[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, verdicts = traced_run(pass_fn, ctx, tag)
        passes = refs = samples = []
    else:
        passes, refs, samples = run_passes(pass_fn, ctx, args.seconds)
        verdicts = [v for batch in passes for v in batch]
        e2e = end_to_end(setup, passes, refs)
        walls = {k: wall for k, (_, wall, _, _) in e2e.items()}
        metrics = {k: (ref, unit, n) for k, (ref, _, unit, n) in e2e.items()}
    shutil.rmtree(work, ignore_errors=True)
    after = environment()

    failed = [v for v in verdicts if v.problems]
    env = f"nproc={before['nproc']} python={before['python']}"
    print(f"env: {env} loadavg before {before['loadavg']} after {after['loadavg']}")
    print(f"{args.workload} seed {args.seed}: {len(passes) or 'traced'} pass(es), "
          f"verdict_count {len(verdicts)}, failed_share "
          f"{len(failed) / len(verdicts):.4g} ({len(failed)}/{len(verdicts)})")
    for v in failed:
        for problem in v.problems:
            print(f"  FAIL {v.input_id}: {problem}")
    for name, (value, unit, n) in metrics.items():
        wall = f"  wall {walls[name]:.6g}" if not args.trace and unit == "s" else ""
        print(f"  {name:<42} {value:>14.6g} {unit:<6} (n={n}){wall}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment_before": before, "environment_after": after,
        "setup_wall_s": setup[0] if setup else [],
        "setup_reference_s": setup[1] if setup else [],
        "verdicts": [{"input": v.input_id, "wall_s": v.seconds, "problems": v.problems,
                      "samples": v.mark} for v in verdicts],
        "verdict_reference_s": refs,
        "speed_samples_s": samples,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    }
    (OUT / f"{tag}.record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, n) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, interleaved across repeats."""
    rows, ok = [], True
    for r in range(args.repeats):
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for workload in order:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            rows.append((workload, r, result))
    print()
    print(f"{'workload':<10} {'rep':>3} {'failed_share':>12}  metrics")
    for workload, r, result in rows:
        share = result["failed"] / result["attempted"]
        cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}"
                          for k, m in result["metrics"].items())
        print(f"{workload:<10} {r:>3} {share:>12.4g}  {cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --workload all: rounds, each in a rotated order")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.dir)
        return 0
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
