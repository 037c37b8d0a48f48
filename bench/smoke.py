#!/usr/bin/env python3
"""The benchmark's own checks.  Run from the root of a checkout:

    python3 bench/smoke.py

1. One pass of every workload completes with no failed verdict and reports
   exactly the end-to-end metrics of BENCHMARK.json; a traced run reports
   exactly its per-layer metrics.
2. The same seed writes byte-identical inputs and byte-identical reports.
3. Flipping one known answer in the oracle makes verdicts fail.
4. Scalar, wedge and d counts repeat exactly across two traced runs.
5. In a directory holding only BENCHMARK.json and bench/, run.py exits
   non-zero without printing a result.

Takes about three minutes on a 2-core machine; exits 1 if a check fails.
"""
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES = []


def check(label: str, ok: bool, detail: str = ""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{'' if ok else ': ' + detail}", flush=True)
    if not ok:
        FAILURES.append(label)


def run_cli(workload: str, trace: int, cwd: Path = run.ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def full_runs():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for workload in run.WORKLOADS:
        result = result_of(run_cli(workload, 0))
        check(f"{workload}: one pass, no failed verdict",
              bool(result) and result["correct"] and result["failed"] == 0,
              str(result and {k: result[k] for k in ("attempted", "failed")}))
        check(f"{workload}: end-to-end metric names",
              bool(result) and set(result["metrics"]) == e2e)
    result = result_of(run_cli("dense", 1))
    check("dense traced: no failed verdict", bool(result) and result["correct"])
    check("dense traced: per-layer metric names",
          bool(result) and set(result["metrics"]) == layers,
          str(result and sorted(set(result["metrics"]) ^ layers)))


def reproducibility(workloads):
    for workload in ("dense", "quadratic"):
        a = run.inputs.write_inputs(workload, 7, run.OUT / "smoke" / "a" / workload)
        b = run.inputs.write_inputs(workload, 7, run.OUT / "smoke" / "b" / workload)
        check(f"{workload}: same seed, byte-identical inputs",
              [p.read_bytes() for p in a] == [p.read_bytes() for p in b])
    paths = small_inputs()
    first = workloads.classify_pass(context(workloads, paths))
    second = workloads.classify_pass(context(workloads, paths))
    check("same inputs, byte-identical reports",
          [v.report for v in first] == [v.report for v in second])


def small_inputs():
    paths = run.inputs.write_inputs("dense", 7, run.OUT / "smoke" / "dense")
    return [p for p in paths if p.stem.split(".")[0] in ("abelian8", "solv_rank1", "qsg12")]


def context(workloads, paths, **kw):
    # seed 7 is not the pinned seed, so reports are judged by the oracle alone
    return workloads.PassContext("dense", 7, paths, **kw)


def flipped_oracle(workloads):
    known = copy.deepcopy(workloads.oracle.KNOWN_ANSWERS)
    known["qsg"]["q_balanced"] = True
    verdicts = workloads.classify_pass(context(workloads, small_inputs(), known=known))
    failed = {v.input_id.split(".")[0] for v in verdicts if v.problems}
    check("flipped known answer fails the qsg verdicts, and only those",
          failed == {"qsg12"}, str([(v.input_id, v.problems) for v in verdicts]))


def repeatable_counts(workloads):
    counted = ("scalars.mul_count", "scalars.add_count", "scalars.inverse_count",
               "forms.wedge_count", "forms.wedge_terms_out", "hypercomplex.d_count")
    runs = []
    for k in range(2):
        metrics, verdicts = run.traced_run(workloads.classify_pass,
                                           context(workloads, small_inputs()),
                                           f"smoke-{k}")
        runs.append({name: metrics[name][0] for name in counted})
        check(f"traced run {k}: no failed verdict", not any(v.problems for v in verdicts))
    check("scalar, wedge and d counts repeat exactly", runs[0] == runs[1], str(runs))
    check("counts are nonzero", all(runs[0].values()), str(runs[0]))


def bare_directory():
    bare = run.OUT / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("dense", 0, cwd=bare)
    check("without src/, exit non-zero and no result",
          proc.returncode != 0 and result_of(proc) is None,
          f"exit {proc.returncode}: {proc.stdout[-200:]}")
    shutil.rmtree(bare)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    bare_directory()
    run.import_hha()
    import workloads
    reproducibility(workloads)
    flipped_oracle(workloads)
    repeatable_counts(workloads)
    full_runs()
    shutil.rmtree(run.OUT / "smoke", ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
