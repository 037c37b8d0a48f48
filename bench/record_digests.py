#!/usr/bin/env python3
"""Record the sha256 of every report the workloads produce, for the oracle.

    python3 bench/record_digests.py

Writes data/digests.json from one pass of each workload at the default
seed.  Run it only on a commit whose reports are known to be right: the
benchmark then fails any verdict whose report bytes differ.
"""
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_hha()
import oracle  # noqa: E402
import workloads  # noqa: E402


def main():
    recorded = {}
    for workload in run.WORKLOADS:
        directory = run.OUT / f"digests-{workload}"
        paths = run.inputs.write_inputs(workload, oracle.DEFAULT_SEED, directory)
        ctx = workloads.PassContext(workload, oracle.DEFAULT_SEED, paths,
                                    check_digests=False)
        verdicts = workloads.PASSES[workload](ctx)
        shutil.rmtree(directory)
        failed = [v for v in verdicts if v.problems]
        if failed:
            sys.exit(f"{workload}: {failed[0].input_id}: {failed[0].problems}")
        recorded[workload] = {v.input_id: oracle.digest(v.report) for v in verdicts}
        print(f"{workload}: {len(verdicts)} reports")
    oracle.DIGESTS_PATH.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
