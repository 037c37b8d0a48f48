"""One pass of every benchmark workload at the pinned seed reproduces the
report digests recorded in ``bench/data/digests.json``."""
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``inputs``, ``oracle`` and ``workloads`` modules, which
    import each other by bare name from ``bench/``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import inputs
        import oracle
        import workloads
        yield inputs, oracle, workloads


def test_one_pass_of_each_workload_matches_the_recorded_digests(bench, tmp_path):
    inputs, oracle, workloads = bench
    seed = oracle.DEFAULT_SEED
    problems = {}
    for workload, pass_fn in workloads.PASSES.items():
        paths = inputs.write_inputs(workload, seed, tmp_path / workload)
        verdicts = pass_fn(workloads.PassContext(workload, seed, paths, check_digests=True))
        assert verdicts, workload
        problems.update({f"{workload}/{v.input_id}": v.problems
                         for v in verdicts if v.problems})
    assert problems == {}
