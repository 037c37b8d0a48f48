"""``tools/pair.py``, which times two source trees against each other in one
process, run on this tree against itself."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import pair  # noqa: E402


def test_one_pair_of_catalog_passes_prints_a_ratio_and_the_wins(capsys):
    assert pair.main([str(ROOT), str(ROOT), "--pairs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload catalog, 21 inputs, 1 pairs"
    assert out[2].startswith("median ") and out[2].endswith("/1")


def test_the_two_trees_load_as_separate_packages():
    first, second = (pair.load_tree(ROOT, name)["catalog"] for name in ("hha_one", "hha_two"))
    assert first is not second
    assert first.__name__ == "hha_one.catalog" and second.__name__ == "hha_two.catalog"
    assert first.entry_names() == second.entry_names()


def test_each_workload_given_prints_its_block_in_the_order_of_the_workloads(capsys):
    assert pair.main([str(ROOT), str(ROOT), "--pairs", "1",
                      "--workload", "quadratic", "--workload", "catalog"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert out[0] == "workload catalog, 21 inputs, 1 pairs"
    assert out[3].startswith("workload quadratic, ") and out[3].endswith(" inputs, 1 pairs")
    assert [line.endswith("/1") for line in out] == [False, False, True] * 2


def test_all_runs_the_three_workloads(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(pair, "run_pairs", lambda base, change, pairs: ran.append(len(base))
                        or [1.0] * pairs)
    monkeypatch.setattr(pair, "tasks", lambda tree, workload, paths:
                        [lambda: None] * (len(paths) or 21))
    assert pair.main([str(ROOT), str(ROOT), "--pairs", "2", "--workload", "all"]) == 0
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("workload ")]
    assert [h.split(",")[0] for h in headers] == ["workload catalog", "workload dense",
                                                   "workload quadratic"]
    assert len(ran) == 3


def test_construct_runs_the_four_constructions_after_the_benchmark_workloads(capsys):
    assert pair.main([str(ROOT), str(ROOT), "--pairs", "1",
                      "--workload", "construct", "--workload", "catalog"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [out[0], out[3]] == ["workload catalog, 21 inputs, 1 pairs",
                                "workload construct, 4 inputs, 1 pairs"]
    assert out[5].startswith("median ") and out[5].endswith("/1")
