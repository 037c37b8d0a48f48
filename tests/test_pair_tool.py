"""``tools/pair.py``, which times two source trees against each other in one
process, run on this tree against itself."""
import json
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


def test_cap_loads_the_three_cap_documents_and_prints_its_block(capsys, monkeypatch):
    from hha.documents import load_document, parse_input
    shapes = []
    for doc in pair.cap_documents(1):
        geometry, metric = load_document(parse_input(json.dumps(doc)))
        shapes.append((geometry.algebra.dim, metric._g_inv_ints[0]))
    assert shapes == [(48, 5), (64, 0), (80, 5)]
    # the same recipe in smaller dimensions, so that the timed passes stay short
    monkeypatch.setattr(pair, "CAP", ((8, 5), (12, 0), (16, 5)))
    assert pair.main([str(ROOT), str(ROOT), "--pairs", "1", "--workload", "cap"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload cap, 3 inputs, 1 pairs"
    assert len(out) == 3 and out[2].startswith("median ") and out[2].endswith("/1")


def test_the_warm_up_pass_alternates_the_sides_from_input_to_input(monkeypatch):
    calls = []
    monkeypatch.setattr(pair, "tasks", lambda tree, workload, paths: [
        lambda i=i, side=tree["catalog"].__name__.split(".")[0]: calls.append((side, i))
        for i in range(4)])
    monkeypatch.setattr(pair, "report", lambda workload, inputs, ratios: None)
    assert pair.main([str(ROOT), str(ROOT), "--pairs", "2"]) == 0
    order = [("hha_base", 0), ("hha_change", 0), ("hha_change", 1), ("hha_base", 1),
             ("hha_base", 2), ("hha_change", 2), ("hha_change", 3), ("hha_base", 3)]
    flipped = [(("hha_base", "hha_change")[side == "hha_base"], i) for side, i in order]
    # the warm-up, then the two timed passes, the second starting with CHANGE
    assert calls == order + order + flipped
