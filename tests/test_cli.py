import json
import subprocess
import sys

import pytest

from hha.cli import main
from hha.hermitian import ConsistencyError


def run_cli(args):
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def qbal12_file(tmp_path):
    code, out, _ = run_cli(["catalog", "export", "qbal12"])
    assert code == 0
    path = tmp_path / "qbal12.json"
    path.write_text(out)
    return str(path)


def test_check_valid_input(qbal12_file):
    code, out, _ = run_cli(["check", qbal12_file])
    assert code == 0
    assert "valid input" in out


def test_check_invalid_dimension(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "dimension": 6, "structure_equations": {},
    }))
    code, _, err = run_cli(["check", str(path)])
    assert code == 2
    assert "multiple of 4" in err


def test_check_bad_coefficient(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "dimension": 4,
        "structure_equations": {"2": [[1, 2, "1/0"]]},
    }))
    code, _, err = run_cli(["check", str(path)])
    assert code == 2


def test_classify_text(qbal12_file):
    code, out, _ = run_cli(["classify", qbal12_file])
    assert code == 0
    assert "q_balanced" in out and "yes" in out


def test_classify_json_deterministic(qbal12_file):
    code1, out1, _ = run_cli(["classify", qbal12_file, "--format", "json"])
    code2, out2, _ = run_cli(["classify", qbal12_file, "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["flags"]["q_balanced"]["value"] is True
    assert doc["flags"]["hkt"]["value"] is False
    assert doc["einstein_factor"] == "0"
    assert doc["input_sha256"]


def test_classify_text_and_json_same_verdicts(qbal12_file):
    _, text_out, _ = run_cli(["classify", qbal12_file])
    _, json_out, _ = run_cli(["classify", qbal12_file, "--format", "json"])
    doc = json.loads(json_out)
    for name, entry in doc["flags"].items():
        mark = "yes" if entry["value"] else "no"
        assert any(line.strip().startswith(name) and mark in line
                   for line in text_out.splitlines()), name


def test_classify_rotated_pair_keeps_qbal(qbal12_file):
    code, out, _ = run_cli([
        "classify", qbal12_file, "--pair", "0,1,0;1,0,0", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["q_balanced"]["value"] is True
    assert doc["pair"] == "0,1,0;1,0,0"


@pytest.mark.parametrize("pair", ["x,0,0;0,1,0", "1/0,0,0;0,1,0",
                                  "float:x,0,0;0,1,0"])
def test_classify_bad_pair_is_input_error(qbal12_file, pair):
    code, _, err = run_cli(["classify", qbal12_file, "--pair", pair])
    assert code == 2
    assert "--pair" in err


def test_bad_default_field_env_is_input_error(qbal12_file, monkeypatch):
    monkeypatch.setenv("HHA_DEFAULT_FIELD", "quadratic:x")
    code, _, err = run_cli(["check", qbal12_file])
    assert code == 2
    assert "$HHA_DEFAULT_FIELD" in err


@pytest.mark.parametrize("fault", [
    ConsistencyError("balanced characterisations disagree"),
    ValueError("forms live over different frames"),
])
def test_internal_fault_exits_3(qbal12_file, monkeypatch, fault):
    import hha.cli

    def faulty(*_args, **_kwargs):
        raise fault

    monkeypatch.setattr(hha.cli, "classify_metric", faulty)
    code, _, err = run_cli(["classify", qbal12_file])
    assert code == 3
    assert err.startswith(f"error: internal fault ({type(fault).__name__}): {fault}")


def test_missing_file_is_input_error(tmp_path):
    path = str(tmp_path / "missing.json")
    code, _, err = run_cli(["classify", path])
    assert code == 2
    assert path in err


@pytest.mark.parametrize("args, metric, location", [
    (["construct", "joyce", "--blocks", "a"], None, "--blocks"),
    (["construct", "bf", "FILE", "--rep", "spin", "--su2", "1,2"], None, "--su2"),
    (["certify-qbal", "FILE", "--witness", "(1/0)*z1"], None, "--witness"),
    (["classify", "FILE"], {"type": "diagonal", "entries": ["sqrt(2)", "1", "1"]},
     "$.metric.entries[0]"),
    (["classify", "FILE"], {"type": "gram", "entries": [["1"]] * 6},
     "$.metric.entries"),
])
def test_bad_option_or_entry_is_input_error(qbal12_file, args, metric, location):
    if metric is not None:
        with open(qbal12_file, encoding="utf-8") as fh:
            data = json.load(fh)
        data["metric"] = metric
        with open(qbal12_file, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    code, _, err = run_cli([qbal12_file if a == "FILE" else a for a in args])
    assert code == 2
    assert location in err


def _unitary_terms(**edit):
    terms = [[1, 2, "1", "0"], [3, 4, "1", "0"], [5, 6, "1", "0"]]
    for index, value in edit.items():
        terms[int(index[1:])][2] = value
    return terms


def _identity_gram(r, s, entry):
    gram = [[["1", "0"] if i == j else ["0", "0"] for j in range(6)] for i in range(6)]
    gram[r][s] = entry
    return gram


@pytest.mark.parametrize("data, location", [
    ({"brackets": [[1, 2, [[3, "sqrt(2)"]]]]}, "$.brackets[0][2][0]"),
    ({"brackets": [[1, 2, [[3, "float:2"]]]]}, "$.brackets[0][2][0]"),
    ({"structure_equations": {"3": [[1, 2, "float:2"]]}}, "$.structure_equations.3[0]"),
    ({"metric": {"type": "omega", "terms": _unitary_terms(t0="sqrt(2)")}},
     "$.metric.terms[0]"),
    ({"metric": {"type": "omega", "terms": _unitary_terms(t2="float:2")}},
     "$.metric.terms[2]"),
    ({"metric": {"type": "gram", "entries": _identity_gram(0, 1, ["sqrt(3)", "0"])}},
     "$.metric.entries[0][1]"),
    ({"metric": {"type": "gram", "entries": _identity_gram(4, 4, ["float:1", "0"])}},
     "$.metric.entries[4][4]"),
])
def test_scalar_outside_the_field_is_input_error(qbal12_file, data, location):
    with open(qbal12_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "brackets" in data:
        doc = {"name": "bad", "dimension": 4}
    doc.update(data)
    with open(qbal12_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, _, err = run_cli(["classify", qbal12_file, "--format", "json"])
    assert code == 2, err
    assert location in err and "outside the declared scalar field" in err


def test_unitary_omega_and_gram_in_the_field_classify(qbal12_file):
    with open(qbal12_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    _, expected, _ = run_cli(["classify", qbal12_file, "--format", "json"])
    for metric in ({"type": "omega", "terms": _unitary_terms()},
                   {"type": "gram", "entries": _identity_gram(0, 0, ["1", "0"])}):
        doc["metric"] = metric
        with open(qbal12_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, _ = run_cli(["classify", qbal12_file, "--format", "json"])
        assert code == 0
        assert json.loads(out)["flags"] == json.loads(expected)["flags"]


def test_dimension_above_the_cap_is_refused_at_once(tmp_path):
    from hha.documents import MAX_DIMENSION, parse_input
    assert MAX_DIMENSION >= 28   # the glued algebra of construct an
    parse_input(json.dumps({"dimension": MAX_DIMENSION, "structure_equations": {}}))
    for dim in (MAX_DIMENSION + 4, 400000):
        path = tmp_path / f"big{dim}.json"
        path.write_text(json.dumps({"name": "big", "dimension": dim,
                                    "structure_equations": {}}))
        code, _, err = run_cli(["check", str(path)])
        assert code == 2
        assert "$.dimension" in err and str(MAX_DIMENSION) in err


def test_classify_float_mode(qbal12_file):
    code, out, _ = run_cli(["classify", qbal12_file, "--float", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["q_balanced"]["value"] is True


def test_catalog_list():
    code, out, _ = run_cli(["catalog", "list"])
    assert code == 0
    assert "qbal12" in out and "joyce_su3" in out


def test_catalog_run_single():
    code, out, _ = run_cli(["catalog", "run", "qsg12"])
    assert code == 0
    assert "qsg12" in out and "PASS" in out


def test_catalog_run_unknown():
    code, _, err = run_cli(["catalog", "run", "nope"])
    assert code == 2
    assert "unknown catalog entry" in err


def test_certify_qbal(tmp_path):
    code, out, _ = run_cli(["catalog", "export", "qsg12"])
    path = tmp_path / "qsg12.json"
    path.write_text(out)
    code, out, _ = run_cli(["certify-qbal", str(path), "--witness", "2*z5"])
    assert code == 0
    assert "ACCEPTED" in out
    code, out, _ = run_cli(["certify-qbal", str(path), "--witness", "2*z5-2*z6"])
    assert code == 1
    assert "REJECTED" in out


@pytest.mark.parametrize("entry, witness", [
    ("joyce_su3", "(-1)*z2"),
    ("joyce_su3", "z2"),
    ("joyce_su2xsu2", "(-1)*z2"),
    ("joyce_su2xsu2", "(-1)*z4"),
    ("joyce_su2xsu2", "z2"),
    ("joyce_su2xsu2", "z4"),
])
def test_certify_qbal_rejects_off_sl_n_h(tmp_path, entry, witness):
    _, out, _ = run_cli(["catalog", "export", entry])
    path = tmp_path / f"{entry}.json"
    path.write_text(out)
    code, out, _ = run_cli(["certify-qbal", str(path), "--witness", witness])
    assert code == 1
    assert "REJECTED" in out
    code, out, _ = run_cli(["classify", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["flags"]["q_balanced"]["value"] is True


def test_search_cli(tmp_path):
    code, out, _ = run_cli(["catalog", "export", "qgau8"])
    path = tmp_path / "qgau8.json"
    path.write_text(out)
    code, out, _ = run_cli([
        "search", str(path), "--predicate", "q_strongly_gauduchon",
        "--height", "2", "--budget", "30",
    ])
    assert code == 0
    assert "no witness" in out


def test_construct_joyce():
    code, out, _ = run_cli(["construct", "joyce", "--blocks", "0,0"])
    assert code == 0
    assert "einstein factor 1" in out


def test_construct_an_via_export(tmp_path):
    _, out, _ = run_cli(["catalog", "export", "qbal12"])
    path = tmp_path / "qbal12.json"
    path.write_text(out)
    code, out, _ = run_cli([
        "construct", "an", str(path), str(path), "--e1", "2", "--e2", "2",
        "--out", str(tmp_path / "glued.json"), "--name", "glued28",
    ])
    assert code == 0
    assert "dimension 28" in out
    assert "flag closure holds: True" in out
    # the exported file loads and classifies
    code, out, _ = run_cli(["classify", str(tmp_path / "glued.json"),
                            "--format", "json"])
    assert code == 0
    assert json.loads(out)["flags"]["q_balanced"]["value"] is True


def test_construct_bf_spin(tmp_path):
    _, out, _ = run_cli(["catalog", "export", "joyce_su2"])
    path = tmp_path / "joyce_su2.json"
    path.write_text(out)
    code, out, _ = run_cli([
        "construct", "bf", str(path), "--rep", "spin", "--su2", "2,3,4",
    ])
    assert code == 0
    assert "canonical forms pulled back: True" in out
    assert "strong_hkt" in out


def test_entry_point_runs_as_subprocess(qbal12_file):
    result = subprocess.run(
        [sys.executable, "-m", "hha.cli", "classify", qbal12_file],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "q_balanced" in result.stdout
