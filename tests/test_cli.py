import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import hha
from hha.catalog import get_example
from hha.cli import main
from hha.documents import geometry_to_input, load_document, parse_input
from hha.hermitian import ConsistencyError, Metric
from hha.hypercomplex import HypercomplexStructure, SpherePoint
from hha.scalars import HALF, ZERO, rational, root, scalar_str


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


@pytest.mark.parametrize("pair, message", [
    ("1,1,0;0,0,1", "(1, 1, 0) is not a unit vector"),
    ("0,0,1;1/5*sqrt(5),1/5*sqrt(5),0",
     "(1/5*sqrt(5), 1/5*sqrt(5), 0) is not a unit vector"),
    ("1,0,0;1,0,0", "sphere points must be orthogonal"),
])
def test_a_pair_off_the_sphere_or_not_orthogonal_is_an_input_error_at_pair(
        qbal12_file, pair, message):
    code, out, err = run_cli(["classify", qbal12_file, "--pair", pair])
    assert (code, out, err) == (2, "", f"error: --pair: {message}\n")


def _with_field(path, field):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["scalar_field"] = field
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


SQRT2_PAIR = "1/2*sqrt(2),1/2*sqrt(2),0;0,0,1"


@pytest.mark.parametrize("field, pair", [
    ({"kind": "quadratic", "d": 5}, SQRT2_PAIR),
    ({"kind": "quadratic", "d": 3}, SQRT2_PAIR),
    # over Q the pair may leave Q, but for one quadratic field only
    ({"kind": "rational"}, "1/2*sqrt(2),1/2*sqrt(2),0;1/3*sqrt(3),-1/3*sqrt(3),1/3*sqrt(3)"),
])
def test_a_pair_outside_the_documents_field_is_input_error(qbal12_file, field, pair):
    _with_field(qbal12_file, field)
    code, out, err = run_cli(["classify", qbal12_file, "--pair", pair])
    assert code == 2, err
    assert err.startswith("error: --pair: component ") and out == ""


def test_the_float_field_and_the_documents_own_field_take_the_pair(qbal12_file):
    _with_field(qbal12_file, {"kind": "quadratic", "d": 5})
    code, out, err = run_cli(["classify", qbal12_file, "--pair", SQRT2_PAIR, "--float"])
    assert code == 0, err
    code, _, err = run_cli(["classify", qbal12_file, "--pair",
                            "1/5*sqrt(5),2/5*sqrt(5),0;0,0,1"])
    assert code == 0, err


def _sqrt5_metric_file(tmp_path, mtype):
    """An abelian 8-dimensional document over Q(sqrt(5)) whose coupled metric
    has sqrt(5) entries, given as a Gram matrix or as its (2,0)-form.  The
    quaternionic blocks are [[a, b], [-conj b, conj a]] above the diagonal,
    with a = sqrt(5) + i and b = 1, and 7 + sqrt(5) on the diagonal."""
    code, out, _ = run_cli(["catalog", "export", "abelian8"])
    assert code == 0
    data = json.loads(out)
    data["scalar_field"] = {"kind": "quadratic", "d": 5}
    d, z = ["7+sqrt(5)", "0"], ["0", "0"]
    a, a_bar, b, minus_b = ["sqrt(5)", "1"], ["sqrt(5)", "-1"], ["1", "0"], ["-1", "0"]
    data["metric"] = {"type": "gram", "entries": [
        [d, z, a, b], [z, d, minus_b, a_bar], [a_bar, minus_b, d, z], [b, a, z, d]]}
    if mtype == "omega":
        geom, metric = load_document(parse_input(json.dumps(data)))
        data = {**geometry_to_input("sqrt5_omega", geom, metric),
                "scalar_field": data["scalar_field"]}
        assert any("sqrt(5)" in str(term) for term in data["metric"]["terms"])
    path = tmp_path / f"sqrt5_{mtype}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("mtype", ["gram", "omega"])
def test_float_mode_coerces_omega_and_gram_entries(tmp_path, mtype):
    # under --float the metric is a float metric, so a pair over Q(sqrt(2))
    # meets no sqrt(5) in it
    path = _sqrt5_metric_file(tmp_path, mtype)
    code, out, err = run_cli(["classify", path, "--format", "json"])
    assert code == 0, err
    code, out, err = run_cli(["classify", path, "--float", "--pair", SQRT2_PAIR])
    assert code == 0, err
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["scalar_field"] = {"kind": "float", "tolerance": 1e-9}
    values = parse_input(json.dumps(raw)).metric_values
    scalars = ([c for row in values for c in row] if mtype == "gram"
               else list(values.values()))
    assert scalars and all(c.re.is_float and c.im.is_float for c in scalars)


def test_bad_default_field_env_is_input_error(qbal12_file, monkeypatch):
    monkeypatch.setenv("HHA_DEFAULT_FIELD", "quadratic:x")
    code, _, err = run_cli(["check", qbal12_file])
    assert code == 2
    assert "$HHA_DEFAULT_FIELD" in err


@pytest.mark.parametrize("tolerance, code", [(0.5, 2), (1e-9, 0)])
def test_declared_float_tolerance_is_fixed(qbal12_file, tolerance, code):
    # a tolerance the float backend would not apply is refused, not echoed
    with open(qbal12_file, encoding="utf-8") as fh:
        data = json.load(fh)
    data["scalar_field"] = {"kind": "float", "tolerance": tolerance}
    with open(qbal12_file, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    result, _, err = run_cli(["classify", qbal12_file, "--format", "json"])
    assert result == code
    assert ("$.scalar_field.tolerance" in err) == bool(code)


@pytest.mark.parametrize("value, code", [("float:0.5", 2), ("float:1e-9", 2), ("float", 0)])
def test_default_field_env_takes_no_tolerance(qbal12_file, monkeypatch, value, code):
    with open(qbal12_file, encoding="utf-8") as fh:
        data = json.load(fh)
    del data["scalar_field"]
    with open(qbal12_file, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("HHA_DEFAULT_FIELD", value)
    result, out, err = run_cli(["check", qbal12_file])
    assert result == code
    if code:
        assert "$HHA_DEFAULT_FIELD" in err
    else:
        assert "ScalarField(float, tol=1e-09)" in out


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


def _identity_gram(r, s, entry):
    gram = [[["1", "0"] if i == j else ["0", "0"] for j in range(6)] for i in range(6)]
    gram[r][s] = entry
    return gram


@pytest.mark.parametrize("args, metric, location", [
    (["construct", "joyce", "--blocks", "a"], None, "--blocks"),
    (["construct", "bf", "FILE", "--rep", "spin", "--su2", "1,2"], None, "--su2"),
    (["certify-qbal", "FILE", "--witness", "(1/0)*z1"], None, "--witness"),
    (["classify", "FILE"], {"type": "diagonal", "entries": ["sqrt(2)", "1", "1"]},
     "$.metric.entries[0]"),
    (["classify", "FILE"], {"type": "gram", "entries": [["1"]] * 6},
     "$.metric.entries"),
    (["search", "FILE", "--predicate", "hkt", "--height", "0"], None, "--height"),
    (["search", "FILE", "--predicate", "hkt", "--height", "-2",
      "--family", "full"], None, "--height"),
    # JSON true is not the integer 1: not as an index, a coefficient or an entry
    (["check", "FILE"], {"structure_equations": {"10": [[True, 5, "1"]]}},
     "$.structure_equations.10[0]"),
    (["check", "FILE"], {"structure_equations": {"10": [[1, 6, True]]}},
     "$.structure_equations.10[0]"),
    (["check", "FILE"], {"type": "diagonal", "entries": [True, "1", "1"]},
     "$.metric.entries[0]"),
    # two labels of one generator are refused, not merged or overwritten
    (["check", "FILE"], {"structure_equations": {"3": [[1, 2, "-1"]], "03": [[1, 2, "-1"]]}},
     "$.structure_equations.03"),
    (["check", "FILE"], {"structure_equations": {"03": [[1, 2, "-1"]], "3": [[1, 2, "-1"]]}},
     "$.structure_equations.3"),
    # a radicand is a JSON integer, neither truncated nor read from a string
    (["check", "FILE"], {"scalar_field": {"kind": "quadratic", "d": 2.9}}, "$.scalar_field.d"),
    (["check", "FILE"], {"scalar_field": {"kind": "quadratic", "d": "5"}}, "$.scalar_field.d"),
    (["check", "FILE"], {"scalar_field": {"kind": "quadratic", "d": True}}, "$.scalar_field.d"),
    # a Gram matrix that is not hyperhermitian-compatible names its first
    # failing entry in row-major order: G[0][0] against G[1][1], G[0][2]
    # against G[3][1] (also when G[3][1] is the entry edited), and G[0][1],
    # which must vanish
    (["classify", "FILE"], {"type": "gram", "entries": _identity_gram(0, 0, ["-100", "0"])},
     "$.metric.entries[0][0]"),
    (["classify", "FILE"], {"type": "gram", "entries": _identity_gram(0, 2, ["1", "0"])},
     "$.metric.entries[0][2]"),
    (["classify", "FILE"], {"type": "gram", "entries": _identity_gram(0, 1, ["0", "1"])},
     "$.metric.entries[0][1]"),
    (["classify", "FILE"], {"type": "gram", "entries": _identity_gram(3, 1, ["1", "0"])},
     "$.metric.entries[0][2]"),
    # digits are ASCII only, and a float scalar is finite
    (["check", "FILE"], {"structure_equations": {"10": [[1, 6, "\u0661"]]}},
     "$.structure_equations.10[0]"),
    (["check", "FILE"], {"type": "diagonal", "entries": ["1", "\uff11", "1"]},
     "$.metric.entries[1]"),
    (["classify", "FILE"], {"scalar_field": {"kind": "float"},
                            "metric": {"type": "gram",
                                       "entries": _identity_gram(2, 2, ["float:nan", "0"])}},
     "$.metric.entries[2][2]"),
    (["classify", "FILE"], {"scalar_field": {"kind": "float"},
                            "metric": {"type": "diagonal", "entries": ["1", "float:inf", "1"]}},
     "$.metric.entries[1]"),
    # an su(2) triple is three distinct basis indices with [e_a, e_b] having
    # an e_c part
    (["construct", "bf", "FILE", "--rep", "spin", "--su2", "0,2,3"], None, "--su2"),
    (["construct", "bf", "FILE", "--rep", "spin", "--su2", "1,2,13"], None, "--su2"),
    (["construct", "bf", "FILE", "--rep", "spin", "--su2", "1,1,2"], None, "--su2"),
    (["construct", "bf", "FILE", "--rep", "spin", "--su2", "2,3,4"], None, "--su2"),
])
def test_bad_option_or_entry_is_input_error(qbal12_file, args, metric, location):
    if metric is not None:
        with open(qbal12_file, encoding="utf-8") as fh:
            data = json.load(fh)
        if "type" in metric:
            data["metric"] = metric
        else:  # other top-level fields to replace
            data.update(metric)
        with open(qbal12_file, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    code, _, err = run_cli([qbal12_file if a == "FILE" else a for a in args])
    assert code == 2
    assert location in err


@pytest.mark.parametrize("entry, message", [
    # not Hermitian, although hyperhermitian-compatible: G[0][0] = G[1][1] = 1 + i
    (["1", "1"], "$.metric.entries[0][0]: matrix is not Hermitian"),
    # Hermitian and compatible, but not positive
    (["-1", "0"], "$.metric.entries: metric form is not q-positive"),
    # Hermitian and compatible, but singular
    (["0", "0"], "$.metric.entries: metric form is not q-positive"),
])
def test_a_gram_matrix_that_is_no_metric_is_refused_at_its_entries(qbal12_file, entry,
                                                                   message):
    gram = _identity_gram(1, 1, entry)
    gram[0][0] = entry
    with open(qbal12_file, encoding="utf-8") as fh:
        data = json.load(fh)
    data["metric"] = {"type": "gram", "entries": gram}
    with open(qbal12_file, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    code, _, err = run_cli(["classify", qbal12_file])
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("field", ["quadratic:\u0665", "quadratic:1_1", "quadratic:+5",
                                   "quadratic: 5"])
def test_the_default_field_radicand_takes_ascii_digits_only(qbal12_file, monkeypatch, field):
    with open(qbal12_file, encoding="utf-8") as fh:
        data = json.load(fh)
    del data["scalar_field"]
    with open(qbal12_file, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("HHA_DEFAULT_FIELD", field)
    code, _, err = run_cli(["check", qbal12_file])
    assert code == 2
    assert err.startswith("error: $HHA_DEFAULT_FIELD: cannot interpret")


@pytest.mark.parametrize("args, location", [
    (["construct", "bf", "JOYCE", "--rep", "spin", "--su2", "\u0662,\u0663,\u0664"], "--su2"),
    (["construct", "bf", "JOYCE", "--rep", "spin", "--su2", "1_0,2,3"], "--su2"),
    (["construct", "joyce", "--blocks", "\u0660,\u0660"], "--blocks"),
    (["construct", "joyce", "--blocks", "0_0"], "--blocks"),
    (["certify-qbal", "QSG", "--witness", "2*z\u0665"], "--witness"),
])
def test_option_integers_take_ascii_digits_only(tmp_path, args, location):
    files = {}
    for key, name in (("JOYCE", "joyce_su2"), ("QSG", "qsg12")):
        if key in args:
            _, out, _ = run_cli(["catalog", "export", name])
            files[key] = tmp_path / f"{name}.json"
            files[key].write_text(out)
    code, out, err = run_cli([str(files.get(a, a)) for a in args])
    assert code == 2
    assert err.startswith(f"error: {location}: ")
    assert out == ""


def _run_document(tmp_path, doc, command, *options):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run_cli([command, str(path), *options])


@pytest.mark.parametrize("label", ["1_0", "+2", " 3", "\u0661"])
def test_a_generator_label_takes_ascii_digits_only(tmp_path, label):
    doc = {"name": "labels", "dimension": 12, "structure_equations": {label: []}}
    code, out, err = _run_document(tmp_path, doc, "check")
    assert code == 2 and out == ""
    assert err == f"error: $.structure_equations.{label}: generator label must be an integer\n"


@pytest.mark.parametrize("dim, terms", [
    # 5 - 4 on one pair: the unitary form, not the last term alone
    (4, [[1, 2, "5", "0"], [1, 2, "-4", "0"]]),
    # an explicit zero term stores no coefficient
    (8, [[1, 2, "1", "0"], [3, 4, "1", "0"], [1, 3, "0", "0"]]),
])
def test_omega_terms_sum_as_structure_terms_do(tmp_path, dim, terms):
    doc = {"name": "sums", "dimension": dim, "structure_equations": {}}
    code, unitary, err = _run_document(tmp_path, doc, "classify", "--format", "json")
    assert code == 0, err
    doc["metric"] = {"type": "omega", "terms": terms}
    code, out, err = _run_document(tmp_path, doc, "classify", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["flags"] == json.loads(unitary)["flags"]


def _standard_matrices(dim):
    cols = HypercomplexStructure.standard(dim // 4).columns
    return {label: [[scalar_str(c.get(r, ZERO)) for c in cols[label]] for r in range(dim)]
            for label in ("I", "J")}


def test_explicit_standard_matrices_classify_as_standard(tmp_path):
    doc = {"name": "explicit", "dimension": 8, "structure_equations": {}}
    _, standard, _ = _run_document(tmp_path, doc, "classify", "--format", "json")
    doc["hypercomplex"] = _standard_matrices(8)
    code, out, err = _run_document(tmp_path, doc, "classify", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["flags"] == json.loads(standard)["flags"]


@pytest.mark.parametrize("entry", ["sqrt(2)", True, "float:0.0", "1/0", [1]])
def test_a_bad_structure_entry_is_an_input_error_at_its_entry(tmp_path, entry):
    doc = {"name": "entries", "dimension": 4, "structure_equations": {},
           "hypercomplex": _standard_matrices(4)}
    doc["hypercomplex"]["J"][1][2] = entry
    code, out, err = _run_document(tmp_path, doc, "check")
    assert code == 2 and out == ""
    assert err.startswith("error: $.hypercomplex.J[1][2]: "), err


# exact scalars too large for a float: the division in the conversion
# overflows, or the two parts convert and their sum does not
_HUGE = "1" + "0" * 400
_INFINITE_SUM = "1" + "0" * 308 + "+" + "1" + "0" * 308 + "*sqrt(2)"


def _huge_entry_document(where, huge):
    doc = {"name": "huge", "dimension": 12, "scalar_field": {"kind": "float"},
           "structure_equations": {}}
    if where == "structure":
        doc["structure_equations"] = {"3": [[1, 2, huge]]}
    elif where == "diagonal":
        doc["metric"] = {"type": "diagonal", "entries": [huge, "1", "1"]}
    elif where in ("omega re", "omega im"):
        terms = _unitary_terms()
        terms[1][2 if where == "omega re" else 3] = huge
        doc["metric"] = {"type": "omega", "terms": terms}
    elif where == "gram":
        doc["metric"] = {"type": "gram", "entries": _identity_gram(2, 3, ["0", huge])}
    else:
        doc["dimension"] = 4
        doc["hypercomplex"] = _standard_matrices(4)
        doc["hypercomplex"][where][3][2] = huge
    return doc


@pytest.mark.parametrize("huge", [_HUGE, _INFINITE_SUM], ids=["1e400", "overflowing-sum"])
@pytest.mark.parametrize("where, location", [
    ("structure", "$.structure_equations.3[0]"),
    ("diagonal", "$.metric.entries[0]"),
    ("omega re", "$.metric.terms[1]"),
    ("omega im", "$.metric.terms[1]"),
    ("gram", "$.metric.entries[2][3]"),
    ("I", "$.hypercomplex.I[3][2]"),
    ("J", "$.hypercomplex.J[3][2]"),
])
def test_a_float_document_refuses_a_scalar_too_large_for_a_float(tmp_path, where, location,
                                                                  huge):
    doc = _huge_entry_document(where, huge)
    code, out, err = _run_document(tmp_path, doc, "classify", "--format", "json")
    assert code == 2 and out == "", err
    assert err == f"error: {location}: coefficient {huge!r} is too large for a float\n"


def test_float_mode_refuses_a_scalar_too_large_for_a_float(tmp_path):
    """An exact document that ``--float`` turns into floats."""
    doc = _huge_entry_document("diagonal", _HUGE)
    del doc["scalar_field"]
    code, out, err = _run_document(tmp_path, doc, "classify", "--float")
    assert code == 2 and out == ""
    assert err.startswith("error: $.metric.entries[0]: coefficient "), err


_TINY = "1/1" + "0" * 400


@pytest.mark.parametrize("route", ["--float", "scalar_field"])
def test_a_float_run_refuses_a_nonzero_scalar_that_underflows_to_zero(tmp_path, route):
    """1/10^400 becomes 0.0 as a float: an input error at its entry, not a
    metric that fails q-reality; the exact run classifies it."""
    _, export, _ = run_cli(["catalog", "export", "qsg12"])
    doc = json.loads(export)
    doc["metric"] = {"type": "diagonal", "entries": [_TINY, "1", "1"]}
    code, out, err = _run_document(tmp_path, doc, "classify", "--format", "json")
    assert code == 0, err
    options = ["--float"]
    if route == "scalar_field":
        doc["scalar_field"] = {"kind": "float"}
        options = []
    code, out, err = _run_document(tmp_path, doc, "classify", *options)
    assert code == 2 and out == ""
    assert err == f"error: $.metric.entries[0]: coefficient {_TINY!r} is too small for a float\n"


@pytest.mark.parametrize("entry", ["1" * 2200, "1/" + "3" * 4200],
                         ids=["2200-digits", "4200-digit-denominator"])
def test_an_exact_input_whose_results_pass_the_printed_digit_limit_classifies(tmp_path,
                                                                              entry):
    """Python prints no int of more than 4,300 digits by default; each input
    here is under that limit, and its report prints ints over it."""
    _, export, _ = run_cli(["catalog", "export", "qsg12"])
    doc = json.loads(export)
    doc["metric"] = {"type": "diagonal", "entries": [entry, "1", "1"]}
    for options in (["--format", "json"], ["--format", "text"]):
        code, out, err = _run_document(tmp_path, doc, "classify", *options)
        assert code == 0, err
        assert re.search(r"\d{4301}", out)


# sha256 of `classify --format json` on qsg12 under a rotated pair, as explicit
# float matrices: recorded when the frame still inverted [P | 1] by its own
# elimination, so the float rounding of the coframe read off the adapted
# basis is checked against it
_ROTATED_FLOAT_DIGESTS = {
    "thirds": "460d522788d82d1ade01b29edd17054ed89f2c51a3b4c9781ae83356a561bea4",
    "sqrt2": "79b8727ea103037aab469e8c6af2bcf7a9f023c432abdd86b702be7d380d64f7",
}
_ROTATIONS = {
    "thirds": (SpherePoint(rational(1, 3), rational(2, 3), rational(2, 3)),
               SpherePoint(rational(2, 3), rational(1, 3), rational(-2, 3))),
    "sqrt2": (SpherePoint(HALF * root(2), HALF * root(2), 0), SpherePoint(0, 0, 1)),
}


@pytest.mark.parametrize("pair", sorted(_ROTATIONS))
def test_a_float_document_with_rotated_matrices_keeps_its_bytes(tmp_path, pair):
    geometry, _ = get_example("qsg12").load()
    rotated = geometry.rotated(*_ROTATIONS[pair])
    doc = geometry_to_input("qsg12", rotated, Metric.unitary(rotated))
    assert doc["hypercomplex"] != "standard"
    doc["scalar_field"] = {"kind": "float"}
    code, out, err = _run_document(tmp_path, doc, "classify", "--format", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == _ROTATED_FLOAT_DIGESTS[pair]


def _unitary_terms(**edit):
    terms = [[1, 2, "1", "0"], [3, 4, "1", "0"], [5, 6, "1", "0"]]
    for index, value in edit.items():
        terms[int(index[1:])][2] = value
    return terms


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


def test_an_input_at_the_cap_classifies(tmp_path):
    from hha.documents import MAX_DIMENSION
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"name": "cap", "dimension": MAX_DIMENSION,
                                "structure_equations": {}}))
    code, out, err = run_cli(["classify", str(path), "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["flags"]["hyperkaehler"]["value"] is True


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


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_budget_below_one_is_input_error(qbal12_file, budget):
    code, out, err = run_cli(["search", qbal12_file, "--predicate", "hkt", "--budget", budget])
    assert (code, out) == (2, "")
    assert err == f"error: --budget: expected a positive integer, got {budget}\n"


def test_search_large_height_stops_at_the_budget(tmp_path):
    # the height grid is built in O(height^2), and the budget ends the
    # search before the off-diagonal points of the full family
    code, out, _ = run_cli(["catalog", "export", "qgau8"])
    path = tmp_path / "qgau8.json"
    path.write_text(out)
    code, out, _ = run_cli([
        "search", str(path), "--predicate", "q_strongly_gauduchon",
        "--height", "400", "--budget", "1", "--family", "full",
    ])
    assert code == 0
    assert out == "no witness (budget reached; 1 metrics tested)\n"


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


@pytest.mark.parametrize("args", [
    ["an", "QBAL", "QSG", "--e1", "2", "--e2", "2"],
    ["bf", "QBAL", "--rep", "zero", "--k", "2"],
    ["joyce", "--su3", "--name", "su3"],   # over Q(sqrt 3)
])
def test_construct_prints_the_full_report_of_what_it_writes(tmp_path, args):
    """The report construct prints is the one classify gives for its --out
    file, in every key: its name, input hash and scalar field too."""
    files = {}
    for key, entry in (("QBAL", "qbal12"), ("QSG", "qsg12")):
        files[key] = tmp_path / f"{entry}.json"
        files[key].write_text(run_cli(["catalog", "export", entry])[1])
    built = tmp_path / "built.json"
    code, out, _ = run_cli(["construct", *(str(files.get(a, a)) for a in args),
                            "--out", str(built), "--format", "json"])
    assert code == 0
    printed = json.loads(out[out.index("{"):])
    code, out, _ = run_cli(["classify", str(built), "--format", "json"])
    assert code == 0
    classified = json.loads(out)
    assert printed == classified
    assert printed["skt"] and printed["obstruction"] is not None
    assert printed["name"] == (args[-1] if "--name" in args else "constructed")
    assert printed["scalar_field"] == ({"kind": "quadratic", "d": 3} if "--su3" in args
                                       else {"kind": "rational"})


def test_entry_point_runs_as_subprocess(qbal12_file):
    # the child does not inherit this process's sys.path: put the directory
    # holding the imported hha package on its PYTHONPATH
    src = os.path.dirname(os.path.dirname(hha.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "hha.cli", "classify", qbal12_file],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "q_balanced" in result.stdout


@pytest.mark.parametrize("args, location", [
    (["construct", "an", "FILE"], "construct an"),
    (["construct", "an", "FILE", "FILE", "FILE"], "construct an"),
    (["construct", "bf"], "construct bf"),
    (["construct", "joyce", "FILE", "--su3"], "construct joyce"),
    (["construct", "bf", "FILE", "--k", "-1"], "--k"),
    (["construct", "bf", "FILE", "--k", "0"], "--k"),
    # a gluing index is a basis index of its own factor
    (["construct", "an", "FILE", "FILE", "--e1", "0"], "--e1"),
    (["construct", "an", "FILE", "FILE", "--e1", "99"], "--e1"),
    (["construct", "an", "FILE", "FILE", "--e2", "13"], "--e2"),
    (["construct", "an", "FILE", "FILE", "--e2", "-1"], "--e2"),
    # a block count is read only by the zero representation
    (["construct", "bf", "FILE", "--rep", "spin", "--k", "3"], "--k"),
    (["construct", "an", "FILE", "FILE", "--k", "2"], "--k"),
    (["construct", "joyce", "--su3", "--k", "2"], "--k"),
    (["construct", "joyce", "--blocks", "0,0", "--su3"], "--blocks"),
    # every other option is read by one kind only, and refused elsewhere
    (["construct", "joyce", "--su3", "--rep", "spin", "--e1", "7", "--su2", "1,2"], "--e1"),
    (["construct", "joyce", "--su3", "--e2", "2"], "--e2"),
    (["construct", "joyce", "--su3", "--rep", "zero"], "--rep"),
    (["construct", "joyce", "--su3", "--su2", "2,3,4"], "--su2"),
    (["construct", "an", "FILE", "FILE", "--rep", "spin"], "--rep"),
    (["construct", "an", "FILE", "FILE", "--k", "1"], "--k"),
    (["construct", "an", "FILE", "FILE", "--su3"], "--su3"),
    (["construct", "bf", "FILE", "--e1", "2"], "--e1"),
    (["construct", "bf", "FILE", "--su2", "2,3,4"], "--su2"),
    (["construct", "bf", "FILE", "--rep", "zero", "--su2", "2,3,4"], "--su2"),
    (["construct", "bf", "FILE", "--rep", "spin", "--k", "1"], "--k"),
    (["construct", "bf", "FILE", "--blocks", "0"], "--blocks"),
])
def test_construct_bad_inputs_are_input_errors(qbal12_file, args, location):
    code, out, err = run_cli([qbal12_file if a == "FILE" else a for a in args])
    assert code == 2
    assert err.startswith(f"error: {location}: ")
    assert out == ""


@pytest.mark.parametrize("data, location", [
    ({"structure_equations": {"10": [[1, 6, "sqrt(1000000000000000003)"]]}},
     "$.structure_equations.10[0]"),
    ({"scalar_field": {"kind": "quadratic", "d": 10**18 + 3}}, "$.scalar_field"),
])
def test_a_radicand_above_the_bound_is_input_error(qbal12_file, data, location):
    with open(qbal12_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(data)
    with open(qbal12_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, _, err = run_cli(["check", qbal12_file])
    assert code == 2
    assert location in err and "above the supported maximum" in err
