import json

import pytest

from hha import documents
from hha.catalog import get_example
from hha.documents import (
    InputError,
    default_field_from_env,
    geometry_to_input,
    load_document,
    parse_input,
    report_document,
    report_json,
)
from hha.classify import classify_metric
from hha.hermitian import Metric
from hha.hypercomplex import Geometry, IntegrabilityError
from hha.liealg import LieAlgebraData
from hha.scalars import rational, scalar_str


def minimal(dim=4, **over):
    doc = {
        "name": "t",
        "dimension": dim,
        "structure_equations": {},
        "metric": {"type": "diagonal_unitary"},
    }
    doc.update(over)
    return doc


def test_parse_minimal():
    doc = parse_input(json.dumps(minimal()))
    geom, metric = load_document(doc)
    assert geom.algebra.dim == 4
    assert metric.pf.is_real()


@pytest.mark.parametrize("metric", [
    {"type": "diagonal", "entries": ["3/2"]},
    {"type": "omega", "terms": [[1, 2, "3/2", "0"]]},
    {"type": "gram", "entries": [[["3/2", "0"], ["0", "0"]], [["0", "0"], ["3/2", "0"]]]},
])
def test_metric_scalars_are_parsed_once(metric, monkeypatch):
    doc = parse_input(json.dumps(minimal(metric=metric)))

    def refuse(text):
        raise AssertionError(f"{text!r} parsed a second time")

    monkeypatch.setattr(documents, "parse_scalar", refuse)
    geom, m = load_document(doc)
    assert m.omega == Metric.diagonal(geom, [rational(3, 2)]).omega


def test_dimension_must_be_multiple_of_four():
    with pytest.raises(InputError, match="multiple of 4"):
        parse_input(json.dumps(minimal(dim=6)))


def test_exactly_one_bracket_representation():
    bad = minimal()
    bad["brackets"] = []
    with pytest.raises(InputError, match="exactly one"):
        parse_input(json.dumps(bad))
    bad = minimal()
    del bad["structure_equations"]
    with pytest.raises(InputError, match="exactly one"):
        parse_input(json.dumps(bad))


def test_coefficient_parse_error_carries_location():
    bad = minimal()
    bad["structure_equations"] = {"2": [[1, 2, "1/0"]]}
    with pytest.raises(InputError) as exc:
        parse_input(json.dumps(bad))
    assert "structure_equations" in str(exc.value)


def test_field_membership_enforced():
    bad = minimal()
    bad["scalar_field"] = {"kind": "rational"}
    bad["structure_equations"] = {"2": [[1, 2, "sqrt(2)"]]}
    with pytest.raises(InputError, match="scalar field"):
        parse_input(json.dumps(bad))


def test_brackets_representation():
    from hha.scalars import rational
    doc = parse_input(json.dumps({
        "name": "b",
        "dimension": 4,
        "brackets": [[1, 2, [[2, "-1"]]], [1, 3, [[3, "-1"]]], [1, 4, [[4, "-1"]]]],
        "metric": {"type": "diagonal_unitary"},
    }))
    geom, _ = load_document(doc)
    assert geom.algebra.bracket_basis(0, 1) == {1: rational(-1)}


@pytest.mark.parametrize("brackets", [
    [[1, 2, [[3, "1"]]], [1, 2, [[3, "1"]]]],
    [[1, 2, [[3, "1"], [3, "1"]]]],
    [[1, 2, [[3, "1"]]], [2, 1, [[3, "-1"]]]],
])
def test_repeated_bracket_terms_are_summed(brackets):
    # [e1, e2] = 2 e3 in each form, and d e^3 = -2 e^1 ^ e^2 in its
    # structure-equation twin; the standard structure is not integrable on
    # it, so both fail with the same Nijenhuis value
    twin = minimal(structure_equations={"3": [[1, 2, "-1"], [1, 2, "-1"]]})
    with pytest.raises(IntegrabilityError) as expected:
        load_document(parse_input(json.dumps(twin)))
    assert "{e3: -2}" in str(expected.value)
    doc = minimal(brackets=brackets)
    del doc["structure_equations"]
    with pytest.raises(IntegrabilityError) as exc:
        load_document(parse_input(json.dumps(doc)))
    assert str(exc.value) == str(expected.value)


def test_halved_terms_load_the_catalog_brackets():
    # every term of qsg12 given twice with half its coefficient, in both forms
    geom, metric = get_example("qsg12").load()
    alg, half = geom.algebra, rational(1, 2)
    data = geometry_to_input("qsg12", geom, metric)
    eqs = {str(k + 1): [[i + 1, j + 1, scalar_str(c * half)] for (i, j, c) in terms for _ in "ab"]
           for k, terms in alg.structure_equations().items()}
    brackets = [[i + 1, j + 1, [[k + 1, scalar_str(c * half)] for k, c in comps.items()]]
                for (i, j), comps in alg.brackets.items() for _ in "ab"]
    from_brackets = {key: v for key, v in data.items() if key != "structure_equations"}
    for doc in (dict(data, structure_equations=eqs), dict(from_brackets, brackets=brackets)):
        assert load_document(parse_input(json.dumps(doc)))[0].algebra.brackets == alg.brackets


def test_metric_variants(tmp_path):
    base = minimal(dim=8)
    base["metric"] = {"type": "diagonal", "entries": ["2", "1/3"]}
    geom, metric = load_document(parse_input(json.dumps(base)))
    assert metric.gram[0][0].re == 2 ** -1 or metric.gram[0][0].re  # positive
    base["metric"] = {"type": "omega",
                      "terms": [[1, 2, "2", "0"], [3, 4, "1/3", "0"]]}
    geom2, metric2 = load_document(parse_input(json.dumps(base)))
    assert metric2.omega == metric.omega
    # gram round trip
    gram = [[(str(metric.gram[r][s].re), str(metric.gram[r][s].im))
             for s in range(4)] for r in range(4)]
    base["metric"] = {"type": "gram", "entries": gram}
    _, metric3 = load_document(parse_input(json.dumps(base)))
    assert metric3.omega == metric.omega


def test_diagonal_entries_must_be_positive():
    bad = minimal(dim=8)
    bad["metric"] = {"type": "diagonal", "entries": ["1", "-2"]}
    with pytest.raises(InputError, match="positive"):
        parse_input(json.dumps(bad))


def test_default_field_env():
    assert default_field_from_env(None) is None
    assert default_field_from_env("rational") == {"kind": "rational"}
    assert default_field_from_env("quadratic:2") == {"kind": "quadratic", "d": 2}
    assert default_field_from_env("float")["kind"] == "float"
    doc = parse_input(json.dumps({
        "name": "t", "dimension": 4, "structure_equations": {},
        "metric": {"type": "diagonal_unitary"},
    }), default_field={"kind": "quadratic", "d": 2})
    assert doc.field.kind == "quadratic"


def test_sha_is_stable():
    doc1 = parse_input(json.dumps(minimal()))
    doc2 = parse_input(json.dumps(minimal()))
    assert doc1.sha256() == doc2.sha256()


def test_geometry_to_input_round_trip():
    geom = Geometry.standard(LieAlgebraData.abelian(8))
    metric = Metric.unitary(geom)
    data = geometry_to_input("flat", geom, metric)
    doc = parse_input(json.dumps(data))
    geom2, metric2 = load_document(doc)
    assert geom2.algebra.brackets == geom.algebra.brackets
    assert metric2.omega == metric.omega
    assert data["hypercomplex"] == "standard"


def test_report_document_scalars_are_strings():
    geom = Geometry.standard(LieAlgebraData.abelian(4))
    metric = Metric.unitary(geom)
    rep = classify_metric(metric)
    doc = parse_input(json.dumps(minimal()))
    out = report_document(rep, doc, frame=geom.frame)
    assert isinstance(out["s_ch"], str)
    assert isinstance(out["einstein_factor"], str)
    text = report_json(out)
    assert json.loads(text)["s_ch"] == "0"
    assert text == report_json(out)  # deterministic
