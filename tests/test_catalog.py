import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import nil12_qbal, nil12_qsg, nil_qgau, solv_third
from hha.catalog import (
    UnknownEntryError,
    _wedge_words,
    check_entry,
    entry_names,
    get_example,
    run_report,
)
from hha.documents import load_document, parse_input
from hha.forms import Form
from hha.hypercomplex import ComplexFrame
from hha.scalars import C_I, C_ONE, rational


def test_entry_names_cover_spec_list():
    names = set(entry_names())
    expected = {
        "qbal12", "qbal16", "qbal20",
        "qsg12", "qsg16", "qsg20",
        "qgau8", "qgau12", "qgau16", "qgau20", "qgau24",
        "solv_aff_c", "solv_rank1", "solv_third",
        "joyce_su2", "joyce_su2xsu2", "joyce_su3",
        "abelian4", "abelian8", "abelian12", "abelian16",
    }
    assert expected <= names


def test_unknown_entry_raises():
    with pytest.raises(UnknownEntryError):
        get_example("not_a_thing")


def test_catalog_algebras_match_independent_encodings():
    # the catalog input documents reproduce the independently coded algebras
    cases = {
        "qbal12": nil12_qbal(),
        "qsg12": nil12_qsg(),
        "qgau8": nil_qgau(2),
        "qgau16": nil_qgau(4),
        "solv_third": solv_third(),
    }
    for name, reference in cases.items():
        entry = get_example(name)
        geom, _ = entry.load()
        assert geom.algebra.brackets == reference.brackets, name


def test_entry_round_trips_through_serialization():
    for name in ("qbal12", "qsg16", "solv_aff_c"):
        entry = get_example(name)
        text = json.dumps(entry.input_data)
        doc = parse_input(text)
        geom, metric = load_document(doc)
        geom2, metric2 = entry.load()
        assert geom.algebra.brackets == geom2.algebra.brackets
        assert metric.omega == metric2.omega


def test_selected_entries_pass():
    for name in ("qbal12", "qsg12", "qgau8", "solv_rank1", "joyce_su2", "abelian8"):
        outcome = check_entry(get_example(name))
        assert outcome.passed, [
            (c.label, c.detail) for c in outcome.checks if not c.passed
        ]


def test_run_report_orders_by_name():
    outcomes = run_report(["qsg12", "qbal12"])
    assert [o.name for o in outcomes] == ["qbal12", "qsg12"]


def wedge_chain(geom, degree, terms):
    """The printed words as a chain of ``Form.wedge`` on fresh monomials, the
    route ``_wedge_words`` replaced."""
    dim = geom.algebra.dim
    total = Form.zero(dim, degree)
    for c, word in terms:
        prod = Form.constant(dim, c)
        for kind, idx in word:
            prod = prod.wedge(geom.zeta(idx) if kind == "z" else geom.zeta_bar(idx))
        total = total + prod
    return total


_WORDS_GEOMETRY = get_example("qgau12").load()[0]   # N = 6
_letters = st.tuples(st.sampled_from(("z", "zb")), st.integers(1, 6))
_coefficients = st.builds(lambda p, q, imag: rational(p, q) * (C_I if imag else C_ONE),
                          st.integers(-3, 3), st.integers(1, 3), st.booleans())


@settings(max_examples=200, deadline=None, database=None)
@given(degree=st.integers(0, 5), data=st.data())
def test_wedge_words_equal_the_wedge_chain(degree, data):
    """Random words of one length, repeated letters (a zero word) included."""
    word = st.lists(_letters, min_size=degree, max_size=degree)
    terms = data.draw(st.lists(st.tuples(_coefficients, word), max_size=4))
    got = _wedge_words(_WORDS_GEOMETRY, degree, terms)
    assert got == wedge_chain(_WORDS_GEOMETRY, degree, terms)
    assert got.degree == degree


@pytest.mark.parametrize("name", entry_names())
def test_each_metric_level_differential_is_formed_once(name, monkeypatch):
    """Checking an entry applies del to Omega and to Omega^{n-1}, del_J to
    alpha and d to eta once each: the metric keeps them for every reader."""
    calls = []
    for op in ("d", "del_", "del_j"):
        def counting(frame, form, _op=op, _original=getattr(ComplexFrame, op)):
            calls.append((_op, form))
            return _original(frame, form)
        monkeypatch.setattr(ComplexFrame, op, counting)
    entry = get_example(name)
    loaded = []
    monkeypatch.setattr(entry, "load", lambda _load=entry.load: loaded.append(_load()) or loaded[0])
    check_entry(entry)
    metric = loaded[0][1]
    cf = metric.canonical_forms()
    for op, form in (("del_", metric.omega), ("del_", metric.omega_power(metric.n - 1)),
                     ("del_j", cf.alpha), ("d", cf.eta)):
        assert sum(o == op and f is form for o, f in calls) == 1, op
