"""The integer lane of ``forms.leibniz_differential`` against the tuple route.

A compiled ``DerivationTable`` runs the derivation on int numerators over
one common denominator; the scalar objects are multiplied only for what the
lane cannot take (a float coefficient, or two radicands).  Both routes must
give the tuple route's keys, signs, values and insertion order, because the
float backend sums in that order.
"""
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hha import forms
from hha.catalog import entry_names, get_example
from hha.classify import classify_metric
from hha.forms import DerivationTable, Form, indices, leibniz_differential, mask
from hha.scalars import (
    ComplexScalar,
    FieldMismatchError,
    floating,
    rational,
    root,
)
import tuple_keys

# (radicand of the form, radicand of the table); 0 is Q
FIELDS = ((0, 0), (2, 2), (5, 5), (0, 2), (2, 0), (0, 5), (5, 0))


@contextmanager
def object_route_calls():
    """Count the calls of the object route while the block runs."""
    calls = []
    original = forms._object_route

    def counting(form, table):
        calls.append(form)
        return original(form, table)

    with mock.patch.object(forms, "_object_route", counting):
        yield calls


def _tuple_route(form: Form, table) -> list:
    terms = tuple_keys.leibniz_differential(
        tuple_keys.tuple_terms(form), [tuple_keys.tuple_terms(t) for t in table])
    return list(terms.items())


def _items(form: Form) -> list:
    return list(tuple_keys.tuple_terms(form).items())


@st.composite
def scalars(draw, d: int):
    """Small exact scalars of Q or Q(sqrt d), over small denominators."""
    a = rational(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3))))
    return a + root(d) * rational(draw(st.integers(-2, 2)), draw(st.sampled_from((1, 2)))) if d else a


@st.composite
def coefficients(draw, d: int):
    c = ComplexScalar(draw(scalars(d)), draw(scalars(d)) if draw(st.booleans()) else 0)
    return c if not c.is_zero() else ComplexScalar(1)


@st.composite
def lane_cases(draw):
    """A form and a table, each over Q, Q(sqrt 2) or Q(sqrt 5).

    At most eight symbols and few distinct coefficients, so that keys meet;
    one draw in two is forced to cancel a key and then reach it again.
    """
    nsym = draw(st.integers(3, 8))
    d_form, d_table = draw(st.sampled_from(FIELDS))
    table = []
    for _ in range(nsym):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            i, j = sorted(draw(st.lists(st.integers(0, nsym - 1), min_size=2, max_size=2,
                                        unique=True)))
            terms[mask((i, j))] = draw(coefficients(d_table))
        table.append(Form(nsym, 2, terms))
    # a degree that leaves room for the two covectors of a table entry
    degree = draw(st.integers(1, nsym - 2))
    form = Form.zero(nsym, degree)
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.lists(st.integers(0, nsym - 1), min_size=degree, max_size=degree,
                            unique=True))
        form = form + Form.monomial(nsym, sorted(idx), draw(coefficients(d_form)))
    if nsym >= 6 and draw(st.booleans()):
        form, table = _cancel_then_reach_again(draw, nsym, table, d_form, d_table)
    return form, table


def _cancel_then_reach_again(draw, nsym, table, d_form, d_table):
    """Generators i, j, k with images on one pair (a, b) and the 1-form g^m:
    c_i g^i ^ g^m reaches key {a, b, m}, c_j g^j ^ g^m cancels it and
    c_k g^k ^ g^m reaches it again, after the other keys of g^i's image."""
    i, j, k, m, a, b = draw(st.permutations(range(nsym)))[:6]
    pair = mask(sorted((a, b)))
    table = list(table)
    for g in (i, j, k):
        table[g] = Form(nsym, 2, {**table[g].terms, pair: draw(coefficients(d_table))})
    c_i = draw(coefficients(d_form))
    first = leibniz_differential(Form.monomial(nsym, sorted((i, m)), c_i), DerivationTable(table))
    unit = leibniz_differential(Form.monomial(nsym, sorted((j, m))), DerivationTable(table))
    key = pair | (1 << m)
    c_j = -(first.terms[key] / unit.terms[key])
    form = (Form.monomial(nsym, sorted((i, m)), c_i) + Form.monomial(nsym, sorted((j, m)), c_j)
            + Form.monomial(nsym, sorted((k, m)), draw(coefficients(d_form))))
    return form, table


@settings(max_examples=200, deadline=None)
@given(case=lane_cases())
def test_the_lane_matches_the_tuple_route(case):
    form, table = case
    compiled = DerivationTable(table)
    assert compiled.lane is not None
    with object_route_calls() as calls:
        got = leibniz_differential(form, compiled)
    assert calls == []
    assert _items(got) == _tuple_route(form, table)
    assert got.degree == form.degree + 1


def test_a_cancelled_key_is_reached_again_in_the_object_routes_order():
    # e^0 -> e^3 ^ e^4, e^1 -> e^3 ^ e^4 + e^2 ^ e^3, e^2 -> e^3 ^ e^4 + e^0 ^ e^1
    nsym = 6
    table = [Form(nsym, 2, {mask((3, 4)): ComplexScalar(1)}),
             Form(nsym, 2, {mask((3, 4)): ComplexScalar(1), mask((2, 3)): ComplexScalar(1)}),
             Form(nsym, 2, {mask((3, 4)): ComplexScalar(root(2)),
                            mask((0, 1)): ComplexScalar(1)}),
             Form.zero(nsym, 2), Form.zero(nsym, 2), Form.zero(nsym, 2)]
    form = (Form.monomial(nsym, (1, 5)) + Form.monomial(nsym, (0, 5), -1)
            + Form.monomial(nsym, (2, 5)))
    got = leibniz_differential(form, DerivationTable(table))
    # {3, 4, 5} is reached by g^1, cancelled by g^0 and reached again by g^2
    assert [indices(k) for k in got.terms] == [(2, 3, 5), (3, 4, 5), (0, 1, 5)]
    assert _items(got) == _tuple_route(form, table)


def test_a_float_table_takes_the_object_route():
    nsym = 4
    table = [Form(nsym, 2, {mask((1, 2)): ComplexScalar(floating(0.5), floating(-1.25))}),
             Form(nsym, 2, {mask((0, 3)): ComplexScalar(floating(3.0))}),
             Form.zero(nsym, 2),
             Form(nsym, 2, {mask((0, 1)): ComplexScalar(floating(0.1))})]
    compiled = DerivationTable(table)
    assert compiled.lane is None
    form = (Form.monomial(nsym, (0,), ComplexScalar(rational(1, 3), 2))
            + Form.monomial(nsym, (3,), ComplexScalar(floating(0.7))))
    with object_route_calls() as calls:
        got = leibniz_differential(form, compiled)
    assert len(calls) == 1
    assert _items(got) == _tuple_route(form, table)
    assert all(c.re.is_float for c in got.terms.values())


def test_a_float_form_takes_the_object_route_over_a_compiled_table():
    nsym = 4
    table = [Form(nsym, 2, {mask((1, 2)): ComplexScalar(rational(1, 2), 3)})] * nsym
    form = Form.monomial(nsym, (0,), ComplexScalar(floating(0.3), floating(1.5)))
    with object_route_calls() as calls:
        got = leibniz_differential(form, DerivationTable(table))
    assert len(calls) == 1
    assert _items(got) == _tuple_route(form, table)


def test_two_radicands_still_raise_field_mismatch():
    nsym = 4
    table = [Form(nsym, 2, {mask((2, 3)): ComplexScalar(root(5))})] * nsym
    form = Form.monomial(nsym, (0,), ComplexScalar(root(2)))
    with object_route_calls() as calls, pytest.raises(FieldMismatchError):
        leibniz_differential(form, DerivationTable(table))
    assert len(calls) == 1


def test_exact_classification_never_takes_the_object_route():
    """Every differential of an exact catalog classification runs on ints, so
    a table that silently stops being compiled fails here."""
    for name in entry_names():
        geometry, metric = get_example(name).load()
        with object_route_calls() as calls:
            classify_metric(metric)
        assert calls == [], name
        frame = geometry.frame
        for table in (geometry.algebra._d_table, frame._d_table,
                      *map(frame._table, ("del", "delbar", "del_j", "delbar_j"))):
            assert table.lane is not None, name
