"""Forms made by the integer kernels against their object-built twins.

An integer kernel makes its result with ``Form.from_numerators``: a
``NumeratorForm`` keeps the int numerators and builds its scalar objects
only when ``terms`` is read.  The frame's maps ``j_action`` and
``i_action``, ``bidegree_project`` (``Form.restrict``), negation, ``==`` and
the next kernel read the numerators; ``conjugate`` reads the scalar objects.
The oracle is the object route: the same terms in a plain ``Form``, mapped on
scalar objects.
Each map must give the same keys, in the same order, with the same values;
``==`` and ``hash`` must not tell the two apart.  A float document never keeps
numerators, and a mixed-radicand operand still raises
``FieldMismatchError``.
"""
import json
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hha.catalog import entry_names, get_example
from hha.classify import classify_metric
from hha.documents import geometry_to_input, load_document, parse_input
from hha.forms import (
    DerivationTable,
    Form,
    NumeratorForm,
    bidegree_project,
    leibniz_differential,
    mask,
    numerators,
)
from hha.hermitian import Metric
from hha.hypercomplex import Geometry, HypercomplexStructure, StructureError
from hha.liealg import LieAlgebraData
from hha.scalars import ComplexScalar, FieldMismatchError, ScalarField, root
from test_geometry_oracles import SQRT2_PAIR, _sqrt2_table, _structures, two_step_tables
from test_leibniz_lane import coefficients


@contextmanager
def built_from_numerators():
    """Every form made by ``Form.from_numerators`` while the block runs."""
    made = []
    original = Form.from_numerators

    def recording(*args):
        form = original(*args)
        made.append(form)
        return form

    with mock.patch.object(Form, "from_numerators", staticmethod(recording)):
        yield made


def object_twin(form: Form) -> Form:
    return Form(form.nsym, form.degree, dict(form.terms))


def _items(form: Form) -> list:
    return list(form.terms.items())


def assert_matches_the_object_route(frame, form: Form):
    """The form, its maps and its negation equal the object route's, key by
    key and in order, and the maps that read numerators stay on them."""
    assert isinstance(form, NumeratorForm)
    twin = object_twin(form)
    assert type(twin) is Form
    assert form == twin and twin == form and not form != twin
    assert hash(form) == hash(twin)
    # (map, whether it keeps the numerators)
    maps = [(frame.conjugate, False), (lambda f: -f, True), (frame.j_action, True),
            (frame.i_action, True)]
    maps += [(lambda f, p=p: bidegree_project(f, frame.N, p, f.degree - p), True)
             for p in range(form.degree + 1)]
    for fn, kept in maps:
        got, want = fn(form), fn(twin)
        assert isinstance(got, NumeratorForm) == kept and type(want) is Form
        assert (got.nsym, got.degree) == (want.nsym, want.degree)
        assert _items(got) == _items(want)
        assert got == want


def assert_kernels_match_the_twin(frame, form: Form):
    """d, del and del_J of a numerator form give, key by key and in order,
    what they give on its object-built twin, whose numerators are read off
    its scalar objects over another denominator."""
    twin = object_twin(form)
    for op in (frame.d, frame.del_, frame.del_j):
        if form.degree < form.nsym:
            got, want = op(form), op(twin)
            assert _items(got) == _items(want)
            assert_matches_the_object_route(frame, got)


@pytest.mark.parametrize("name", entry_names())
def test_catalog_numerator_forms_match_the_object_route(name):
    """Every form the kernels make while classifying the entry."""
    geometry, metric = get_example(name).load()
    with built_from_numerators() as made:
        classify_metric(metric)
    assert made
    for form in made:
        assert_matches_the_object_route(geometry.frame, form)
    for form in made[:: max(1, len(made) // 12)]:
        assert_kernels_match_the_twin(geometry.frame, form)


@st.composite
def frame_forms(draw):
    """A frame of ``two_step_tables`` over Q or Q(sqrt 2), one of the
    structures of the geometry oracles, and a form of exact coefficients on
    it over Q or Q(sqrt 2)."""
    dim, table, _ = draw(two_step_tables())
    if draw(st.booleans()):
        alg = LieAlgebraData(dim, _sqrt2_table(table), ScalarField("quadratic", 2))
    else:
        alg = LieAlgebraData(dim, table)
    standard = HypercomplexStructure.standard(dim // 4)
    H = draw(st.sampled_from([*_structures(standard), standard.rotate_pair(*SQRT2_PAIR)]))
    degree = draw(st.integers(1, min(4, dim - 1)))   # below the top degree, which d kills
    form = Form.zero(dim, degree)
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.lists(st.integers(0, dim - 1), min_size=degree, max_size=degree,
                            unique=True))
        coeff = draw(coefficients(draw(st.sampled_from((0, 2)))))
        form = form + Form.monomial(dim, sorted(idx), coeff)
    return Geometry(alg, H, check_integrability=False).frame, form


@settings(max_examples=60, deadline=None, database=None)
@given(case=frame_forms())
def test_random_numerator_forms_match_the_object_route(case):
    frame, form = case
    try:
        frame._table("del")
    except StructureError:
        return   # I is not integrable: the frame has no del tables
    for op in (frame.d, frame.del_, frame.del_j, frame.delbar_j):
        image = op(form)
        assert_matches_the_object_route(frame, image)
        assert_kernels_match_the_twin(frame, image)


@pytest.mark.parametrize("name", ["qsg12", "joyce_su2xsu2", "qgau16"])
def test_a_float_document_never_keeps_numerators(name):
    data = geometry_to_input(name, *get_example(name).load())
    data["scalar_field"] = {"kind": "float"}
    with built_from_numerators() as made:
        _, metric = load_document(parse_input(json.dumps(data)))
        classify_metric(metric)
        assert numerators(metric.omega) is None
    assert made == []


def test_a_numerator_form_of_another_radicand_still_raises():
    # d g^0 = sqrt(2) g^1 ^ g^2, and then d g^k = sqrt(5) g^3 ^ g^4 for k >= 1
    nsym, zero = 6, Form.zero(6, 2)
    sqrt2 = DerivationTable([Form(nsym, 2, {mask((1, 2)): ComplexScalar(root(2))})]
                            + [zero] * (nsym - 1))
    sqrt5 = DerivationTable([zero] + [Form(nsym, 2, {mask((3, 4)): ComplexScalar(root(5))})]
                            * (nsym - 1))
    form = leibniz_differential(Form.monomial(nsym, (0,)), sqrt2)
    assert isinstance(form, NumeratorForm) and numerators(form)[0] == 2
    with pytest.raises(FieldMismatchError):
        leibniz_differential(form, sqrt5)
    # comparing across fields is False, as on scalar objects
    other = Form.from_numerators(nsym, 2, 5, 1, dict(numerators(form)[2]))
    assert form != other and other != form


def test_a_numerator_form_against_a_metric_of_another_radicand_still_raises():
    geometry = Geometry.standard(LieAlgebraData.abelian(8))
    metric = Metric.diagonal(geometry, [root(5) + 3, root(5) + 4])
    one = Form.from_numerators(8, 1, 2, 1, {mask((0,)): (0, 1, 0, 0)})
    two = Form.from_numerators(8, 2, 2, 1, {mask((0, 1)): (0, 1, 0, 0)})
    with pytest.raises(FieldMismatchError):
        metric.inner_product(one, one)
    with pytest.raises(FieldMismatchError):
        metric.lefschetz_adjoint(two)
