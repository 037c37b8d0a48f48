"""Forms made by the integer kernels against their object-built twins.

An integer kernel makes its result with ``Form.from_numerators``: a
``NumeratorForm`` keeps the int numerators and builds its scalar objects
only when ``terms`` is read.  The frame's maps ``conjugate``, ``j_action``
and ``i_action``, ``bidegree_project`` (``Form.restrict``), negation,
``scale``, sums and differences, ``==`` and the next kernel read the
numerators.  The oracle is the object route: the same terms in a plain
``Form``, mapped on scalar objects.
Each map must give the same keys, in the same order, with the same values;
``==`` and ``hash`` must not tell the two apart.  A float document never keeps
numerators, a float operand takes the object route, and a mixed-radicand
operand still raises ``FieldMismatchError``.
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
    keep_numerators,
    leibniz_differential,
    mask,
    numerators,
)
from hha.hermitian import Metric
from hha.hypercomplex import Geometry, HypercomplexStructure, StructureError
from hha.liealg import LieAlgebraData
from hha.scalars import (
    C_I,
    ComplexScalar,
    FieldMismatchError,
    ScalarField,
    floating,
    rational,
    root,
)
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
    maps = [(frame.conjugate, True), (lambda f: -f, True), (frame.j_action, True),
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


def _exact_over_one_field(a: Form, b: Form) -> bool:
    x, y = numerators(a), numerators(b)
    return x is not None and y is not None and not (x[0] and y[0] and x[0] != y[0])


def _plain(form: Form) -> Form:
    """The object route's operand: a plain form as it is, else its twin."""
    return form if type(form) is Form else object_twin(form)


def assert_sums_match_the_object_route(a: Form, b: Form):
    """a + b and a - b equal the sums of the plain twins, key by key and in
    order, and keep numerators exactly when an operand keeps them and both
    are exact over one field; a zero operand gives the other one back."""
    if a.is_zero() or b.is_zero():
        kept = isinstance(b if a.is_zero() else a, NumeratorForm)
    else:
        kept = (isinstance(a, NumeratorForm) or isinstance(b, NumeratorForm)) \
            and _exact_over_one_field(a, b)
    for got, want in ((a + b, _plain(a) + _plain(b)), (a - b, _plain(a) - _plain(b))):
        assert isinstance(got, NumeratorForm) == kept and type(want) is Form
        assert (got.nsym, got.degree) == (want.nsym, want.degree)
        assert _items(got) == _items(want)
        assert got == want


def assert_scale_matches_the_object_route(form: Form, c: ComplexScalar):
    got, want = form.scale(c), object_twin(form).scale(c)
    assert isinstance(got, NumeratorForm) == _exact_over_one_field(form, Form.constant(1, c))
    assert type(want) is Form and _items(got) == _items(want)


@st.composite
def operands(draw, form: Form):
    """A plain form of the degree of ``form``: some of its keys and some new
    ones, coefficients over Q or Q(sqrt 2) on small denominators, and one
    draw in four a float on one key."""
    keys = list(form.keys())
    terms = {}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else ():
        terms[key] = draw(coefficients(draw(st.sampled_from((0, 2)))))
    for _ in range(draw(st.integers(0, 2))):
        idx = draw(st.lists(st.integers(0, form.nsym - 1), min_size=form.degree,
                            max_size=form.degree, unique=True))
        terms[mask(idx)] = draw(coefficients(draw(st.sampled_from((0, 2)))))
    if terms and draw(st.integers(0, 3)) == 0:
        terms[next(iter(terms))] = ComplexScalar(floating(0.5))
    return Form(form.nsym, form.degree, terms)


@settings(max_examples=60, deadline=None, database=None)
@given(case=frame_forms(), data=st.data())
def test_random_numerator_forms_match_the_object_route(case, data):
    frame, form = case
    try:
        frame._table("del")
    except StructureError:
        return   # I is not integrable: the frame has no del tables
    third, sqrt2 = ComplexScalar(rational(1, 3)), ComplexScalar(root(2) + 1, rational(1, 2))
    for op in (frame.d, frame.del_, frame.del_j, frame.delbar_j):
        image = op(form)
        assert_matches_the_object_route(frame, image)
        assert_kernels_match_the_twin(frame, image)
        other = data.draw(operands(image))
        for second in (
            other,                               # exact or with a float, plain
            keep_numerators(other),              # the same, keeping numerators when exact
            image.scale(third),                  # mixed denominators
            object_twin(image).scale(sqrt2),     # Q(sqrt 2) against Q, or against itself
            Form.zero(image.nsym, image.degree),
            image,                               # a difference that cancels to zero
            -image,                              # a sum that cancels to zero
        ):
            assert_sums_match_the_object_route(image, second)
            assert_sums_match_the_object_route(second, image)
        assert (image - image).is_zero() and (image + -image).is_zero()
        for c in (third, sqrt2, C_I, ComplexScalar(floating(0.5))):
            assert_scale_matches_the_object_route(image, c)


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
    # sums on a shared key and scaling still meet the two radicands
    for a, b in ((form, other), (other, form), (form, object_twin(other))):
        with pytest.raises(FieldMismatchError):
            a + b
        with pytest.raises(FieldMismatchError):
            a - b
    with pytest.raises(FieldMismatchError):
        form.scale(ComplexScalar(root(5)))


def test_a_numerator_form_against_a_metric_of_another_radicand_still_raises():
    geometry = Geometry.standard(LieAlgebraData.abelian(8))
    metric = Metric.diagonal(geometry, [root(5) + 3, root(5) + 4])
    one = Form.from_numerators(8, 1, 2, 1, {mask((0,)): (0, 1, 0, 0)})
    two = Form.from_numerators(8, 2, 2, 1, {mask((0, 1)): (0, 1, 0, 0)})
    with pytest.raises(FieldMismatchError):
        metric.inner_product(one, one)
    with pytest.raises(FieldMismatchError):
        metric.lefschetz_adjoint(two)
