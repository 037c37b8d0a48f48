"""G^-1 on integers, and every read of G^-1 summed on numerators.

``Metric`` holds G^-1 as numerators over one denominator (``_g_inv_ints``;
the inverse, with the pivots that decide positivity, by one
``linalg.quaternionic_inverse_ints``).  Its readers sum on those ints and fall back to
the scalar objects only for what the ints cannot hold: a float metric, or a
form whose radicand differs from the metric's, which still raises
``FieldMismatchError``.  Here the integer routes are checked against the
object routes on random quaternionic-Hermitian positive-definite Gram
matrices, and the division route of beta, which reads A off Omega's
coefficients on scalar objects for every metric, against the
Lefschetz-adjoint route it is audited by.
"""
import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from complex_elimination import inverse_ints, matrix_ints
from conftest import nil_qgau, solv_rank1
from dense_matrices import identity, mat_mul
from test_pivot_reads import block_gram, coupled_grams

from hha import hermitian, linalg
from hha.catalog import entry_names, get_example
from hha.documents import load_document, parse_input
from hha.classify import classify_metric
from hha.forms import Form, contract_ints, mask
from hha.hermitian import ConsistencyError, Metric, MetricError
from hha.hypercomplex import Geometry
from hha.scalars import (
    C_ONE,
    C_ZERO,
    ComplexScalar,
    FieldMismatchError,
    Scalar,
    complex_from_ints,
    complex_ints,
    floating,
    root,
)


def _scalar(draw, d):
    """(u + v sqrt(d)) / w with small integers; v = 0 over Q."""
    u = draw(st.integers(-3, 3))
    v = draw(st.integers(-2, 2)) if d else 0
    w = draw(st.sampled_from((1, 1, 2, 3)))
    return Scalar(Fraction(u, w), Fraction(v, w), d), Fraction(abs(u) + 3 * abs(v), w)


@st.composite
def gram_matrices(draw, fields=(0, 2, 5), sizes=(1, 6)):
    """A positive quaternionic Hermitian Gram matrix of size N = 2n, over Q
    or Q(sqrt d).  Each pair of blocks is coupled or not; every diagonal entry
    exceeds the bounds of its row (3 > sqrt 5), so G is strictly diagonally
    dominant and positive definite."""
    n = draw(st.integers(*sizes))
    d = draw(st.sampled_from(fields))
    blocks, bound = {}, [Fraction(0)] * n
    for p in range(n):
        for q in range(p + 1, n):
            if not draw(st.booleans()):
                continue
            parts = [_scalar(draw, d) for _ in range(4)]
            size = sum(b for _, b in parts)
            bound[p] += size
            bound[q] += size
            blocks[(p, q)] = (ComplexScalar(parts[0][0], parts[1][0]),
                              ComplexScalar(parts[2][0], parts[3][0]))
    diagonal = []
    for p in range(n):
        v = draw(st.integers(-2, 2)) if d else 0
        u = bound[p] + 3 * abs(v) + Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
        diagonal.append(Scalar(u, Fraction(v), d) if v else Scalar(u))
    return block_gram(diagonal, blocks)


@functools.lru_cache(maxsize=None)
def _geometry(n):
    """A standard geometry of quaternionic dimension n with d Omega^{n-1} not
    always zero, so that beta's division route has something to read."""
    return Geometry.standard(solv_rank1() if n == 1 else nil_qgau(n))


def _object_twin(m: Metric) -> Metric:
    """The same metric with its integer lanes switched off: every reader takes
    its object route, which is the code the lanes replace."""
    twin = Metric(m.geometry, m.omega)
    twin._g_inv_ints = None
    return twin


def _random_scalar(rng, d):
    parts = [Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-1, 1), rng.randint(1, 2)) if d else 0, d)
             for _ in range(2)]
    return ComplexScalar(*parts)


def _random_form(rng, m, degree, d, terms=5):
    """A random form over Q(sqrt d) on the metric's frame, of one degree."""
    dim = m.geometry.algebra.dim
    out = {mask(rng.sample(range(dim), degree)): _random_scalar(rng, d) for _ in range(terms)}
    return Form(dim, degree, {k: c for k, c in out.items() if not c.is_zero()})


def _items(form: Form):
    return form.degree, list(form.terms.items())


@settings(max_examples=25, deadline=None, database=None)
@given(gram_matrices())
def test_the_integer_inverse_is_the_object_inverse(gram):
    N = len(gram)
    expect = linalg.inverse(gram)
    assert mat_mul(gram, expect) == identity(N)
    d, den, ints = Metric.from_hermitian_matrix(_geometry(N // 2), gram)._g_inv_ints
    assert _matrix(d, den, ints) == expect
    hden, inv, pivots = inverse_ints(*matrix_ints(gram))
    assert _matrix(d, hden, inv) == expect
    # a positive definite G is eliminated in natural order either way
    assert pivots == [ComplexScalar(p) for p in linalg.hermitian_pivots(gram)]


def _matrix(d, den, ints):
    """The scalar matrix of rows of numerators over ``den``."""
    return [[ComplexScalar(Scalar(Fraction(a, den), Fraction(b, den), d),
                           Scalar(Fraction(c, den), Fraction(e, den), d))
             for a, b, c, e in (row.get(j, (0, 0, 0, 0)) for j in range(len(ints)))]
            for row in ints]


def test_a_singular_matrix_still_raises():
    c = lambda x: ComplexScalar(Scalar(x))   # noqa: E731
    with pytest.raises(linalg.SingularMatrixError):
        inverse_ints(*matrix_ints([[c(1), c(2)], [c(2), c(4)]]))
    # a zero diagonal is not singular: the rows are taken in pivot order,
    # and each reads the pivot 0 at its own column
    skew = [[c(0), c(1)], [c(-1), c(0)]]
    den, inv, pivots = inverse_ints(*matrix_ints(skew))
    assert _matrix(0, den, inv) == [[c(0), c(-1)], [c(1), c(0)]]
    assert pivots == [C_ZERO, C_ZERO]


@settings(max_examples=60, deadline=None, database=None)
@given(gram_matrices(), st.data())
def test_positivity_is_sylvester_on_the_gauss_jordan_pivots(gram, data):
    """G - t 1 for t = 0 or a diagonal entry of G stays compatible, and is
    definite, semidefinite, singular or indefinite: the metric exists exactly
    when the object pivots call it positive, and then reads their Pf and det."""
    t = data.draw(st.sampled_from([C_ZERO, *(row[r] for r, row in enumerate(gram))]))
    g = [[x - t if r == c else x for c, x in enumerate(row)] for r, row in enumerate(gram)]
    geometry = _geometry(len(g) // 2)
    if linalg.hermitian_definiteness(g) != "positive":
        with pytest.raises(MetricError) as refused:
            Metric.from_hermitian_matrix(geometry, g)
        assert type(refused.value) is MetricError and refused.value.entry is None
        assert str(refused.value) == "metric form is not q-positive"
        return
    m = Metric.from_hermitian_matrix(geometry, g)
    pivots = linalg.hermitian_pivots(g)
    assert m.pf == ComplexScalar(math.prod(pivots[0::2]))
    assert m.det_g == math.prod(pivots)


@pytest.mark.parametrize("first, error", [(C_ONE, ConsistencyError), (C_ZERO, MetricError)])
def test_a_pivot_that_is_not_real_is_a_fault_up_to_the_first_non_positive(monkeypatch, first,
                                                                          error):
    """G is Hermitian, so a pivot that is not real is a fault; but only up to
    the first pivot that is not positive, where the elimination stops.  The
    unitary G = 1 is eliminated with its first quaternionic diagonal entry
    set to ``first`` and its second rotated to i, a block that stays the
    complex form of a quaternion."""
    eliminate = linalg.quaternionic_inverse_ints

    def rotated(d, den, rows):
        rows = [dict(row) for row in rows]
        if first.is_zero():
            del rows[0][0], rows[1][1]
        a = rows[2][2]
        rows[2][2], rows[3][3] = (-a[2], -a[3], a[0], a[1]), (-a[2], -a[3], -a[0], -a[1])
        return eliminate(d, den, rows)

    monkeypatch.setattr(linalg, "quaternionic_inverse_ints", rotated)
    with pytest.raises(error) as raised:
        Metric.unitary(_geometry(2))
    assert type(raised.value) is error


@settings(max_examples=20, deadline=None, database=None)
@given(gram_matrices(), st.integers(0, 2**32 - 1), st.sampled_from((0, 2, 5)))
def test_each_reader_matches_its_object_route(gram, seed, form_field):
    g = _geometry(len(gram) // 2)
    m = Metric.from_hermitian_matrix(g, gram)
    old = _object_twin(m)
    d = m._g_inv_ints[0]
    # forms over the metric's field, or over Q(sqrt e) beside a rational metric
    e = d or form_field
    rng = random.Random(seed)
    n = m.n
    if n >= 2:
        assert _items(m.omega_power(n - 1)) == _items(old.omega_power(n - 1))
    assert _items(m.omega_i_top_minus_one()) == _items(old.omega_i_top_minus_one())
    for metric in (m, old):   # the audit identity of canonical_forms, on either route
        assert metric._beta_division() == metric.lefschetz_adjoint(metric.del_omega)
    for degree in (1, 2, 3):
        a, b = (_random_form(rng, m, degree, e) for _ in range(2))
        assert m.inner_product(a, b) == old.inner_product(a, b)
        for conjugate in (False, True):
            assert (_items(m.lefschetz_adjoint(a, conjugate))
                    == _items(old.lefschetz_adjoint(a, conjugate)))
    xi = _random_form(rng, m, 2, e) + m.omega
    gamma = _random_form(rng, m, 2, e) + m.omega_i()
    assert m._trace_ratio(xi) == old._trace_ratio(xi)
    assert m.trace_omega_i(gamma) == old.trace_omega_i(gamma)
    constant = Form.constant(g.algebra.dim, ComplexScalar(Scalar(2), Scalar(-1)))
    assert m.inner_product(constant, constant) == old.inner_product(constant, constant)
    assert old._g_inv is not None and "_g_inv" not in m.__dict__


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.sampled_from((0, 2, 5)))
def test_contract_ints_is_form_contract(seed, degree, d):
    rng = random.Random(seed)
    m = Metric.unitary(_geometry(3))
    form = _random_form(rng, m, degree, d, terms=8)
    vector = {i: _random_scalar(rng, d) for i in rng.sample(range(12), 4)}
    vector = {i: c for i, c in vector.items() if not c.is_zero()}
    _, den, ints = complex_ints(list(form.terms.values()))
    _, vden, vints = complex_ints(list(vector.values()))
    out = contract_ints(dict(zip(form.terms, ints)), dict(zip(vector, vints)), d)
    assert ([(key, complex_from_ints(*x, den * vden, d)) for key, x in out.items()]
            == list(form.contract(vector).terms.items()))


@pytest.fixture()
def object_routes(monkeypatch):
    """Counts of the object routes taken: an object G^-1 (``Metric._g_inv``
    or ``linalg.inverse``), object pivots (``linalg.hermitian_pivots``) and a
    reader whose lane was refused."""
    counts = {"g_inv": 0, "inverse_objects": 0, "pivots_objects": 0, "refused": 0, "lane": 0}
    g_inv = Metric._g_inv.func
    joined = hermitian._joined
    inverse_objects = linalg.inverse
    pivots_objects = linalg.hermitian_pivots

    def counted_g_inv(self):
        counts["g_inv"] += 1
        return g_inv(self)

    counted_property = functools.cached_property(counted_g_inv)
    counted_property.__set_name__(Metric, "_g_inv")

    def counted_joined(lane, values):
        out = joined(lane, values)
        counts["refused" if out is None else "lane"] += 1
        return out

    def counted_inverse(a):
        counts["inverse_objects"] += 1
        return inverse_objects(a)

    def counted_pivots(g):
        counts["pivots_objects"] += 1
        return pivots_objects(g)

    monkeypatch.setattr(Metric, "_g_inv", counted_property)
    monkeypatch.setattr(hermitian, "_joined", counted_joined)
    monkeypatch.setattr(linalg, "inverse", counted_inverse)
    monkeypatch.setattr(linalg, "hermitian_pivots", counted_pivots)
    return counts


def test_exact_classification_takes_no_object_route(object_routes):
    loaded = [get_example(name).load() for name in entry_names()]
    for _, metric in loaded:
        classify_metric(metric)
    assert object_routes["lane"] > 0
    assert object_routes == {"g_inv": 0, "inverse_objects": 0, "pivots_objects": 0,
                             "refused": 0, "lane": object_routes["lane"]}


def test_an_exact_classification_never_builds_the_object_gram(monkeypatch):
    """Every exact reader reads A, A^-1 or omega_I's inverse, so ``Metric.gram``
    is built for no catalog entry and no seed-1 ``dense`` or ``quadratic``
    input of the benchmark."""
    built = []
    gram = Metric.gram.func

    def counted_gram(self):
        built.append(self)
        return gram(self)

    counted_property = functools.cached_property(counted_gram)
    counted_property.__set_name__(Metric, "gram")
    monkeypatch.setattr(Metric, "gram", counted_property)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import inputs
    metrics = [get_example(name).load()[1] for name in entry_names()]
    for doc in inputs.dense_documents(1) + inputs.quadratic_documents(1):
        metrics.append(load_document(parse_input(json.dumps(doc)))[1])
    for metric in metrics:
        classify_metric(metric)
    assert (len(metrics), len(built)) == (45, 0)


def _check_traces(m: Metric, rng, d):
    """Lambda = tr_Omega on 2-forms, and the trace against omega_I is
    N (gamma ^ omega_I^{N-1}) / omega_I^N, with the powers multiplied out."""
    N = m.N
    xi = _random_form(rng, m, 2, d) + m.omega
    assert m._trace_ratio(xi) == m.lefschetz_adjoint(xi).coefficient(())
    omega_i = m.omega_i()
    power = omega_i.wedge_power(N - 1)
    top = tuple(range(2 * N))
    for gamma in (omega_i, _random_form(rng, m, 2, d) + omega_i):
        ratio = (gamma.wedge(power).coefficient(top) * ComplexScalar(Scalar(N))
                 / power.wedge(omega_i).coefficient(top))
        assert m.trace_omega_i(gamma) == ratio
    assert m.trace_omega_i(omega_i) == ComplexScalar(Scalar(N))


@settings(max_examples=20, deadline=None, database=None)
@given(st.one_of(gram_matrices(fields=(0, 2), sizes=(1, 3)),
                 coupled_grams(fields=(0, 2)).filter(lambda gram: len(gram) <= 6)),
       st.integers(0, 2**32 - 1))
def test_the_traces_are_the_lefschetz_adjoint_and_the_wedge_ratio(gram, seed):
    m = Metric.from_hermitian_matrix(_geometry(len(gram) // 2), gram)
    _check_traces(m, random.Random(seed), m._g_inv_ints[0])


def test_the_traces_of_a_float_metric_are_the_lefschetz_adjoint_and_the_wedge_ratio():
    g = _geometry(2)
    gram = block_gram([floating(5.5), floating(7.25)],
                      {(0, 1): (ComplexScalar(floating(1.5), floating(-0.75)),
                                ComplexScalar(floating(0.5), floating(2.0)))})
    m = Metric.from_hermitian_matrix(g, gram)
    assert m._g_inv_ints is None
    _check_traces(m, random.Random(4), 0)


def test_a_float_metric_takes_the_object_route(object_routes):
    g = _geometry(2)
    exact = Metric.diagonal(g, [Scalar(Fraction(3, 2)), Scalar(5)])
    m = Metric.diagonal(g, [floating(1.5), floating(5.0)])
    assert object_routes["pivots_objects"] == 1
    assert m._g_inv_ints is None
    z = [g.zeta(r + 1) for r in range(m.N)]
    assert ([[m.inner_product(a, b) for b in z] for a in z]
            == [[exact.inner_product(a, b) for b in z] for a in z])
    assert object_routes["g_inv"] == object_routes["inverse_objects"] == 1
    assert object_routes["refused"] == len(z) ** 2
    pf = m.pf.re
    assert pf.is_float and m.omega_power(1) == exact.omega_power(1)


def test_an_exact_metric_reads_a_float_form_without_eliminating_g_again(object_routes):
    """A float form takes the object route of an exact metric, whose object
    G^-1 is built off ``_g_inv_ints``: no ``linalg.inverse``, and the values
    of the object twin, which eliminates the object G."""
    g, m = get_example("qbal12").load()
    dim, N = g.algebra.dim, g.N
    c = ComplexScalar(floating(0.25), floating(-2.0))
    a = Form(dim, 1, {mask((0,)): ComplexScalar(floating(1.5)), mask((N + 1,)): c})
    b = Form(dim, 2, {mask((0, 1)): ComplexScalar(floating(1.5)), mask((2, 3)): c})
    got = (m.inner_product(a, a), m.lefschetz_adjoint(a), m.lefschetz_adjoint(b))
    assert object_routes["inverse_objects"] == 0 and object_routes["g_inv"] == 1
    twin = _object_twin(m)
    assert got == (twin.inner_product(a, a), twin.lefschetz_adjoint(a),
                   twin.lefschetz_adjoint(b))
    assert object_routes["inverse_objects"] == 1
    assert got[0] == ComplexScalar(floating(6.3125))
    assert got[2].coefficient(()) == ComplexScalar(floating(1.75), floating(-2.0))


def test_a_sqrt2_form_against_a_sqrt5_metric_raises():
    g = _geometry(2)
    s5 = root(5)
    gram = block_gram([s5 + Scalar(6), s5 + Scalar(7)],
                      {(0, 1): (ComplexScalar(s5, Scalar(1)), ComplexScalar(Scalar(1)))})
    m = Metric.from_hermitian_matrix(g, gram)
    assert m._g_inv_ints[0] == 5
    N, dim = g.N, g.algebra.dim

    def sqrt2(*idx):
        return Form.monomial(dim, idx, ComplexScalar(root(2)))

    for metric in (m, _object_twin(m)):
        for read in (lambda: metric.inner_product(sqrt2(0), sqrt2(0)),
                     lambda: metric.lefschetz_adjoint(sqrt2(0, 2)),
                     lambda: metric.lefschetz_adjoint(sqrt2(N, N + 2), conjugate=True),
                     lambda: metric._trace_ratio(sqrt2(0, 1)),
                     lambda: metric.trace_omega_i(sqrt2(0, N))):
            with pytest.raises(FieldMismatchError):
                read()
    # a rational form is read on the metric's lane
    q = Form.monomial(g.algebra.dim, (0,), C_ONE)
    assert m.inner_product(q, q) == _object_twin(m).inner_product(q, q) != C_ZERO
