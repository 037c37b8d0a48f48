"""Oracles for the work around each verdict, on the way in and on the way out.

In: ``documents.parse_input`` parses each distinct scalar text once per call,
``HypercomplexStructure.standard`` writes its sparse columns directly, and
``Metric.from_hermitian_matrix`` checks its input without negating scalar
objects.  Out: ``scalars.scalar_str`` prints from the ints, and
``classify._residual`` formats only the terms it prints.  Each oracle here is
the route that was replaced: the ``Fraction`` formatter, format-then-split,
the dense structure matrices, the full signed skew matrix with a negation per
entry, and one parse per location.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import nil_qgau
from dense_matrices import dense
from test_gram_lane import _geometry, gram_matrices

from hha import documents
from hha.catalog import get_example
from hha.classify import _residual
from hha.documents import InputError, geometry_to_input, load_document, parse_input
from hha.forms import Form, mask
from hha.hermitian import Metric, MetricError
from hha.hypercomplex import Geometry, HypercomplexStructure, j_index
from hha.scalars import (
    ComplexScalar,
    ONE,
    Scalar,
    ZERO,
    floating,
    is_conjugate,
    is_negation,
    scalar_str,
)

_checks = settings(max_examples=200, deadline=None, database=None)


# -- scalar_str ------------------------------------------------------------------


def fraction_scalar_str(s: Scalar) -> str:
    """The formatter before the int route: both parts as ``Fraction``s."""
    if s.is_float:
        return f"float:{s.p!r}"
    a, b = Fraction(s.p, s.r), Fraction(s.q, s.r)
    if not b:
        return str(a)
    if b == 1:
        radical = f"sqrt({s.d})"
    elif b == -1:
        radical = f"-sqrt({s.d})"
    else:
        radical = f"{b}*sqrt({s.d})"
    if not a:
        return radical
    if radical.startswith("-"):
        return f"{a}{radical}"
    return f"{a}+{radical}"


_parts = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4))),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**20)),
)

_exact_scalars = st.builds(lambda d, a, b: Scalar(a, b if d else 0, d),
                           st.sampled_from((0, 2, 5)), _parts, _parts)

_float_scalars = st.builds(floating, st.floats(allow_nan=False, allow_infinity=False))


@_checks
@given(st.one_of(_exact_scalars, _float_scalars))
def test_scalar_str_matches_the_fraction_formatter(s):
    assert scalar_str(s) == fraction_scalar_str(s)


# -- _residual ---------------------------------------------------------------------


def split_residual(form: Form, frame, limit: int = 4) -> str:
    """The residual before the cut moved ahead of the formatting: format every
    term, then split on " + " and keep ``limit`` of them."""
    if form.is_zero():
        return ""
    txt = frame.format(form)
    parts = txt.split(" + ")
    if len(parts) > limit:
        txt = " + ".join(parts[:limit]) + f" + ... ({len(parts)} terms)"
    return txt


_FRAME = Geometry.standard(nil_qgau(2)).frame   # 8 frame symbols z1..z4, zb1..zb4

_coefficients = st.builds(
    lambda a, b, c, e: ComplexScalar(Scalar(a, b, 2), Scalar(c, e, 2)),
    _parts, _parts, _parts, _parts).filter(lambda z: not z.is_zero())


@st.composite
def residual_forms(draw):
    degree = draw(st.integers(1, 3))
    keys = draw(st.sets(st.frozensets(st.integers(0, 7), min_size=degree, max_size=degree),
                        max_size=12))
    terms = {mask(sorted(k)): draw(_coefficients) for k in keys}
    return Form(8, degree, terms)


@_checks
@given(residual_forms(), st.integers(1, 5))
def test_residual_matches_format_then_split(form, limit):
    assert _residual(form, _FRAME, limit) == split_residual(form, _FRAME, limit)


# -- the standard structure ---------------------------------------------------------


def dense_standard(n: int):
    """I and J of the block convention, built as dense matrices."""
    dim = 4 * n
    I = [[ZERO] * dim for _ in range(dim)]
    J = [[ZERO] * dim for _ in range(dim)]
    for k in range(n):
        b = 4 * k
        I[b + 1][b] = ONE
        I[b][b + 1] = -ONE
        I[b + 3][b + 2] = ONE
        I[b + 2][b + 3] = -ONE
        J[b + 2][b] = ONE
        J[b + 3][b + 1] = -ONE
        J[b][b + 2] = -ONE
        J[b + 1][b + 3] = ONE
    return I, J


def dense_product(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), ZERO) for j in range(n)]
            for i in range(n)]


def dense_columns(A):
    n = len(A)
    return [{r: A[r][j] for r in range(n) if not A[r][j].is_zero()} for j in range(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_columns_and_lazy_matrices_match_the_dense_construction(n):
    I, J = dense_standard(n)
    K = dense_product(I, J)
    H = HypercomplexStructure.standard(n)
    assert not {"I", "J", "K"} & set(dir(H))   # the columns are the only form
    assert H.columns == {"I": dense_columns(I), "J": dense_columns(J), "K": dense_columns(K)}
    assert tuple(map(dense, H.columns.values())) == (I, J, K)
    assert HypercomplexStructure(I, J).columns == H.columns


# -- the scalar parse memo ----------------------------------------------------------


def _document(**changes) -> dict:
    """qbal12 over Q with e^9..e^12 negated, so that its structure equations
    read de^k = -e^1 ^ e^(k-4), and a Gram metric whose texts repeat within
    the metric and across the equations."""
    entry = get_example("qbal12")
    data = geometry_to_input(entry.name, *entry.load())
    for terms in data["structure_equations"].values():
        for term in terms:
            term[2] = "-1"
    gram = [[["3", "0"] if i == j else ["0", "0"] for j in range(6)] for i in range(6)]
    # couple the first two quaternionic blocks by a = 1/2, b = -1 (real parts)
    for (r, c), x in {(0, 2): "1/2", (1, 3): "1/2", (0, 3): "-1", (1, 2): "1"}.items():
        gram[r][c] = [x, "0"]
        gram[c][r] = [x, "0"]
    data["metric"] = {"type": "gram", "entries": gram}
    data.update(changes)
    return data


def _texts(data) -> tuple:
    """The scalar texts of the structure equations and of the metric, in
    document order."""
    eqs = [c for terms in data["structure_equations"].values() for _, _, c in terms]
    return eqs, [x for row in data["metric"]["entries"] for pair in row for x in pair]


def test_the_document_repeats_texts_across_equations_and_metric():
    eqs, metric = _texts(_document())
    assert set(eqs) & set(metric)
    assert len(set(metric)) < len(metric)


def test_each_distinct_text_is_parsed_once_per_call(monkeypatch):
    data = _document()
    calls = []
    parse = documents.parse_scalar
    monkeypatch.setattr(documents, "parse_scalar", lambda text: calls.append(text) or parse(text))
    distinct = set().union(*_texts(data))
    parse_input(json.dumps(data))
    assert sorted(calls) == sorted(distinct)
    parse_input(json.dumps(data))   # nothing is kept between calls
    assert len(calls) == 2 * len(distinct)


def test_repeated_texts_load_as_texts_parsed_one_by_one():
    data = _document()
    # a distinct run of spaces around each occurrence makes every text new
    # to the memo without changing its value
    spaced = json.loads(json.dumps(data))
    width = iter(range(1, 10**6))
    for terms in spaced["structure_equations"].values():
        for term in terms:
            term[2] = " " * next(width) + term[2]
    for row in spaced["metric"]["entries"]:
        for pair in row:
            pair[:] = [x + " " * next(width) for x in pair]
    texts = [x for part in _texts(spaced) for x in part]
    assert len(set(texts)) == len(texts)
    doc, one_by_one = parse_input(json.dumps(data)), parse_input(json.dumps(spaced))
    assert doc.structure_equations == one_by_one.structure_equations
    assert doc.metric_values == one_by_one.metric_values
    (geom, metric), (geom2, metric2) = load_document(doc), load_document(one_by_one)
    assert geom.algebra.structure_equations() == geom2.algebra.structure_equations()
    assert metric.omega == metric2.omega


@pytest.mark.parametrize("edits, location", [
    # a malformed text fails where it first occurs, and again on its own
    ({(0, 4): "1//2", (5, 1): "1//2"}, "$.metric.entries[0][4]"),
    ({(5, 1): "1//2"}, "$.metric.entries[5][1]"),
    # so does a text outside the field, within a pair
    ({(2, 4): "sqrt(3)", (1, 5): "sqrt(3)"}, "$.metric.entries[1][5]"),
])
def test_a_repeated_bad_text_fails_at_its_first_location(edits, location):
    data = _document()
    for (r, c), x in edits.items():
        data["metric"]["entries"][r][c] = ["0", x]
    with pytest.raises(InputError) as info:
        parse_input(json.dumps(data))
    assert info.value.location == location


def test_a_text_the_equations_accept_is_still_checked_as_a_diagonal_entry():
    # "-1" is a coefficient of the structure equations; as a diagonal entry
    # it is still refused, at its own location
    data = _document(metric={"type": "diagonal", "entries": ["1", "-1", "1"]})
    assert "-1" in _texts(_document())[0]
    with pytest.raises(InputError) as info:
        parse_input(json.dumps(data))
    assert info.value.location == "$.metric.entries[1]"


# -- the Gram checks ------------------------------------------------------------------


def first_incompatible_entry(G):
    """The check before the sign-aware route: the full skew matrix
    A[r][t] = s(t) G[r][P(t)], built with a negation per entry, and
    A[r][t] == -A[t][r] on every pair r <= t.  Returns the first entry of G in
    row-major order that a failing pair reads, or None."""
    N = len(G)
    index = [j_index(t) for t in range(N)]
    A = [[row[p] if s > 0 else -row[p] for p, s in index] for row in G]
    failing = []
    for r in range(N):
        for t in range(r, N):
            if A[r][t] != -A[t][r]:
                failing += [(r, index[t][0]), (t, index[r][0])]
    return min(failing, default=None)


def first_non_hermitian_entry(G):
    """The first entry G[r][c] of G in row-major order with G[r][c] != conj
    G[c][r], formed with a conjugate per entry, or None."""
    return next(((r, c) for r, row in enumerate(G) for c, x in enumerate(row)
                 if x != G[c][r].conjugate()), None)


@st.composite
def perturbed_grams(draw):
    """A positive compatible Gram matrix, and a copy with at most one entry
    changed: negated, conjugated, replaced by its partner's value, or by a
    new scalar."""
    G = draw(gram_matrices(sizes=(1, 4)))
    changed = [list(row) for row in G]
    N = len(G)
    r, c = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
    x = G[r][c]
    partner = G[j_index(c)[0]][j_index(r)[0]]
    changed[r][c] = draw(st.sampled_from((x, -x, x.conjugate(), partner, -partner,
                                          x + ComplexScalar(ONE), x.times_i())))
    return G, changed


@settings(max_examples=300, deadline=None, database=None)
@given(perturbed_grams())
def test_the_gram_checks_name_the_entry_the_full_skew_matrix_fails_on(grams):
    G, changed = grams
    want = first_incompatible_entry(changed) or first_non_hermitian_entry(changed)
    try:
        m = Metric.from_hermitian_matrix(_geometry(len(G) // 2), changed)
    except MetricError as exc:
        # an entry is named for compatibility and then for the Hermitian
        # symmetry; a compatible Hermitian matrix may still fail as not
        # q-positive, with no entry, but the unchanged one is a metric
        assert exc.entry == want
        assert changed != G
        if want is None:
            assert str(exc) == "metric form is not q-positive"
    else:
        assert want is None
        assert m.gram == changed


_complex = st.one_of(
    st.builds(lambda a, b, c, e, d: ComplexScalar(Scalar(a, b if d else 0, d),
                                                  Scalar(c, e if d else 0, d)),
              _parts, _parts, _parts, _parts, st.sampled_from((0, 2, 5))),
    st.builds(lambda x, y: ComplexScalar(floating(x), floating(y)),
              st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)


@_checks
@given(_complex, _complex,
       st.sampled_from(("other", "negated", "same", "near", "conjugate", "near conjugate")))
def test_is_negation_is_equality_with_the_negative(x, y, relation):
    # and is_conjugate is equality with the conjugate
    y = {"other": y, "negated": -x, "same": x,
         "near": -x + ComplexScalar(floating(1e-12)), "conjugate": x.conjugate(),
         "near conjugate": x.conjugate() + ComplexScalar(ZERO, floating(1e-12))}[relation]
    assert is_negation(x, y) == (x == -y)
    assert is_conjugate(x, y) == (x == y.conjugate())
