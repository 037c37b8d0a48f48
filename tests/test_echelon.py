"""The one elimination kernel, ``linalg.echelon_add``, against dense oracles.

``echelon`` is compared with the dense reduced row echelon form of
``tests/test_liealg_oracles.py`` on random sparse rows over Q and Q(sqrt 2),
as ``Scalar`` and as ``ComplexScalar``, with zero and duplicate rows and with
integer and monomial-tuple keys.  The reduced row echelon basis of a span is
unique, so shuffling the rows must not change it, and ``echelon_add`` must
return None exactly when the new row is already in the span.

``solve_exactness`` reads its rank off the same single elimination; on every
catalog entry with n >= 2 it is compared with the dense rank of the matrix
built the way the solve was set up before: one row per image monomial, one
column per source monomial.
"""
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hha import linalg
from hha.catalog import entry_names, get_example
from hha.classify import solve_exactness
from hha.forms import Form
from hha.scalars import C_ZERO, ComplexScalar, ONE, Scalar, ZERO

from test_liealg_oracles import _row_echelon

_kernel = settings(max_examples=60, deadline=None, database=None)

INT_KEYS = list(range(7))
TUPLE_KEYS = list(itertools.combinations(range(5), 2))


@st.composite
def sparse_rows(draw):
    """Random sparse rows over one field and one key type, as drawn."""
    d = draw(st.sampled_from([0, 2]))
    complex_values = draw(st.booleans())
    keys = draw(st.sampled_from([INT_KEYS, TUPLE_KEYS]))

    def scalar():
        a = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        b = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2))) if d else 0
        return Scalar(a, b, d)

    def value():
        if complex_values:
            return ComplexScalar(scalar(), scalar() if draw(st.booleans()) else ZERO)
        return scalar()

    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "duplicate"]))
        if kind == "duplicate" and rows:
            rows.append(dict(rows[draw(st.integers(0, len(rows) - 1))]))
        elif kind == "zero":
            rows.append({} if draw(st.booleans()) else {keys[0]: value() * 0})
        else:
            support = draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True))
            rows.append({k: value() for k in support})
    return keys, rows


def dense_echelon(keys, rows):
    """The reduced row echelon basis by the dense oracle, as sparse rows by pivot."""
    mat = [[ComplexScalar._coerce(row.get(k, ZERO)) for k in keys] for row in rows]
    pivots = _row_echelon(mat)
    return {keys[c]: {keys[j]: x for j, x in enumerate(mat[r]) if not x.is_zero()}
            for r, c in enumerate(pivots)}


def as_complex(rows: dict) -> dict:
    return {p: {k: ComplexScalar._coerce(c) for k, c in row.items()}
            for p, row in rows.items()}


@_kernel
@given(sparse_rows())
def test_echelon_matches_the_dense_oracle(data):
    keys, rows = data
    got = linalg.echelon(rows)
    assert as_complex(got) == dense_echelon(keys, rows)
    for p, row in got.items():
        assert next(iter(row)) == p and row[p] == 1
        assert all(q == p or q not in row for q in got)


@_kernel
@given(sparse_rows(), st.randoms(use_true_random=False))
def test_echelon_ignores_the_order_of_the_rows(data, rng):
    _, rows = data
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert linalg.echelon(shuffled) == linalg.echelon(rows)


@_kernel
@given(sparse_rows(), st.data())
def test_echelon_add_returns_none_exactly_in_the_span(data, draw):
    keys, rows = data
    basis = linalg.echelon(rows)
    # a combination of the rows is in the span; a row with an extra key may not be
    vec: dict = {}
    for row in rows:
        linalg.add_scaled(vec, draw.draw(st.integers(-2, 2)), row)
    if draw.draw(st.booleans()):
        linalg.add_scaled(vec, draw.draw(st.integers(1, 3)),
                          {draw.draw(st.sampled_from(keys)): ONE})
    in_span = len(dense_echelon(keys, rows + [vec])) == len(basis)
    rank = len(basis)
    pivot = linalg.echelon_add(basis, vec)
    assert (pivot is None) == in_span
    assert len(basis) == rank + (not in_span)
    if pivot is not None:
        assert basis[pivot][pivot] == 1


@functools.lru_cache(maxsize=None)
def _loaded(name):
    return get_example(name).load()


@pytest.mark.parametrize("name", [nm for nm in entry_names()
                                  if _loaded(nm)[0].n >= 2])
def test_solve_exactness_rank_matches_the_dense_matrix(name):
    geom, metric = _loaded(name)
    fr, n, N, dim = geom.frame, geom.n, geom.N, geom.algebra.dim
    target = fr.del_(metric.omega_power(n - 1))
    witness, info = solve_exactness(geom, "del_j", target, (2 * n - 2, 0))
    source = list(itertools.combinations(range(N), 2 * n - 2))
    images = [fr.del_j(Form.monomial(dim, key)) for key in source]
    row_keys = sorted({k for img in images for k in img.terms} | set(target.terms))
    index = {k: i for i, k in enumerate(row_keys)}
    mat = [[C_ZERO] * len(source) for _ in row_keys]
    for j, img in enumerate(images):
        for k, c in img.terms.items():
            mat[index[k]][j] = c
    assert info["rank"] == len(_row_echelon([list(row) for row in mat]))
    rhs = [target.terms.get(k, C_ZERO) for k in row_keys]
    augmented = [row + [x] for row, x in zip(mat, rhs)]
    consistent = len(_row_echelon(augmented)) == info["rank"]
    assert info["consistent"] == consistent == (witness is not None)
