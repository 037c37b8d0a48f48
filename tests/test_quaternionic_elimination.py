"""The quaternionic elimination of G against the complex one it replaced.

``linalg.quaternionic_inverse_ints`` reads the Gram matrix G of an exact
metric as an n x n quaternionic matrix Q and eliminates Q once.  Its oracle
is the 2n x 2n complex Gauss-Jordan ``complex_elimination.inverse_ints``,
read as ``Metric`` read it: pivots real and in equal pairs up to the first
that is not positive, which refuses the metric.  Both must give the same
G^-1, the same pivots (one of each complex pair) and the same error class,
on fully coupled positive matrices, on positive matrices with some blocks
uncoupled, on matrices of every inertia (indefinite and singular ones
included), and on matrices with a broken block.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from complex_elimination import inverse_ints, matrix_ints
from dense_matrices import mat_mul
from test_gram_lane import _matrix, gram_matrices
from test_pivot_reads import _component, coupled_grams

from hha import linalg
from hha.hermitian import ConsistencyError, MetricError
from hha.linalg import SingularMatrixError
from hha.scalars import ComplexScalar, Scalar


def complex_form(entries):
    """The 2n x 2n complex form of the quaternionic matrix ``entries``,
    entry (p, q) a pair (a, b) standing for a + b j, whose block is
    [[a, b], [-conj b, conj a]]."""
    n = len(entries)
    G = [[None] * (2 * n) for _ in range(2 * n)]
    for p, row in enumerate(entries):
        for q, (a, b) in enumerate(row):
            G[2 * p][2 * q], G[2 * p][2 * q + 1] = a, b
            G[2 * p + 1][2 * q], G[2 * p + 1][2 * q + 1] = -b.conjugate(), a.conjugate()
    return G


@st.composite
def inertia_grams(draw, fields=(0, 2, 5)):
    """G = M^* D M for the complex form M of a random n x n quaternionic
    matrix and the complex form D of a real diagonal one with entries of
    either sign or zero: quaternionic Hermitian, and definite, semidefinite,
    singular or indefinite."""
    n = draw(st.integers(1, 3))
    d = draw(st.sampled_from(fields))

    def entry():
        return ComplexScalar(_component(draw, d)[0], _component(draw, d)[0])

    M = complex_form([[(entry(), entry()) for _ in range(n)] for _ in range(n)])
    zero = ComplexScalar(Scalar(0))
    D = complex_form([[(ComplexScalar(Scalar(draw(st.integers(-2, 3)))) if p == q else zero, zero)
                       for q in range(n)] for p in range(n)])
    adjoint = [[M[c][r].conjugate() for c in range(2 * n)] for r in range(2 * n)]
    return mat_mul(adjoint, mat_mul(D, M))


@st.composite
def broken_grams(draw):
    """A positive G with t > 0 added to one diagonal entry: still Hermitian
    and positive, but not quaternionic, as that diagonal block is no longer
    a real multiple of 1."""
    G = [list(row) for row in draw(st.one_of(coupled_grams(), gram_matrices()))]
    k = draw(st.integers(0, len(G) - 1))
    G[k][k] = G[k][k] + ComplexScalar(Scalar(Fraction(draw(st.integers(1, 4)), 2)))
    return G


def complex_route(gram):
    """(G^-1, pivots), or the error class, by the complex elimination as
    ``Metric`` read its pivots."""
    d, den, rows = matrix_ints(gram)
    try:
        hden, inv, diagonal = inverse_ints(d, den, rows)
    except SingularMatrixError:
        return MetricError
    pivots = []
    for x in diagonal:
        if not x.is_real():
            return ConsistencyError
        pivots.append(x.re)
        if x.re.sign() <= 0:
            return MetricError
    if pivots[1::2] != pivots[0::2]:
        return ConsistencyError
    return _matrix(d, hden, inv), pivots[0::2]


def quaternionic_route(gram):
    """(G^-1, pivots), or the error class, by the quaternionic elimination."""
    d, den, rows = matrix_ints(gram)
    try:
        lane = linalg.quaternionic_inverse_ints(d, den, rows)
    except ConsistencyError:
        return ConsistencyError
    if lane is None:
        return MetricError
    hden, inv, pivots = lane
    return _matrix(d, hden, inv), pivots


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(coupled_grams(), gram_matrices()))
def test_the_quaternionic_elimination_is_the_complex_one(gram):
    assert quaternionic_route(gram) == complex_route(gram)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(inertia_grams(), broken_grams()))
def test_refusals_and_faults_are_those_of_the_complex_elimination(gram):
    assert quaternionic_route(gram) == complex_route(gram)


@pytest.mark.parametrize("d", [0, 2, 5])
def test_a_fully_coupled_matrix_of_each_field(d):
    """A fixed positive 3 x 3 quaternionic matrix with every entry off the
    diagonal a general quaternion, so that every part of each product counts."""
    rng = random.Random(d)

    def part():
        return Scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3])),
                      Fraction(rng.choice([-1, 1]), 2) if d else 0, d)

    zero = ComplexScalar(Scalar(0))
    entries = [[None] * 3 for _ in range(3)]
    for p in range(3):
        entries[p][p] = (ComplexScalar(Scalar(40) + part()), zero)
        for q in range(p + 1, 3):
            a, b = ComplexScalar(part(), part()), ComplexScalar(part(), part())
            entries[p][q], entries[q][p] = (a, b), (a.conjugate(), -b)
    gram = complex_form(entries)
    out = quaternionic_route(gram)
    assert out == complex_route(gram) and not isinstance(out, type)


def test_every_kind_of_outcome_is_drawn():
    """The pool reaches a positive G, a refused G and a broken block."""
    seen = set()

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.one_of(inertia_grams(), broken_grams()))
    def collect(gram):
        out = complex_route(gram)
        seen.add(out if isinstance(out, type) else "positive")

    collect()
    assert seen == {"positive", MetricError, ConsistencyError}


def test_a_broken_block_is_named():
    one, zero = ComplexScalar(Scalar(1)), ComplexScalar(Scalar(0))
    G = complex_form([[(ComplexScalar(Scalar(5)), zero), (one, zero)],
                      [(one, zero), (ComplexScalar(Scalar(5)), zero)]])
    G[3][1] = G[1][3] = ComplexScalar(Scalar(1), Scalar(1))   # conj(a) would be 1
    with pytest.raises(ConsistencyError) as raised:
        linalg.quaternionic_inverse_ints(*matrix_ints(G))
    assert str(raised.value) == "the block of G at (0, 2) is not the complex form of a quaternion"
