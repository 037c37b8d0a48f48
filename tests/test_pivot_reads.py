"""One Hermitian elimination per metric, and the raised Omega read from G^-1.

``Metric`` reads positivity, Pf and det G off the pivots of one symmetric
elimination of its Hermitian matrix G, and the Lefschetz adjoint reads the
raised Omega as a signed read of G^-1.  The oracles are the skew Pfaffian of
``pfaffian_oracle``, ``linalg.det`` and the Gram-matrix solve of
``test_metric_oracles``.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pfaffian_oracle
from pfaffian_oracle import SkewMatrix
from test_metric_oracles import GenericRoutes, _metric

from hha import linalg
from hha.forms import Form
from hha.hermitian import Metric
from hha.hypercomplex import Geometry
from hha.liealg import LieAlgebraData
from hha.scalars import ComplexScalar, Scalar


def block_gram(diagonal, blocks):
    """The 2n x 2n Hermitian frame matrix of a quaternionic Hermitian matrix.

    Blocks follow ``Metric.from_hermitian_matrix``: ``blocks[(p, q)] = (a, b)``
    (p < q) is the entry a + b j at row p, column q, and it sits at
    G[2p:2p+2, 2q:2q+2] = [[a, b], [-conj b, conj a]], with its quaternionic
    conjugate below the diagonal; diagonal entry p is the real
    ``diagonal[p]`` times the identity.
    """
    N = 2 * len(diagonal)
    zero = ComplexScalar(Scalar(0))
    G = [[zero] * N for _ in range(N)]
    for p, x in enumerate(diagonal):
        G[2 * p][2 * p] = G[2 * p + 1][2 * p + 1] = ComplexScalar(x)
    for (p, q), (a, b) in blocks.items():
        r, c = 2 * p, 2 * q
        G[r][c], G[r][c + 1] = a, b
        G[r + 1][c], G[r + 1][c + 1] = -b.conjugate(), a.conjugate()
        for i in range(2):
            for j in range(2):
                G[c + j][r + i] = G[r + i][c + j].conjugate()
    return G


def _component(draw, d):
    """u + v sqrt(d) with small integers, and a bound on its absolute value."""
    u = draw(st.integers(-3, 3))
    v = draw(st.integers(-2, 2)) if d else 0
    return Scalar(Fraction(u), Fraction(v), d), abs(u) + 3 * abs(v)


@st.composite
def coupled_grams(draw):
    """A positive quaternionic Hermitian Gram matrix with every pair of blocks
    coupled, over Q, Q(sqrt 2) or Q(sqrt 5).  Each real diagonal entry exceeds
    the bounds of its row (3 > sqrt 5), so G is strictly diagonally dominant
    and positive.
    """
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from((0, 2, 5)))
    blocks, bound = {}, [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            parts = [_component(draw, d) for _ in range(4)]
            size = sum(b for _, b in parts)
            bound[p] += size
            bound[q] += size
            blocks[(p, q)] = (ComplexScalar(parts[0][0], parts[1][0]),
                              ComplexScalar(parts[2][0], parts[3][0]))
    diagonal = []
    for p in range(n):
        v = draw(st.integers(-2, 2)) if d else 0
        u = bound[p] + 3 * abs(v) + draw(st.integers(1, 3))
        diagonal.append(Scalar(Fraction(u), Fraction(v), d))
    return block_gram(diagonal, blocks)


def _abelian(n):
    return Geometry.standard(LieAlgebraData.abelian(4 * n))


@settings(max_examples=15, deadline=None, database=None)
@given(coupled_grams())
def test_pivot_reads_match_the_skew_pfaffian_and_det(gram):
    m = Metric.from_hermitian_matrix(_abelian(len(gram) // 2), gram)
    assert m.pf == SkewMatrix.from_form(m.omega, m.N).pfaffian()
    assert linalg.det(m.gram) == m.det_g
    pivots = linalg.hermitian_pivots(m.gram)
    assert pivots[1::2] == pivots[0::2]
    assert all(p.sign() > 0 for p in pivots)


def test_metric_construction_is_one_pivot_elimination(monkeypatch):
    c = ComplexScalar
    gram = block_gram([Scalar(9), Scalar(7)],
                      {(0, 1): (c(Scalar(1), Scalar(2)), c(Scalar(-1), Scalar(1)))})
    geom = _abelian(2)
    expect = SkewMatrix.from_form(Metric.from_hermitian_matrix(geom, gram).omega, 4)
    calls = []
    pivots = linalg.hermitian_pivots

    def counting(matrix):
        calls.append(len(matrix))
        return pivots(matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("metric construction made a second elimination")

    monkeypatch.setattr(linalg, "det", refuse)
    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(pfaffian_oracle, "pfaffian", refuse)
    monkeypatch.setattr(SkewMatrix, "pfaffian", refuse)
    monkeypatch.setattr(linalg, "hermitian_pivots", counting)
    m = Metric.from_hermitian_matrix(geom, gram)
    monkeypatch.undo()
    assert calls == [4]
    assert m.pf == expect.pfaffian()
    assert m.det_g == linalg.det(gram)


@pytest.mark.parametrize("case", ["random:qgau8", "random:qsg12", "rotated:qsg12",
                                  "sqrt2:joyce_su2xsu2"])
def test_lefschetz_adjoint_is_a_read_of_the_inverse(case, monkeypatch):
    m = _metric(case)
    fr = m.geometry.frame
    assert any(r != s and not c.is_zero() for r, row in enumerate(m.gram)
               for s, c in enumerate(row)), "diagonal metric"
    inputs = [(fr.del_(m.omega), False), (fr.del_(m.omega_bar()), True)]
    assert not all(a.is_zero() for a, _ in inputs)

    def refuse(*args, **kwargs):
        raise AssertionError("the adjoint raised Omega by substitution")

    monkeypatch.setattr(Form, "substitute", refuse)
    read = [m.lefschetz_adjoint(a, conjugate) for a, conjugate in inputs]
    monkeypatch.undo()
    old = GenericRoutes(m)
    assert read == [old.lefschetz_adjoint(a, conjugate) for a, conjugate in inputs]
