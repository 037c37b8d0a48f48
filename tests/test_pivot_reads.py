"""One elimination of G per metric, and everything else read off G and G^-1.

``Metric`` reads positivity, Pf and det G off the natural-order pivots of
the one Gauss-Jordan elimination of its Hermitian matrix G, as an n x n
quaternionic matrix, that gives G^-1 (``linalg.quaternionic_inverse_ints``).
The Lefschetz adjoint reads the raised Omega as a signed read of G^-1;
beta's division route, the trace against Omega and phi, phi^-1 are signed
reads of G, G^-1 and ``j_index``.
The oracles are the skew Pfaffian of ``pfaffian_oracle``, ``linalg.det``,
and the Gram-matrix solve, the beta elimination, the wedged trace ratio and
the evaluated phi, phi^-1 of ``test_metric_oracles``.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pfaffian_oracle
from pfaffian_oracle import SkewMatrix
from conftest import nil12_qbal, nil12_qsg, nil_qgau, solv_aff_c, solv_rank1
from test_hermitian import joyce_su2_algebra
from test_metric_oracles import (
    GenericRoutes,
    _metric,
    evaluated_phi,
    evaluated_phi_inverse,
)

from hha import linalg
from hha.classify import classify_metric
from hha.forms import Form, bidegree_project
from hha.hermitian import Metric, phi, phi_inverse
from hha.hypercomplex import Geometry
from hha.liealg import LieAlgebraData
from hha.scalars import C_I, ComplexScalar, Scalar


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
def coupled_grams(draw, fields=(0, 2, 5)):
    """A positive quaternionic Hermitian Gram matrix with every pair of blocks
    coupled, over Q or Q(sqrt d) for d in ``fields`` (0 is Q).  Each real
    diagonal entry exceeds the bounds of its row (3 > sqrt 5), so G is
    strictly diagonally dominant and positive.
    """
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from(fields))
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
    eliminate = linalg.quaternionic_inverse_ints

    def counting(d, den, rows):
        calls.append(len(rows) // 2)   # quaternionic rows
        return eliminate(d, den, rows)

    def refuse(*args, **kwargs):
        raise AssertionError("metric construction made a second elimination")

    monkeypatch.setattr(linalg, "det", refuse)
    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(linalg, "hermitian_pivots", refuse)
    monkeypatch.setattr(pfaffian_oracle, "pfaffian", refuse)
    monkeypatch.setattr(SkewMatrix, "pfaffian", refuse)
    monkeypatch.setattr(linalg, "quaternionic_inverse_ints", counting)
    m = Metric.from_hermitian_matrix(geom, gram)
    monkeypatch.undo()
    assert calls == [2]
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


# Algebras over Q or Q(sqrt 2) whose del Omega^{n-1} does not vanish for every
# metric, by quaternionic dimension n.
READ_ALGEBRAS = {
    1: (solv_aff_c, solv_rank1, joyce_su2_algebra),
    2: (lambda: nil_qgau(2),),
    3: (nil12_qsg, nil12_qbal),
    4: (lambda: nil_qgau(4),),
}


@functools.lru_cache(maxsize=None)
def _read_geometry(n, k):
    builders = READ_ALGEBRAS[n]
    return Geometry.standard(builders[k % len(builders)]())


@settings(max_examples=12, deadline=None, database=None)
@given(coupled_grams(fields=(0, 2)), st.integers(0, 1))
def test_beta_trace_and_phi_reads_match_the_old_routes(gram, k):
    g = _read_geometry(len(gram) // 2, k)
    m = Metric.from_hermitian_matrix(g, gram)
    old = GenericRoutes(m)
    N = g.N
    assert m.canonical_forms().beta == old.solved_beta()
    cur = m.curvature()
    # sigma is not q-real: the trace and phi^-1 are complex-linear
    sigma = m.omega + Form.monomial(g.algebra.dim, (0, N - 1), C_I)
    for xi in (cur.del_j_alpha, cur.del_j_beta, m.omega, sigma):
        assert m._trace_ratio(xi) == old.trace_ratio(xi)
    omega_i = m.omega_i()
    for gamma in (omega_i, bidegree_project(cur.ric_ch, N, 1, 1) + omega_i.scale(C_I)):
        assert phi(g, gamma) == evaluated_phi(g, gamma)
    for s in (m.omega, sigma):
        assert phi_inverse(g, s) == evaluated_phi_inverse(g, s)
    assert phi_inverse(g, m.omega) == omega_i


@pytest.mark.parametrize("case", ["random:qgau8", "random:qsg12", "random:qbal12",
                                  "rotated:qsg12", "sqrt2:joyce_su2xsu2"])
def test_metric_reads_make_no_wedge_and_one_elimination(case, monkeypatch):
    base = _metric(case)
    g = base.geometry
    for name in ("del", "delbar", "del_j", "delbar_j"):
        g.frame._table(name)   # built lazily, before the reads are watched
    m = Metric(g, base.omega)
    calls = []
    eliminate = linalg.quaternionic_inverse_ints

    def counting(*args):
        calls.append(1)
        return eliminate(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a metric read made a wedge or an object elimination")

    monkeypatch.setattr(Form, "wedge", refuse)
    monkeypatch.setattr(linalg, "echelon", refuse)
    monkeypatch.setattr(linalg, "quaternionic_inverse_ints", counting)
    cf = m.canonical_forms()
    cur = m.curvature()
    forward = phi(g, m.omega_i())
    back = phi_inverse(g, m.omega)
    monkeypatch.undo()
    assert not cf.beta.is_zero() or not cur.del_j_alpha.is_zero()
    assert forward == m.omega and back == m.omega_i()
    # G^-1 came with the metric: classification eliminates G no further
    monkeypatch.setattr(linalg, "quaternionic_inverse_ints", counting)
    classify_metric(m)
    monkeypatch.undo()
    assert calls == []
