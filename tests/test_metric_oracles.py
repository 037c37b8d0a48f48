"""The generic routes that ``Metric`` replaced by closed forms, kept as oracles.

``Metric`` pairs forms by raising indices with h = G^-1, reads omega_L
linearly in L, and reads beta, the trace against Omega and phi, phi^-1 off
G, G^-1 and ``j_index``.  Here the older routes recompute the same tensors:
the determinant-minor inner product, the Gram-matrix solve for the Lefschetz
adjoint, the Hodge star monomial by monomial, beta by eliminating the
wedges z^r ^ Omega^{n-1}, the trace as a ratio of wedged top coefficients,
the Gram matrix, omega_L, phi and phi^-1 by evaluating forms on vectors, and
the bracket by a scan of the whole table.
"""
import functools
import itertools
import random

import pytest

from dense_matrices import dense, mat_mul, transpose
from frame_evaluation import evaluate, frame_vector, i_vector, j_vector, k_vector
from hha import linalg
from hha.forms import Form, bidegree_split, indices, mask
from hha.hermitian import ConsistencyError, Metric, MetricError, hermitian_matrix_of
from hha.hypercomplex import Geometry, HypercomplexStructure, SpherePoint, StructureError
from hha.liealg import LieAlgebraData
from hha.scalars import C_I, C_ONE, C_ZERO, ComplexScalar, ONE, ZERO, rational, root
from metric_identities import gram_real, hodge_star
from test_classify import ORACLE_CASES, _oracle_metric
from test_hermitian import random_q_real
from test_liealg_oracles import _row_echelon, dense_inverse


class GenericRoutes:
    """Inner product, adjoint, star and omega_L of a metric by generic means."""

    def __init__(self, m: Metric):
        self.m = m
        self.N = m.N
        self.dim = m.geometry.algebra.dim
        self.g_inv = dense_inverse(m.gram)

    def covector_product(self, i, j):
        """<z^i, z^j> = (G^-1)_{ji}, conjugated on the antiholomorphic block."""
        N = self.N
        if i < N and j < N:
            return self.g_inv[j][i]
        if i >= N and j >= N:
            return self.g_inv[j - N][i - N].conjugate()
        return C_ZERO

    def inner_product(self, a, b):
        """The determinant extension of the covector product, pair by pair."""
        total = C_ZERO
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                minor = [[self.covector_product(i, j) for j in indices(kb)] for i in indices(ka)]
                total = total + ca * cb.conjugate() * (linalg.det(minor) if ka else C_ONE)
        return total

    def lefschetz_adjoint(self, a, conjugate=False):
        """Solve <Lambda a, b> = <a, L ^ b> over the monomials b of the target type."""
        N, dim = self.N, self.dim
        L = self.m.omega_bar() if conjugate else self.m.omega
        out = Form.zero(dim, max(a.degree - 2, 0))
        for (p, q), part in bidegree_split(a, N).items():
            tp, tq = (p, q - 2) if conjugate else (p - 2, q)
            if tp < 0 or tq < 0:
                continue
            basis = [Form.monomial(dim, hol + anti)
                     for hol in itertools.combinations(range(N), tp)
                     for anti in itertools.combinations(range(N, 2 * N), tq)]
            mat = [[self.inner_product(bm, bn) for bm in basis] for bn in basis]
            rhs = [self.inner_product(part, L.wedge(bn)) for bn in basis]
            # the reduced rows of [mat | rhs]; the Gram matrix of the basis is
            # invertible, so every column of mat is a pivot
            system = [[*row, c] for row, c in zip(mat, rhs)]
            assert _row_echelon(system) == list(range(len(basis)))
            for row, bm in zip(system, basis):
                out = out + bm.scale(row[-1])
        return out

    def solved_beta(self):
        """beta ^ Omega^{n-1} = del Omega^{n-1} by one elimination: each (2n-1,0)
        monomial gives one equation in the coefficients of beta, with the
        target in column N."""
        m, N, dim = self.m, self.N, self.dim
        power = m.omega_power(m.n - 1)
        equations = {}
        for r in range(N):
            for k, c in Form.monomial(dim, (r,)).wedge(power).terms.items():
                equations.setdefault(k, {})[r] = c
        for k, c in m.geometry.frame.del_(power).terms.items():
            equations.setdefault(k, {})[N] = c
        rows = linalg.echelon(equations.values())
        if N in rows:
            raise ConsistencyError("beta solve failed; hard Lefschetz violated")
        return Form(dim, 1, {mask((r,)): row[N] for r, row in rows.items() if N in row})

    def trace_ratio(self, xi):
        """n (xi ^ Omega^{n-1}) / Omega^n as a ratio of top coefficients."""
        m, top = self.m, tuple(range(self.N))
        num = xi.wedge(m.omega_power(m.n - 1)).coefficient(top)
        den = m.omega_power(m.n).coefficient(top)
        return num * den.inverse() * ComplexScalar(rational(m.n))

    def hodge_star(self, a):
        """psi ^ star(a) = <psi, a> vol, one monomial psi at a time."""
        N, dim = self.N, self.dim
        top = tuple(range(dim))
        vol = ComplexScalar(self.m.det_g)
        out = Form.zero(dim, dim - a.degree)
        for (p, q), part in bidegree_split(a, N).items():
            for hol in itertools.combinations(range(N), p):
                for anti in itertools.combinations(range(N, 2 * N), q):
                    psi = Form.monomial(dim, hol + anti)
                    pairing = self.inner_product(psi, part)
                    if pairing.is_zero():
                        continue
                    comp = tuple(i for i in top if i not in hol + anti)
                    sign = psi.wedge(Form.monomial(dim, comp)).coefficient(top)
                    out = out + Form.monomial(dim, comp, pairing * vol * sign)
        return out

    def omega_for_L(self, p):
        """g(L e_i, e_j) on the real basis, with g = -(Omega + conj Omega)(J., .)
        evaluated on the adapted basis, moved to the complex frame."""
        geom, dim = self.m.geometry, self.dim
        fr = geom.frame
        P = [[ComplexScalar(fr.basis[a].get(i, ZERO)) for a in range(dim)] for i in range(dim)]
        P_inv = dense_inverse(P)
        g_e = mat_mul(transpose(P_inv), mat_mul(gram_real(self.m), P_inv))
        L = [[ComplexScalar(x) for x in row] for row in dense(geom.structure.combo(p))]
        w = mat_mul(transpose(L), g_e)
        real = Form(dim, 2, {mask((i, j)): w[i][j] for i in range(dim)
                             for j in range(i + 1, dim) if not w[i][j].is_zero()})
        return fr.to_complex(real)


def evaluated_gram(geom, sigma):
    """sigma(Z_r, J conj(Z_s)) by evaluating the form on the two vectors."""
    fr = geom.frame
    return [[evaluate(sigma, [frame_vector(fr, r + 1),
                              j_vector(fr, frame_vector(fr, s + 1, bar=True))])
             for s in range(geom.N)] for r in range(geom.N)]


def evaluated_phi(geom, gamma):
    """phi(gamma)(Z_r, Z_s) = (i gamma(J Z_r, Z_s) - gamma(K Z_r, Z_s)) / 2, r < s."""
    fr, N = geom.frame, geom.N
    terms = {}
    for r in range(N):
        for s in range(r + 1, N):
            zr, zs = frame_vector(fr, r + 1), frame_vector(fr, s + 1)
            val = evaluate(gamma, [j_vector(fr, zr), zs]).times_i() \
                - evaluate(gamma, [k_vector(fr, zr), zs])
            val = val * ComplexScalar(rational(1, 2))
            if not val.is_zero():
                terms[mask((r, s))] = val
    return Form(gamma.nsym, 2, terms)


def evaluated_phi_inverse(geom, sigma):
    """phi^-1 through q-real parts: sigma = s1 + i s2 with s1, s2 q-real, and
    gamma(Z_r, conj Z_s) = -(s + conj s)(J I Z_r, conj Z_s) for q-real s."""
    fr, N = geom.frame, geom.N
    jbar = fr.j_action(fr.conjugate(sigma))
    half = ComplexScalar(rational(1, 2))
    s1 = (sigma + jbar) * half
    s2 = (sigma - jbar) * (-C_I * half)

    def real_part_inverse(s):
        total = s + fr.conjugate(s)
        terms = {}
        for r in range(N):
            jizr = j_vector(fr, i_vector(fr, frame_vector(fr, r + 1)))
            for t in range(N):
                val = -evaluate(total, [jizr, frame_vector(fr, t + 1, bar=True)])
                if not val.is_zero():
                    terms[mask((r, N + t))] = val
            # the reconstruction has no (2,0) or (0,2) piece
            for t in range(r + 1, N):
                assert evaluate(total, [jizr, frame_vector(fr, t + 1)]).is_zero()
        return Form(sigma.nsym, 2, terms)

    return real_part_inverse(s1) + real_part_inverse(s2) * C_I


def scanned_bracket(alg, u, v):
    """[u, v] by a scan of every nonzero bracket of the algebra."""
    out = {}
    for (i, j), comps in alg.brackets.items():
        coeff = u.get(i, ZERO) * v.get(j, ZERO) - u.get(j, ZERO) * v.get(i, ZERO)
        for k, c in comps.items():
            out[k] = out.get(k, ZERO) + coeff * c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _sqrt2_metric():
    """A non-diagonal metric over Q(sqrt 2) with irrational Gram entries."""
    from hha.catalog import get_example
    rng = random.Random(11)
    g = get_example("joyce_su2xsu2").load()[0]
    std = Form(g.algebra.dim, 2, {mask((2 * i, 2 * i + 1)): C_ONE for i in range(g.n)})
    sym = random_q_real(rng, g).scale(root(2)) + random_q_real(rng, g)
    t = 1
    while True:
        try:
            return Metric(g, sym + std.scale(rational(t)))
        except MetricError:
            t *= 4


CASES = ORACLE_CASES + ["sqrt2:joyce_su2xsu2"]


@functools.lru_cache(maxsize=None)
def _metric(case):
    return _sqrt2_metric() if case.startswith("sqrt2:") else _oracle_metric(case)


def _random_form(rng, dim, degree, terms=4):
    """A random form whose monomials mix holomorphic and antiholomorphic indices."""
    out = {}
    for _ in range(terms):
        key = mask(rng.sample(range(dim), degree))
        out[key] = ComplexScalar(rational(rng.randint(-3, 3), rng.randint(1, 3)),
                                 rational(rng.randint(-3, 3), rng.randint(1, 3)))
    return Form(dim, degree, {k: c for k, c in out.items() if not c.is_zero()})


def _paired_forms(m):
    """Random forms of degree 0-4 and the forms classification pairs."""
    rng = random.Random(m.geometry.algebra.dim * 31 + len(m.omega.terms))
    dim, fr = m.geometry.algebra.dim, m.geometry.frame
    forms = [_random_form(rng, dim, k) for k in range(5)]
    cf = m.canonical_forms()
    return forms + [fr.del_(m.omega_bar()), fr.del_(m.omega), cf.alpha + cf.beta, cf.beta]


def test_the_sqrt2_case_has_irrational_off_diagonal_entries():
    m = _metric("sqrt2:joyce_su2xsu2")
    off = [m.gram[r][s] for r in range(m.N) for s in range(m.N) if r != s]
    assert any(not c.re.is_rational or not c.im.is_rational for c in off)
    assert any(not c.im.is_zero() for c in off)


@pytest.mark.parametrize("case", CASES)
def test_inner_product_matches_the_determinant_minors(case):
    m = _metric(case)
    old = GenericRoutes(m)
    forms = _paired_forms(m)
    pairs = [(a, b) for a in forms for b in forms if a.degree == b.degree]
    assert pairs
    for a, b in pairs:
        assert m.inner_product(a, b) == old.inner_product(a, b)


@pytest.mark.parametrize("case", CASES)
def test_lefschetz_adjoint_matches_the_gram_solve(case):
    m = _metric(case)
    old = GenericRoutes(m)
    for a in _paired_forms(m):
        for conjugate in (False, True):
            assert m.lefschetz_adjoint(a, conjugate) == old.lefschetz_adjoint(a, conjugate)


@pytest.mark.parametrize("case", CASES)
def test_hodge_star_matches_the_monomial_loop(case):
    m = _metric(case)
    old = GenericRoutes(m)
    for a in _paired_forms(m):
        assert hodge_star(m, a) == old.hodge_star(a)


@pytest.mark.parametrize("case", CASES)
def test_gram_matrix_matches_evaluation(case):
    m = _metric(case)
    g = m.geometry
    assert m.gram == evaluated_gram(g, m.omega)
    rng = random.Random(len(case))
    for _ in range(3):
        sigma = random_q_real(rng, g)   # q-real, in general indefinite
        assert hermitian_matrix_of(g, sigma) == evaluated_gram(g, sigma)


POINTS = [
    SpherePoint(1, 0, 0), SpherePoint(0, 1, 0), SpherePoint(0, 0, 1),
    SpherePoint(0, rational(3, 5), rational(4, 5)),
    SpherePoint(rational(-4, 5), 0, rational(3, 5)),
    SpherePoint(rational(2, 3), rational(-1, 3), rational(2, 3)),
]


@pytest.mark.parametrize("case", CASES)
def test_omega_for_L_matches_the_real_matrices(case):
    m = _metric(case)
    old = GenericRoutes(m)
    for p in POINTS:
        assert m.omega_for_L(p) == old.omega_for_L(p), p


def _cross(p, q):
    return SpherePoint(p.b * q.c - p.c * q.b, p.c * q.a - p.a * q.c, p.a * q.b - p.b * q.a)


@pytest.mark.parametrize("case", ["catalog:qgau8", "random:qsg12", "rotated:qsg12",
                                  "sqrt2:joyce_su2xsu2"])
def test_in_rotated_frame_matches_the_real_matrices(case):
    m = _metric(case)
    old = GenericRoutes(m)
    g = m.geometry
    for p, q in ((POINTS[1], POINTS[0]), (POINTS[3], SpherePoint(0, rational(-4, 5),
                                                                 rational(3, 5))),
                 (POINTS[5], SpherePoint(rational(2, 3), rational(2, 3), rational(-1, 3)))):
        rot = g.rotated(p, q)
        # the rotated pair is (I', J') = (p, q), so K' = p x q
        omega = (old.omega_for_L(q) + old.omega_for_L(_cross(p, q)).scale(C_I)) \
            .scale(rational(1, 2))
        expect = rot.frame.to_complex(g.frame.to_real(omega))
        assert m.in_rotated_frame(rot).omega == expect


def test_in_rotated_frame_refuses_a_structure_outside_the_sphere():
    # right multiplication by i and j on H: a hypercomplex structure on R^4
    # that commutes with the standard (left) one
    R_i = [[ZERO] * 4 for _ in range(4)]
    R_j = [[ZERO] * 4 for _ in range(4)]
    for (r, c, v) in ((1, 0, 1), (0, 1, -1), (3, 2, -1), (2, 3, 1)):
        R_i[r][c] = rational(v)
    for (r, c, v) in ((2, 0, 1), (3, 1, 1), (0, 2, -1), (1, 3, -1)):
        R_j[r][c] = rational(v)
    alg = LieAlgebraData.abelian(4)
    m = Metric.unitary(Geometry.standard(alg))
    other = Geometry(alg, HypercomplexStructure(R_i, R_j))
    # the traces against I, J and K all vanish: no point of the sphere
    with pytest.raises(StructureError, match="not a unit vector"):
        m.in_rotated_frame(other)


@pytest.mark.parametrize("name", ["qgau24", "qsg20", "qbal20", "joyce_su2xsu2",
                                  "joyce_su3", "solv_aff_c"])
def test_bracket_matches_the_scan(name):
    from hha.catalog import get_example
    alg = get_example(name).load()[0].algebra
    rng = random.Random(name)
    # over Q(sqrt D) some vector entries are irrational too
    unit = root(alg.field.d) if alg.field.kind == "quadratic" else ONE
    for _ in range(40):
        u, v = ({k: rational(rng.randint(-3, 3), rng.randint(1, 2))
                 * (unit if rng.random() < 0.3 else ONE)
                 for k in rng.sample(range(alg.dim), rng.randint(1, 4))}
                for _ in range(2))
        assert alg.bracket(u, v) == scanned_bracket(alg, u, v)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.bracket({i: ONE}, {j: ONE}) == alg.bracket_basis(i, j)
