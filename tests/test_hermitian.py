import itertools
import math
import random

import pytest

from conftest import (
    nil12_qbal,
    nil12_qsg,
    solv_aff_c,
    solv_rank1,
    solv_third,
)
from frame_evaluation import evaluate, frame_vector
from hha.forms import Form, mask, pure_bidegree
from hha.hermitian import (
    Metric,
    MetricError,
    QRealError,
    is_power_of_qpositive,
    is_qpositive,
    phi,
    phi_inverse,
    qpositivity_verdict,
)
from hha.hypercomplex import Geometry, SpherePoint
from hha.liealg import LieAlgebraData
from hha.scalars import (
    C_I,
    C_ONE,
    ComplexScalar,
    ONE,
    ScalarField,
    ZERO,
    rational,
    root,
)
from metric_identities import (
    hodge_star,
    lefschetz_power_bijective,
    pointwise_torsion_identity,
    product_trace_identity,
    strong_torsion_scalar_identity,
    trace_omega,
    volume_form,
)


def geom(alg):
    return Geometry.standard(alg)


def joyce_su2_algebra():
    s = root(2)
    return LieAlgebraData(4, {
        (1, 2): {3: s},
        (3, 1): {2: s},
        (2, 3): {1: s},
    }, field=ScalarField("quadratic", 2))


def random_q_real(rng, g, positive=False, diagonal=False, height=4):
    """Random q-real (2,0)-form; optionally q-positive via diagonal boosting."""
    dim, N = g.algebra.dim, g.N
    if diagonal:
        terms = {
            mask((2 * i, 2 * i + 1)): ComplexScalar(rational(rng.randint(1, height),
                                                             rng.randint(1, 2)))
            for i in range(g.n)
        }
        return Form(dim, 2, terms)
    seed = Form.zero(dim, 2)
    keys = list(itertools.combinations(range(N), 2))
    for _ in range(3):
        c = ComplexScalar(rational(rng.randint(-height, height), rng.randint(1, 3)),
                          rational(rng.randint(-height, height), rng.randint(1, 3)))
        seed = seed + Form.monomial(dim, rng.choice(keys), c)
    sym = seed + g.frame.j_action(g.frame.conjugate(seed))
    if not positive:
        return sym
    std = Form(dim, 2, {mask((2 * i, 2 * i + 1)): C_ONE for i in range(g.n)})
    t = 1
    while True:
        cand = sym + std.scale(rational(t))
        try:
            Metric(g, cand)
            return cand
        except (MetricError, QRealError):
            t *= 4


def random_metric(rng, g, diagonal=False):
    return Metric(g, random_q_real(rng, g, positive=True, diagonal=diagonal))


# -- construction and matrices -------------------------------------------------


def test_unitary_metric_basics():
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    assert m.pf == C_ONE
    assert m.det_g == ONE
    assert m.gram == [[C_ONE if i == j else ComplexScalar(ZERO) for j in range(4)] for i in range(4)]


def test_metric_rejects_non_q_real():
    g = geom(LieAlgebraData.abelian(8))
    with pytest.raises(QRealError):
        Metric(g, g.monomial((1, 3)))


def test_metric_rejects_indefinite():
    g = geom(LieAlgebraData.abelian(8))
    with pytest.raises(MetricError):
        Metric(g, g.monomial((1, 2)) - g.monomial((3, 4)))


def test_pf_det_identity_random(seed=41):
    rng = random.Random(seed)
    g = geom(LieAlgebraData.abelian(8))
    for _ in range(8):
        m = random_metric(rng, g)
        assert m.pf * m.pf.conjugate() == ComplexScalar(m.det_g)


def test_from_hermitian_matrix_round_trip():
    rng = random.Random(43)
    g = geom(LieAlgebraData.abelian(8))
    for _ in range(5):
        m = random_metric(rng, g)
        again = Metric.from_hermitian_matrix(g, m.gram)
        assert again.omega == m.omega


def test_volume_identity_direct_form_computation():
    # Omega^n ^ conj(Omega)^n / (n!)^2 == omega_I^{2n} / (2n)!
    rng = random.Random(47)
    for alg in (LieAlgebraData.abelian(4), LieAlgebraData.abelian(8)):
        g = geom(alg)
        n = g.n
        for _ in range(4):
            m = random_metric(rng, g)
            lhs = m.omega_power(n).wedge(g.frame.conjugate(m.omega_power(n)))
            lhs = lhs.scale(rational(1, math.factorial(n) ** 2))
            rhs = m.omega_i().wedge_power(2 * n).scale(rational(1, math.factorial(2 * n)))
            assert lhs == rhs
            assert lhs == volume_form(m)


# -- the (1,1) correspondence -----------------------------------------------------


def test_phi_of_omega_i_is_omega():
    rng = random.Random(53)
    for alg in (LieAlgebraData.abelian(8), nil12_qsg()):
        g = geom(alg)
        for _ in range(4):
            m = random_metric(rng, g)
            assert phi(g, m.omega_i()) == m.omega


def test_phi_of_zero():
    g = geom(LieAlgebraData.abelian(8))
    assert phi(g, Form.zero(8, 2)).is_zero()


def test_phi_inverse_round_trip_and_reality():
    rng = random.Random(59)
    g = geom(LieAlgebraData.abelian(8))
    for _ in range(4):
        m = random_metric(rng, g)
        gamma = phi_inverse(g, m.omega)
        assert gamma == m.omega_i()
        assert g.frame.conjugate(gamma) == gamma  # real since omega is q-real


def test_phi_inverse_of_single_monomial():
    g = geom(LieAlgebraData.abelian(8))
    sigma = g.monomial((1, 2))
    gamma = phi_inverse(g, sigma)
    assert phi(g, gamma) == sigma
    assert pure_bidegree(gamma, g.N) == (1, 1)


def test_qpositivity_verdicts():
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    assert qpositivity_verdict(g, m.omega) == "positive"
    assert qpositivity_verdict(g, -m.omega) == "negative"
    assert qpositivity_verdict(g, g.monomial((1, 2))) == "semipositive"
    assert is_qpositive(g, m.omega)
    with pytest.raises(QRealError):
        qpositivity_verdict(g, g.monomial((1, 3)))


def test_power_bijection_decision():
    rng = random.Random(61)
    for alg in (LieAlgebraData.abelian(12), nil12_qbal()):
        g = geom(alg)
        n = g.n
        for _ in range(3):
            m = random_metric(rng, g)
            power = m.omega_power(n - 1).scale(rational(1, math.factorial(n - 1)))
            assert is_power_of_qpositive(g, power)
        # a q-real non-power: indefinite diagonal combination
        bad = g.monomial((1, 2)).wedge(g.monomial((3, 4))) - \
            g.monomial((3, 4)).wedge(g.monomial((5, 6)))
        assert not is_power_of_qpositive(g, bad)


# -- inner products, star, Lefschetz ------------------------------------------------


def test_inner_product_of_omega_is_n():
    rng = random.Random(67)
    for dim in (4, 8, 12):
        g = geom(LieAlgebraData.abelian(dim))
        m = Metric.unitary(g)
        assert m.inner_product(m.omega, m.omega) == ComplexScalar(rational(g.n))
    # anisotropic check against the determinant-extension oracle
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.diagonal(g, [rational(2), rational(3)])
    # <Omega, Omega> = sum |A_{2i-1,2i}|^2 <z..z> products = 4*(1/4) + 9*(1/9)
    assert m.inner_product(m.omega, m.omega) == ComplexScalar(rational(2))


def test_star_of_one_is_volume():
    rng = random.Random(71)
    g = geom(LieAlgebraData.abelian(8))
    m = random_metric(rng, g)
    assert hodge_star(m, Form.constant(8, C_ONE)) == volume_form(m)


def test_star_of_omega_identity():
    rng = random.Random(73)
    for alg in (LieAlgebraData.abelian(8), nil12_qbal()):
        g = geom(alg)
        n = g.n
        for _ in range(3):
            m = random_metric(rng, g)
            lhs = hodge_star(m, m.omega)
            rhs = m.omega_power(n - 1).wedge(g.frame.conjugate(m.omega_power(n)))
            rhs = rhs.scale(rational(1, math.factorial(n) * math.factorial(n - 1)))
            assert lhs == rhs


def test_star_of_one_forms():
    # star(psi) = -J conj(psi) ^ Omega^{n-1} ^ conj(Omega)^n / (n! (n-1)!)
    rng = random.Random(79)
    g = geom(LieAlgebraData.abelian(8))
    for _ in range(3):
        m = random_metric(rng, g)
        for r in (1, 2):
            psi = g.zeta(r)
            lhs = hodge_star(m, psi)
            jbar = g.frame.j_action(g.frame.conjugate(psi))
            rhs = -(jbar.wedge(m.omega_power(g.n - 1)).wedge(
                g.frame.conjugate(m.omega_power(g.n))))
            rhs = rhs.scale(rational(1, math.factorial(g.n) * math.factorial(g.n - 1)))
            assert lhs == rhs


def test_star_two_form_formula():
    # star(zeta) = -J conj(zeta) ^ Omega^{n-2} ^ conj(Omega)^n / (n!(n-2)!)
    #              + tr(J conj zeta) Omega^{n-1} ^ conj(Omega)^n / (n!(n-1)!)
    rng = random.Random(83)
    g = geom(LieAlgebraData.abelian(8))
    for _ in range(3):
        m = random_metric(rng, g)
        zeta = random_q_real(rng, g)
        jbar = g.frame.j_action(g.frame.conjugate(zeta))
        n = g.n
        t1 = -(jbar.wedge(m.omega.wedge_power(n - 2)).wedge(g.frame.conjugate(m.omega_power(n))))
        t1 = t1.scale(rational(1, math.factorial(n) * math.factorial(n - 2)))
        tr = m._trace_ratio(jbar)
        t2 = m.omega_power(n - 1).wedge(g.frame.conjugate(m.omega_power(n)))
        t2 = t2.scale(tr * ComplexScalar(rational(1, math.factorial(n) * math.factorial(n - 1))))
        assert hodge_star(m, zeta) == t1 + t2


def test_star_defining_identity_random():
    rng = random.Random(89)
    g = geom(LieAlgebraData.abelian(8))
    m = random_metric(rng, g)
    keys2 = list(itertools.combinations(range(8), 2))
    for _ in range(6):
        a = Form.monomial(8, rng.choice(keys2),
                          ComplexScalar(rational(rng.randint(-3, 3), 2),
                                        rational(rng.randint(-3, 3), 2)))
        b = Form.monomial(8, rng.choice(keys2), C_ONE)
        if pure_bidegree(a, 4) != pure_bidegree(b, 4):
            continue
        lhs = b.wedge(hodge_star(m, a))
        rhs = volume_form(m).scale(m.inner_product(b, a))
        assert lhs == rhs


def test_lefschetz_adjoint_of_omega_is_n():
    rng = random.Random(97)
    g = geom(LieAlgebraData.abelian(8))
    for _ in range(3):
        m = random_metric(rng, g)
        lam = m.lefschetz_adjoint(m.omega)
        assert lam == Form.constant(8, ComplexScalar(rational(g.n)))


def test_lefschetz_adjoint_defining_property():
    rng = random.Random(101)
    g = geom(LieAlgebraData.abelian(8))
    m = random_metric(rng, g)
    keys3 = list(itertools.combinations(range(4), 3))
    for _ in range(4):
        a = Form.monomial(8, rng.choice(keys3), ComplexScalar(rational(2), rational(-1)))
        lam_a = m.lefschetz_adjoint(a)
        for r in range(1, 5):
            psi = g.zeta(r)
            assert m.inner_product(lam_a, psi) == m.inner_product(a, m.omega.wedge(psi))


def test_lefschetz_power_bijective():
    rng = random.Random(103)
    g = geom(LieAlgebraData.abelian(8))
    m = random_metric(rng, g)
    assert lefschetz_power_bijective(m, 0)
    assert lefschetz_power_bijective(m, 1)


# -- traces ----------------------------------------------------------------------


def test_trace_of_omega_is_n():
    rng = random.Random(107)
    for dim in (4, 8, 12):
        g = geom(LieAlgebraData.abelian(dim))
        m = random_metric(rng, g)
        assert trace_omega(m, m.omega) == rational(g.n)


def test_trace_adapted_frame_formula():
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    xi = g.monomial((1, 2))
    assert trace_omega(m, xi) == ONE
    # adapted-frame oracle: sum of xi(Z_{2i-1}, Z_{2i})
    fr = g.frame
    total = sum(
        (evaluate(xi, [frame_vector(fr, 2 * i + 1), frame_vector(fr, 2 * i + 2)])
         for i in range(g.n)),
        ComplexScalar(ZERO),
    )
    assert ComplexScalar(trace_omega(m, xi)) == total


def test_trace_rejects_non_q_real():
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    with pytest.raises(QRealError):
        trace_omega(m, g.monomial((1, 3)))


def test_trace_identity_between_omega_and_omega_i():
    # tr_Omega(phi((gamma - J gamma)/2)) = tr_{omega_I}(gamma) / 2
    rng = random.Random(109)
    g = geom(LieAlgebraData.abelian(8))
    m = random_metric(rng, g)
    for _ in range(4):
        # a random real (1,1)-form
        gamma = Form.zero(8, 2)
        for _ in range(3):
            r, s = rng.randrange(4), rng.randrange(4)
            c = ComplexScalar(rational(rng.randint(-3, 3), 2), rational(rng.randint(-3, 3), 2))
            gamma = gamma + Form.monomial(8, (r, 4 + s), c)
        gamma = gamma + g.frame.conjugate(gamma)
        anti = (gamma - g.frame.j_action(gamma)).scale(rational(1, 2))
        lhs = m._trace_ratio(phi(g, anti))
        rhs = m.trace_omega_i(gamma) * ComplexScalar(rational(1, 2))
        assert lhs == rhs


# -- canonical forms: golden values ------------------------------------------------


def test_alpha_abelian_is_zero():
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    cf = m.canonical_forms()
    assert cf.alpha.is_zero() and cf.beta.is_zero()
    assert cf.theta.is_zero()


def test_alpha_aff_c():
    g = geom(solv_aff_c())
    m = Metric.unitary(g)
    cf = m.canonical_forms()
    assert cf.alpha == g.zeta(2) * (-C_I)
    assert g.frame.del_j(cf.alpha).is_zero()


def test_alpha_solv_rank1():
    g = geom(solv_rank1())
    m = Metric.unitary(g)
    cf = m.canonical_forms()
    assert cf.alpha == -g.zeta(1)
    dja = g.frame.del_j(cf.alpha)
    assert dja == m.omega.scale(rational(-1, 2))


def test_alpha_solv_third():
    g = geom(solv_third())
    m = Metric.unitary(g)
    cf = m.canonical_forms()
    assert cf.alpha == g.zeta(1) * ComplexScalar(rational(-3, 4))
    assert g.frame.del_j(cf.alpha) == m.omega.scale(rational(-3, 16))


def test_joyce_su2_einstein_identity():
    g = geom(joyce_su2_algebra())
    # with the orthonormal-frame brackets the Einstein metric is half the
    # unitary one; the unitary metric itself has factor 1/2
    m_unit = Metric.unitary(g)
    cf = m_unit.canonical_forms()
    assert g.frame.del_j(cf.alpha) == m_unit.omega.scale(rational(1, 2))
    m = Metric.diagonal(g, [rational(1, 2)])
    assert g.frame.del_j(m.canonical_forms().alpha) == m.omega


def test_beta_vanishes_for_hyperkaehler():
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    assert m.lefschetz_adjoint(g.frame.del_(m.omega)).is_zero()
    assert m.canonical_forms().beta.is_zero()


def test_dual_route_consistency_random():
    rng = random.Random(113)
    for alg in (nil12_qbal(), nil12_qsg(), solv_rank1(), solv_third()):
        g = geom(alg)
        for _ in range(3):
            m = random_metric(rng, g, diagonal=(g.algebra.dim > 8))
            m.canonical_forms()  # raises ConsistencyError on route mismatch


def test_alpha_beta_invariant_under_constant_rescaling():
    rng = random.Random(127)
    g = geom(nil12_qsg())
    m = random_metric(rng, g, diagonal=True)
    m2 = m.scaled(rational(7, 3))
    assert m.canonical_forms().alpha == m2.canonical_forms().alpha
    assert m.canonical_forms().beta == m2.canonical_forms().beta


# -- curvature ---------------------------------------------------------------------


def test_curvature_abelian_all_zero():
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    cur = m.curvature()
    assert cur.ric_ch.is_zero() and cur.ric_bis.is_zero() and cur.ric_ob.is_zero()
    assert cur.s_ch == ZERO and cur.s_bis == ZERO and cur.s_ob == ZERO


def test_curvature_solv_rank1_scalars():
    g = geom(solv_rank1())
    m = Metric.unitary(g)
    cur = m.curvature()
    # s^Ch = 2 n lambda with lambda = -1/2, n = 1
    assert cur.s_ch == rational(-1)


def test_curvature_joyce_su2():
    g = geom(joyce_su2_algebra())
    m = Metric.diagonal(g, [rational(1, 2)])
    cur = m.curvature()
    assert cur.s_ch == rational(2)  # 2 n lambda with lambda = 1, n = 1
    assert cur.del_j_alpha == m.omega


def test_scalar_curvature_scaling():
    rng = random.Random(131)
    g = geom(solv_third())
    m = Metric.unitary(g)
    c = rational(3, 2)
    m2 = m.scaled(c)
    assert m2.curvature().s_ch == m.curvature().s_ch / c
    assert m2.curvature().s_bis == m.curvature().s_bis / c


def test_scalar_curvatures_pair_independent():
    sqrt2_inv = root(2).inverse()
    points = [
        (SpherePoint(0, 1, 0), SpherePoint(0, 0, 1)),
        (SpherePoint(0, 0, 1), SpherePoint(1, 0, 0)),
        (SpherePoint(0, rational(3, 5), rational(4, 5)),
         SpherePoint(0, rational(-4, 5), rational(3, 5))),
        (SpherePoint(rational(3, 5), rational(4, 5), 0),
         SpherePoint(rational(-4, 5), rational(3, 5), 0)),
        (SpherePoint(sqrt2_inv, 0, sqrt2_inv),
         SpherePoint(sqrt2_inv, 0, -sqrt2_inv)),
    ]
    rng = random.Random(137)
    for alg in (nil12_qsg(), solv_rank1()):
        g = geom(alg)
        m = random_metric(rng, g, diagonal=True)
        cur = m.curvature()
        for p, q in points:
            rot = g.rotated(p, q)
            m2 = m.in_rotated_frame(rot)
            cur2 = m2.curvature()
            assert cur2.s_ch == cur.s_ch
            assert cur2.s_bis == cur.s_bis


def test_lee_form_pair_independent():
    rng = random.Random(139)
    g = geom(nil12_qsg())
    m = random_metric(rng, g, diagonal=True)
    theta_real = g.frame.to_real(m.canonical_forms().theta)
    rot = g.rotated(SpherePoint(0, 1, 0), SpherePoint(0, 0, 1))
    m2 = m.in_rotated_frame(rot)
    theta2_real = rot.frame.to_real(m2.canonical_forms().theta)
    assert theta_real == theta2_real


# -- omega for other structures -----------------------------------------------------


def test_omega_for_J_and_K():
    rng = random.Random(149)
    g = geom(nil12_qbal())
    m = random_metric(rng, g, diagonal=True)
    ob = m.omega_bar()
    assert m.omega_for_L(SpherePoint(0, 1, 0)) == m.omega + ob
    expect_k = (m.omega - ob) * (-C_I)
    assert m.omega_for_L(SpherePoint(0, 0, 1)) == expect_k
    assert m.omega_for_L(SpherePoint(1, 0, 0)) == m.omega_i()


def test_omega_for_equatorial_combination():
    # L = (J + K)/sqrt(2): omega_L = w Omega + conj(w) conj(Omega), w = (1 - i)/sqrt(2)
    g = geom(LieAlgebraData.abelian(8))
    m = Metric.unitary(g)
    s = root(2).inverse()
    p = SpherePoint(0, s, s)
    w = ComplexScalar(s, -s)
    assert w.abs2() == ONE
    expect = m.omega.scale(w) + m.omega_bar().scale(w.conjugate())
    assert m.omega_for_L(p) == expect


# -- torsion identities ---------------------------------------------------------------


def test_strong_torsion_scalar_identity():
    rng = random.Random(151)
    algs = [LieAlgebraData.abelian(8), nil12_qbal(), nil12_qsg(),
            solv_aff_c(), solv_rank1(), solv_third(), joyce_su2_algebra()]
    for alg in algs:
        g = geom(alg)
        m = random_metric(rng, g, diagonal=(g.algebra.dim > 8))
        assert strong_torsion_scalar_identity(m) == ZERO


def test_pointwise_torsion_identity():
    rng = random.Random(157)
    for alg in (nil12_qsg(), solv_rank1(), joyce_su2_algebra()):
        g = geom(alg)
        m = random_metric(rng, g, diagonal=(g.algebra.dim > 8))
        for r in range(g.N):
            z = frame_vector(g.frame, r + 1)
            lhs, rhs = pointwise_torsion_identity(m, z)
            assert lhs == rhs
        z = {0: C_ONE, g.N - 1: ComplexScalar(rational(2), rational(1))}
        lhs, rhs = pointwise_torsion_identity(m, z)
        assert lhs == rhs


def test_product_trace_identity_random_q_real_pairs():
    rng = random.Random(163)
    for alg in (LieAlgebraData.abelian(8), nil12_qbal()):
        g = geom(alg)
        m = random_metric(rng, g, diagonal=(g.algebra.dim > 8))
        for _ in range(4):
            psi = random_q_real(rng, g)
            zeta = random_q_real(rng, g)
            lhs, rhs = product_trace_identity(m, psi, zeta)
            assert lhs == rhs
