import itertools
import random

import pytest

from conftest import nil12_qbal, nil12_qsg, solv_rank1, su2_block_algebra
from hha.forms import Form, pure_bidegree
from hha.hypercomplex import (
    ComplexFrame,
    Geometry,
    HypercomplexStructure,
    IntegrabilityError,
    SpherePoint,
    StructureError,
    is_abelian,
    validate_hypercomplex,
)
from hha.liealg import LieAlgebraData
from hha.scalars import (
    C_I,
    C_ONE,
    ComplexScalar,
    HALF,
    ONE,
    ZERO,
    rational,
)


def geom(alg):
    return Geometry.standard(alg)


def rand_complex_form(rng, geo, degree, nterms=3):
    dim = geo.algebra.dim
    keys = list(itertools.combinations(range(dim), degree))
    f = Form.zero(dim, degree)
    for _ in range(nterms):
        c = ComplexScalar(rational(rng.randint(-3, 3), rng.randint(1, 2)),
                          rational(rng.randint(-3, 3), rng.randint(1, 2)))
        f = f + Form.monomial(dim, rng.choice(keys), c)
    return f


# -- structure basics ---------------------------------------------------------


def test_standard_structure_relations():
    H = HypercomplexStructure.standard(2)
    K = H.K
    # K anticommutes with I and J
    from hha.linalg import mat_add, mat_mul
    for M in (H.I, H.J):
        anti = mat_add(mat_mul(K, M), mat_mul(M, K))
        assert all(x.is_zero() for row in anti for x in row)


def test_sphere_combo_squares_to_minus_identity():
    H = HypercomplexStructure.standard(1)
    p = SpherePoint(rational(3, 5), rational(4, 5), 0)
    from hha.hypercomplex import _is_minus_identity
    from hha.linalg import mat_mul
    L = H.combo(p)
    assert _is_minus_identity(mat_mul(L, L))


def test_sphere_point_validation():
    with pytest.raises(StructureError):
        SpherePoint(1, 1, 0)
    SpherePoint(0, 0, 1)


def test_rotate_pair_requires_orthogonality():
    H = HypercomplexStructure.standard(1)
    with pytest.raises(StructureError):
        H.rotate_pair(SpherePoint(1, 0, 0), SpherePoint(1, 0, 0))
    rotated = H.rotate_pair(SpherePoint(0, 0, 1), SpherePoint(1, 0, 0))
    assert rotated.I == H.K and rotated.J == H.I


def test_j_acts_on_frame_as_block_convention():
    g = geom(LieAlgebraData.abelian(4))
    z1 = g.zeta(1)
    jz1 = g.frame.j_action(z1)
    assert jz1 == -g.zeta_bar(2)
    z2 = g.zeta(2)
    assert g.frame.j_action(z2) == g.zeta_bar(1)


def test_i_action_eigenvalues():
    g = geom(LieAlgebraData.abelian(4))
    assert g.frame.i_action(g.zeta(1)) == g.zeta(1) * C_I
    assert g.frame.i_action(g.zeta_bar(1)) == g.zeta_bar(1) * (-C_I)


def test_j_squared_on_two_forms_is_identity():
    g = geom(LieAlgebraData.abelian(8))
    rng = random.Random(7)
    for _ in range(10):
        f = rand_complex_form(rng, g, 2)
        assert g.frame.j_action(g.frame.j_action(f)) == f


def test_validate_hypercomplex_abelian_and_nilpotent():
    validate_hypercomplex(LieAlgebraData.abelian(8), HypercomplexStructure.standard(2))
    validate_hypercomplex(nil12_qbal(), HypercomplexStructure.standard(3))
    validate_hypercomplex(nil12_qsg(), HypercomplexStructure.standard(3))


def test_validate_hypercomplex_rejects_nonintegrable():
    # Heisenberg + R: J fails the Nijenhuis condition on (e1, e2)
    alg = LieAlgebraData(4, {(0, 1): {2: ONE}})
    with pytest.raises(IntegrabilityError) as exc:
        validate_hypercomplex(alg, HypercomplexStructure.standard(1))
    assert exc.value.pair == (1, 2)
    assert "J" in str(exc.value)


def test_split_differentials_need_an_integrable_i():
    # the same Heisenberg + R algebra with I and J swapped: I is not integrable,
    # so d z^k has a (0,2) part and del, delbar are not derivations
    alg = LieAlgebraData(4, {(0, 1): {2: ONE}})
    H = HypercomplexStructure.standard(1)
    fr = ComplexFrame(alg, HypercomplexStructure(H.J, H.I))
    assert fr.d(Form.monomial(4, (0,))).coefficient((2, 3)) == ComplexScalar(ZERO, rational(-1, 4))
    with pytest.raises(StructureError, match="not integrable"):
        fr.del_(Form.monomial(4, (0,)))


def test_is_abelian():
    assert is_abelian(LieAlgebraData.abelian(8), HypercomplexStructure.standard(2))
    assert not is_abelian(nil12_qbal(), HypercomplexStructure.standard(3))
    assert not is_abelian(nil12_qsg(), HypercomplexStructure.standard(3))


def test_is_abelian_invariant_under_rotation():
    alg = nil12_qsg()
    H = HypercomplexStructure.standard(3)
    rot = H.rotate_pair(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    assert is_abelian(alg, H) == is_abelian(alg, rot)


# -- frames and conversions ---------------------------------------------------


def test_standard_frame_is_identity_change():
    g = geom(LieAlgebraData.abelian(4))
    z1_real = g.frame.to_real(g.zeta(1))
    assert z1_real == Form.monomial(4, (0,)) + Form.monomial(4, (1,), C_I)


def test_conversion_round_trip():
    g = geom(nil12_qsg())
    rng = random.Random(10)
    for deg in (1, 2):
        for _ in range(5):
            f = rand_complex_form(rng, g, deg)
            assert g.frame.to_complex(g.frame.to_real(f)) == f


def test_conjugation_is_involution_and_q_real_detection():
    g = geom(nil12_qbal())
    rng = random.Random(12)
    for _ in range(5):
        f = rand_complex_form(rng, g, 2)
        assert g.frame.conjugate(g.frame.conjugate(f)) == f
    omega = g.monomial((1, 2)) + g.monomial((3, 4)) + g.monomial((5, 6))
    assert g.frame.is_q_real(omega)
    # sign flips on diagonal blocks stay q-real (only positivity is lost)
    assert g.frame.is_q_real(g.monomial((1, 2)) - g.monomial((3, 4)))
    # an imaginary diagonal coefficient or an unpaired off-diagonal term is not
    assert not g.frame.is_q_real(g.monomial((1, 2), coeff=C_I))
    assert not g.frame.is_q_real(g.monomial((1, 3)))


# -- differentials -------------------------------------------------------------


def test_structure_equation_dzeta5_qbal12():
    g = geom(nil12_qbal())
    dz5 = g.frame.d(g.zeta(5))
    expect = (g.zeta(1).wedge(g.zeta(3)) + g.zeta_bar(1).wedge(g.zeta(3))) * HALF
    assert dz5 == expect


def test_structure_equations_qsg12():
    g = geom(nil12_qsg())
    dz5 = g.frame.d(g.zeta(5))
    expect5 = (
        g.zeta(1).wedge(g.zeta(2))
        + g.zeta_bar(1).wedge(g.zeta(2))
        - g.zeta(4).wedge(g.zeta_bar(4))
    ) * HALF
    assert dz5 == expect5
    dz6 = g.frame.d(g.zeta(6))
    expect6 = (
        g.zeta(3).wedge(g.zeta(4))
        + g.zeta_bar(3).wedge(g.zeta(4))
        + g.zeta(2).wedge(g.zeta_bar(2))
    ) * HALF
    assert dz6 == expect6


def test_split_differentials_qsg12():
    g = geom(nil12_qsg())
    fr = g.frame
    assert fr.del_(g.zeta(5)) == g.zeta(1).wedge(g.zeta(2)) * HALF
    assert fr.del_j(g.zeta(5)) == g.zeta(3).wedge(g.zeta(4)) * (-HALF)
    assert fr.del_(g.zeta(6)) == g.zeta(3).wedge(g.zeta(4)) * HALF
    assert fr.del_j(g.zeta(6)) == g.zeta(1).wedge(g.zeta(2)) * HALF
    assert fr.del_(Form.constant(12, C_ONE)).is_zero()


def test_split_recomposes_total_differential():
    g = geom(nil12_qsg())
    rng = random.Random(20)
    for _ in range(5):
        f = rand_complex_form(rng, g, 2)
        assert g.frame.del_(f) + g.frame.delbar(f) == g.frame.d(f)


def test_differential_identities_on_random_forms():
    g = geom(nil12_qsg())
    fr = g.frame
    rng = random.Random(21)
    for deg in (1, 2, 3):
        for _ in range(4):
            f = rand_complex_form(rng, g, deg)
            assert fr.del_(fr.del_(f)).is_zero()
            assert fr.delbar(fr.delbar(f)).is_zero()
            assert fr.del_j(fr.del_j(f)).is_zero()
            anti = fr.del_(fr.del_j(f)) + fr.del_j(fr.del_(f))
            assert anti.is_zero()


def test_delbar_is_conjugate_of_del():
    g = geom(nil12_qsg())
    fr = g.frame
    rng = random.Random(22)
    for _ in range(5):
        f = rand_complex_form(rng, g, 2)
        assert fr.delbar(f) == fr.conjugate(fr.del_(fr.conjugate(f)))


def test_rotated_pair_reproduces_total_differential():
    alg = nil12_qsg()
    g = Geometry.standard(alg)
    rot = g.rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    rng = random.Random(23)
    for _ in range(3):
        f = rand_complex_form(rng, rot, 2)
        real = rot.frame.to_real(f)
        lhs = rot.frame.to_real(rot.frame.d(f))
        assert lhs == alg.ce_differential(real)


def test_rotated_ji_frame_matches_printed_coframe():
    # the (J, I) coframe is w^{2k-1} = e^{4k-3} + i e^{4k-1}, w^{2k} = e^{4k-2} - i e^{4k}
    alg = nil12_qsg()
    g = Geometry.standard(alg).rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    for k in (1, 2, 3):
        w_odd = g.frame.to_real(g.zeta(2 * k - 1))
        expect_odd = Form.monomial(12, (4 * k - 4,)) + Form.monomial(12, (4 * k - 2,), C_I)
        assert w_odd == expect_odd
        w_even = g.frame.to_real(g.zeta(2 * k))
        expect_even = Form.monomial(12, (4 * k - 3,)) - Form.monomial(12, (4 * k - 1,), C_I)
        assert w_even == expect_even


def test_rotated_ji_structure_equations():
    # with respect to (J, I): del w6 = (i w1^w2 + w3^w4)/2, twisted del of w5 = (i w1^w2 - w3^w4)/2
    alg = nil12_qsg()
    g = Geometry.standard(alg).rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    fr = g.frame
    dw6 = fr.del_(g.zeta(6))
    expect6 = (g.zeta(1).wedge(g.zeta(2)) * C_I + g.zeta(3).wedge(g.zeta(4))) * HALF
    assert dw6 == expect6
    tw5 = fr.del_j(g.zeta(5))
    expect5 = (g.zeta(1).wedge(g.zeta(2)) * C_I - g.zeta(3).wedge(g.zeta(4))) * HALF
    assert tw5 == expect5
    for i in (1, 2, 3, 4, 5):
        assert fr.del_(g.zeta(i)).is_zero()
    for i in (1, 2, 3, 4, 6):
        assert fr.del_j(g.zeta(i)).is_zero()
