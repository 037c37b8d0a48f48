import itertools
import random

import pytest

from conftest import (
    algebra_from_equations,
    nil12_qbal,
    nil12_qsg,
    nil_qgau,
    solv_rank1,
    su2_block_algebra,
)
from hha.forms import Form
from hha.liealg import (
    AlgebraError,
    JacobiError,
    LieAlgebraData,
    algebra_invariants,
)
from hha.scalars import C_ONE, ComplexScalar, ONE, ZERO, rational


def test_abelian_profile():
    prof = LieAlgebraData.abelian(4).validate()
    assert prof.nilpotent and prof.nilpotency_step == 1
    assert prof.center_dim == 4
    assert prof.derived_dim == 0
    assert prof.unimodular
    assert not prof.semisimple


def test_nil12_profile_two_step():
    prof = nil12_qbal().validate()
    assert prof.nilpotent and prof.nilpotency_step == 2
    assert prof.solvable and prof.unimodular
    assert prof.derived_dim == 4
    assert prof.center_dim == 7


def test_jacobi_violation_names_triple():
    with pytest.raises(JacobiError) as exc:
        LieAlgebraData(4, {
            (0, 1): {2: ONE},
            (0, 2): {0: ONE},
        })
    assert exc.value.triple == (1, 2, 3)


def test_su2_killing_form():
    b = su2_block_algebra().killing_form()
    # oracle: trace of ad(e_i) ad(e_j) computed directly from the brackets
    alg = su2_block_algebra()
    for i in range(4):
        for j in range(4):
            adi = alg.ad_matrix({i: ONE})
            adj = alg.ad_matrix({j: ONE})
            tr = ZERO
            for r in range(4):
                for s in range(4):
                    tr = tr + adi[r][s] * adj[s][r]
            assert b[i][j] == tr
    for i in (1, 2, 3):
        assert b[i][i] == rational(-8)
        assert b[0][i] == ZERO
    assert b[0][0] == ZERO


def test_nilpotent_killing_degenerate():
    heis = LieAlgebraData(4, {(0, 1): {2: ONE}})
    b = heis.killing_form()
    assert all(x == ZERO for row in b for x in row)


def test_semisimple_flag():
    su2 = LieAlgebraData(3, {
        (0, 1): {2: rational(2)},
        (2, 0): {1: rational(2)},
        (1, 2): {0: rational(2)},
    })
    prof = su2.validate()
    assert prof.semisimple
    assert prof.center_dim == 0
    assert prof.derived_dim == 3
    assert not prof.solvable


def test_solvable_not_nilpotent():
    prof = solv_rank1().validate()
    assert prof.solvable and not prof.nilpotent
    assert not prof.unimodular


def test_structure_equation_round_trip():
    alg = nil12_qsg()
    eqs = alg.structure_equations()
    rebuilt = LieAlgebraData.from_structure_equations(12, eqs)
    assert rebuilt.brackets == alg.brackets


def test_ce_differential_matches_printed_equation():
    alg = nil12_qbal()
    de9 = alg.ce_differential(Form.monomial(12, (8,)))
    assert de9 == Form.monomial(12, (0, 4))  # e1 ^ e5


def test_ce_differential_of_constant():
    alg = nil12_qbal()
    assert alg.ce_differential(Form.constant(12, C_ONE)).is_zero()


def test_ce_differential_squares_to_zero():
    alg = nil12_qsg()
    for k in range(12):
        ddk = alg.ce_differential(alg.ce_differential(Form.monomial(12, (k,))))
        assert ddk.is_zero()
    rng = random.Random(4)
    for deg in (2, 3):
        for _ in range(5):
            keys = list(itertools.combinations(range(12), deg))
            f = Form.zero(12, deg)
            for _ in range(3):
                c = ComplexScalar(rational(rng.randint(-3, 3)), rational(rng.randint(-3, 3)))
                f = f + Form.monomial(12, rng.choice(keys), c)
            assert alg.ce_differential(alg.ce_differential(f)).is_zero()


def test_ce_differential_leibniz():
    alg = nil12_qsg()
    rng = random.Random(8)
    keys1 = list(range(12))
    keys2 = list(itertools.combinations(range(12), 2))
    for _ in range(10):
        a = Form.monomial(12, (rng.choice(keys1),))
        b = Form.monomial(12, rng.choice(keys2))
        lhs = alg.ce_differential(a.wedge(b))
        rhs = alg.ce_differential(a).wedge(b) - a.wedge(alg.ce_differential(b))
        assert lhs == rhs


def test_algebra_invariants_nil12():
    inv = algebra_invariants(nil12_qbal())
    assert len(inv["center"]) == 7
    assert len(inv["derived"]) == 4
    assert inv["rational_structure_constants"]


def test_algebra_invariants_abelian_and_simple():
    inv = algebra_invariants(LieAlgebraData.abelian(4))
    assert len(inv["center"]) == 4 and len(inv["derived"]) == 0
    su2 = LieAlgebraData(3, {
        (0, 1): {2: rational(2)},
        (2, 0): {1: rational(2)},
        (1, 2): {0: rational(2)},
    })
    inv = algebra_invariants(su2)
    assert len(inv["center"]) == 0 and len(inv["derived"]) == 3


def test_in_derived_subalgebra():
    alg = nil12_qbal()
    assert alg.in_derived_subalgebra({8: ONE})
    assert not alg.in_derived_subalgebra({1: ONE})


def test_unimodularity_of_catalog_nilpotents():
    for alg in (nil12_qbal(), nil12_qsg(), nil_qgau(2), nil_qgau(3)):
        assert alg.validate().unimodular


def test_ce_differential_squares_to_zero_all_degrees_dim4():
    alg = solv_rank1()
    for deg in range(0, 4):
        for key in itertools.combinations(range(4), deg):
            f = Form.monomial(4, key)
            assert alg.ce_differential(alg.ce_differential(f)).is_zero()
