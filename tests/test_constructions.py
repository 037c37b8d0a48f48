import hashlib
import json

import pytest

from conftest import nil12_qbal, nil12_qsg
from dense_matrices import dense
from hha.catalog import get_example
from hha.classify import classify_metric, einstein_factor
from hha.constructions import (
    ConstructionError,
    JoyceBlock,
    JoyceData,
    JoyceDataError,
    QuaternionicRep,
    _RIGHT_MULT,
    arroyo_nicolini,
    barberis_fino,
    direct_sum,
    exact_inv_sqrt,
    joyce_build,
    joyce_su2_tori,
    joyce_su3_data,
    sp1_spin_rep,
)
from hha.documents import geometry_to_input, report_document, report_json
from hha.forms import Form, mask
from hha.hermitian import Metric, qpositivity_verdict
from hha.hypercomplex import Geometry, HypercomplexStructure
from hha.liealg import LieAlgebraData
from hha.scalars import ONE, ScalarField, ZERO, rational, root
from metric_identities import gram_real


def geom(alg):
    return Geometry.standard(alg)


def test_exact_inv_sqrt():
    assert exact_inv_sqrt(4) == rational(1, 2)
    assert exact_inv_sqrt(2) == root(2).inverse()
    assert exact_inv_sqrt(8) * exact_inv_sqrt(8) == rational(1, 8)
    assert exact_inv_sqrt(6) * exact_inv_sqrt(6) == rational(1, 6)


# -- direct sums -------------------------------------------------------------


def test_direct_sum_qbal_with_itself():
    g = geom(nil12_qbal())
    m = Metric.unitary(g)
    res = direct_sum(g, m, g, m)
    assert res.geometry.algebra.dim == 24
    assert res.propagated_flags["q_balanced"]
    assert not res.propagated_flags["hkt"]


def test_direct_sum_hyperkaehler():
    g = geom(LieAlgebraData.abelian(4))
    m = Metric.unitary(g)
    res = direct_sum(g, m, g, m)
    assert res.propagated_flags["hyperkaehler"]


def test_direct_sum_qbal_with_abelian():
    g1 = geom(nil12_qbal())
    g2 = geom(LieAlgebraData.abelian(8))
    res = direct_sum(g1, Metric.unitary(g1), g2, Metric.unitary(g2))
    assert res.propagated_flags["q_balanced"]


# -- central gluing -----------------------------------------------------------


def test_arroyo_nicolini_glue_qbal12_with_itself():
    g = geom(nil12_qbal())
    m = Metric.unitary(g)
    res = arroyo_nicolini(g, m, 2, g, m, 2)
    assert res.geometry.algebra.dim == 28
    assert res.geometry.algebra.validate().nilpotent
    assert res.output_report.flag("q_balanced")
    assert not res.output_report.flag("hkt")
    assert res.iff_flags_hold()
    assert not res.geometry.is_abelian()


def test_arroyo_nicolini_abelian_inputs_give_hkt():
    g = geom(LieAlgebraData.abelian(4))
    m = Metric.unitary(g)
    res = arroyo_nicolini(g, m, 1, g, m, 1)
    assert res.geometry.algebra.dim == 12
    assert res.output_report.flag("hkt")
    assert res.iff_flags_hold()
    # the glued algebra is no longer abelian, so it is not hyperkaehler
    assert not res.output_report.flag("hyperkaehler")


def test_arroyo_nicolini_precondition_violation():
    g = geom(nil12_qbal())
    m = Metric.unitary(g)
    with pytest.raises(ConstructionError, match="not central"):
        arroyo_nicolini(g, m, 2, g, m, 1)  # e1 of the second factor is not central
    with pytest.raises(ConstructionError, match="derived"):
        arroyo_nicolini(g, m, 2, g, m, 9)  # e9 is central but derived


def test_arroyo_nicolini_mixed_inputs():
    ga = geom(nil12_qbal())
    gb = geom(nil12_qsg())
    res = arroyo_nicolini(ga, Metric.unitary(ga), 2, gb, Metric.unitary(gb), 2)
    # qbal true only for the first input, so the glued metric is not q-balanced
    assert not res.output_report.flag("q_balanced")
    assert res.output_report.flag("q_strongly_gauduchon")
    assert res.iff_flags_hold()


# -- quaternionic representations and extensions ----------------------------------


def test_zero_rep_on_abelian_gives_hyperkaehler():
    alg = LieAlgebraData.abelian(4)
    g = geom(alg)
    rho = QuaternionicRep.zero(alg, 1)
    res = barberis_fino(g, Metric.unitary(g), rho)
    assert res.geometry.algebra.dim == 8
    assert res.output_report.flag("hyperkaehler")
    assert res.rep_is_skew and res.pullback_verified


def test_rep_validation_rejects_non_homomorphism():
    alg = LieAlgebraData.abelian(4)
    Ri, Rj, _ = _RIGHT_MULT
    # [rho0, rho1] != 0 = rho([e1, e2]), given as dense matrices or as columns
    with pytest.raises(ConstructionError, match=r"bracket on \(e1, e2\)"):
        QuaternionicRep(alg, 1, {0: dense(Ri), 1: dense(Rj)})
    with pytest.raises(ConstructionError, match=r"bracket on \(e1, e2\)"):
        QuaternionicRep.from_columns(alg, 1, {0: Ri, 1: Rj})
    # on H^2, right multiplications in the second block alone
    with pytest.raises(ConstructionError, match=r"bracket on \(e2, e4\)"):
        QuaternionicRep(alg, 2, {1: dense([{}] * 4 + _shift(Ri, 4)),
                                 3: dense([{}] * 4 + _shift(Rj, 4))})
    # one image commutes with itself: a right multiplication and the
    # identity are representations, skew and not skew
    rep = QuaternionicRep(alg, 2, {0: dense(Ri + _shift(Ri, 4))})
    assert rep.images == {0: Ri + _shift(Ri, 4)} and rep.is_skew()
    ident = [{j: ONE} for j in range(8)]
    assert not QuaternionicRep.from_columns(alg, 2, {2: ident}).is_skew()


def _shift(cols, off):
    return [{off + r: x for r, x in col.items()} for col in cols]


def test_rep_validation_rejects_structure_violation():
    alg = LieAlgebraData.abelian(4)
    Li = HypercomplexStructure.standard(1).columns["I"]
    # left multiplications rotate the structure sphere instead of commuting
    with pytest.raises(ConstructionError, match="e1 does not commute with the quaternionic"):
        QuaternionicRep(alg, 1, {0: dense(Li)})
    with pytest.raises(ConstructionError, match="e3 does not commute with the quaternionic"):
        QuaternionicRep.from_columns(alg, 2, {2: [{}] * 4 + _shift(Li, 4)})
    bad = [[ZERO] * 4 for _ in range(4)]
    bad[0][0] = ONE  # diag(1,0,0,0) is not quaternion-linear either
    with pytest.raises(ConstructionError, match="structure"):
        QuaternionicRep(alg, 1, {0: bad})
    with pytest.raises(ConstructionError, match="wrong size"):
        QuaternionicRep(alg, 2, {0: bad})


def test_rep_validation_rejects_an_index_outside_the_algebra_or_a_non_square_image():
    alg = LieAlgebraData.abelian(4)
    Ri = _RIGHT_MULT[0]
    for idx in (7, 4, -1):
        message = f"image index {idx} is not a basis index 0..3"
        with pytest.raises(ConstructionError, match=message):
            QuaternionicRep(alg, 1, {idx: dense(Ri)})
        with pytest.raises(ConstructionError, match=message):
            QuaternionicRep.from_columns(alg, 1, {idx: Ri})
    # four rows of three entries, and three rows of four
    for image in ([row[:3] for row in dense(Ri)], dense(Ri)[:3]):
        with pytest.raises(ConstructionError, match="e2 has wrong size: expected 4 x 4"):
            QuaternionicRep(alg, 1, {1: image})


def test_bf_on_aff_c_zero_rep_preserves_flags():
    from conftest import solv_aff_c
    g = geom(solv_aff_c())
    m = Metric.unitary(g)
    rho = QuaternionicRep.zero(g.algebra, 1)
    res = barberis_fino(g, m, rho)
    cf = res.metric.canonical_forms()
    # alpha of the base is -i z2; the pullback keeps the same expression
    from hha.scalars import C_I
    expect = res.geometry.zeta(2) * (-C_I)
    assert cf.alpha == expect
    assert res.pullback_verified
    base_rep = classify_metric(m, flags_only=True)
    for name in ("hkt", "balanced", "q_balanced", "q_gauduchon"):
        assert res.output_report.flag(name) == base_rep.flag(name)


def test_bf_spin_rep_on_joyce_su2_preserves_strong_hkt():
    joyce = joyce_build(joyce_su2_tori(1))
    g, m = joyce.geometry, joyce.metric
    rho = sp1_spin_rep(g.algebra, su2_indices=(1, 2, 3))
    assert rho.is_skew()
    res = barberis_fino(g, m, rho)
    assert res.geometry.algebra.dim == 8
    assert res.pullback_verified
    assert res.output_report.flag("strong_hkt")
    # Einstein property does not extend: factor must drop to None
    lam, residual = einstein_factor(res.metric)
    assert lam is None
    assert not residual.is_zero()


def test_bf_einstein_propagates_only_at_zero_factor():
    g = geom(LieAlgebraData.abelian(4))
    m = Metric.unitary(g)
    res = barberis_fino(g, m, QuaternionicRep.zero(g.algebra, 1))
    lam, _ = einstein_factor(res.metric)
    assert lam == ZERO


def test_bf_with_two_blocks_reproduces_its_recorded_bytes():
    """The extension of qbal12 by H^2 through the zero representation, the
    one multi-block case, exported and reported byte for byte as recorded."""
    g, m = get_example("qbal12").load()
    res = barberis_fino(g, m, QuaternionicRep.zero(g.algebra, 2))
    assert res.geometry.algebra.dim == 20
    exported = json.dumps(geometry_to_input("extension", res.geometry, res.metric),
                          sort_keys=True)
    report = report_json(report_document(res.output_report, None, frame=res.geometry.frame))
    assert hashlib.sha256((exported + report).encode()).hexdigest() == \
        "442b900ea41d9324399786e1894a16bc1daa4b109a4d56490dee32c67cd6994f"


# -- block builder ------------------------------------------------------------------


def test_joyce_su2_build():
    res = joyce_build(joyce_su2_tori(1))
    assert res.geometry.algebra.dim == 4
    assert res.einstein_factor == ONE
    assert res.mus == [root(2).inverse()]
    rep = classify_metric(res.metric, flags_only=True)
    assert rep.flag("strong_hkt")
    assert not rep.sl_flags["alpha_zero"]
    assert not rep.sl_flags["del_j_alpha_zero"]


def test_joyce_su2xsu2_build():
    res = joyce_build(joyce_su2_tori(2))
    assert res.geometry.algebra.dim == 8
    assert res.einstein_factor == ONE
    fr = res.geometry.frame
    dja = fr.del_j(res.metric.canonical_forms().alpha)
    assert dja == res.metric.omega
    rep = classify_metric(res.metric, flags_only=True)
    assert rep.flag("strong_hkt")
    # del_J alpha is exactly PSD and nonzero
    verdict = qpositivity_verdict(res.geometry, dja)
    assert verdict == "positive"


def test_joyce_su3_build():
    res = joyce_build(joyce_su3_data())
    alg = res.geometry.algebra
    assert alg.dim == 8
    prof = alg.validate()
    assert prof.semisimple
    assert res.einstein_factor == ONE
    assert res.mus == [rational(1, 2)]
    rep = classify_metric(res.metric, flags_only=True)
    assert rep.flag("strong_hkt")
    dja = res.geometry.frame.del_j(res.metric.canonical_forms().alpha)
    assert qpositivity_verdict(res.geometry, dja) == "positive"


def test_joyce_mu_override_recomputes_factor():
    data = JoyceData(blocks=[JoyceBlock(d=0, mu=rational(1, 2))],
                     field_descriptor=ScalarField("rational"))
    res = joyce_build(data)
    # brackets [e2,e3] = 2 mu e4 = e4 with the half-unit metric: factor 1/2
    assert res.einstein_factor == rational(1, 2)


def test_joyce_invalid_extra_bracket_rejected():
    data = joyce_su2_tori(1)
    data.extra_brackets = {(1, 2): {3: ONE}}
    with pytest.raises(JoyceDataError):
        joyce_build(data)


def test_joyce_torsion_three_form_symmetry():
    # bi-invariant torsion: T(X,Y,Z) = g([X,Y],Z) totally antisymmetric, d-closed
    res = joyce_build(joyce_su2_tori(2))
    alg, m = res.geometry.algebra, res.metric
    gram = gram_real(m)
    dim = alg.dim

    def torsion(i, j, t):
        br = alg.bracket_basis(i, j)
        from hha.scalars import C_ZERO
        total = C_ZERO
        for k, c in br.items():
            from hha.scalars import ComplexScalar
            total = total + ComplexScalar(c) * gram[k][t]
        return total

    terms = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            for t in range(j + 1, dim):
                val = torsion(i, j, t)
                # total antisymmetry
                assert torsion(j, i, t) == -val
                assert torsion(i, t, j) == -val
                if not val.is_zero():
                    terms[mask((i, j, t))] = val
    tform = Form(dim, 3, terms)
    assert alg.ce_differential(tform).is_zero()
