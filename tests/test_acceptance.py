"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic with zero tolerance; the only numeric
bound is the wall-clock budget of the full catalog run.
"""
import random
import time

from hha.catalog import entry_names, get_example, run_report
from hha.classify import (
    classify_metric,
    einstein_factor,
    equivalence_audit,
    family_qsg_obstruction,
)
from hha.constructions import (
    arroyo_nicolini,
    barberis_fino,
    joyce_build,
    joyce_su2_tori,
    sp1_spin_rep,
)
from hha.forms import bidegree_project
from hha.hermitian import qpositivity_verdict
from hha.hypercomplex import SpherePoint
from hha.scalars import ComplexScalar, ONE, ZERO, rational
from metric_identities import (
    product_trace_identity,
    strong_torsion_scalar_identity,
    volume_form,
)
from test_hermitian import random_metric, random_q_real


def _line(criterion, ok):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- criterion 1: golden catalog ----------------------------------------------------


def test_criterion_1_golden_catalog():
    t0 = time.time()
    outcomes = run_report()
    elapsed = time.time() - t0
    failures = {
        o.name: [(c.label, c.detail) for c in o.checks if not c.passed]
        for o in outcomes if not o.passed
    }
    assert not failures, failures
    by_name = {o.name: o for o in outcomes}
    for name in ("qbal12", "qbal16", "qbal20"):
        rep = by_name[name].report
        assert rep.flag("q_balanced") and not rep.flag("hkt")
        geom, _ = get_example(name).load()
        assert not geom.is_abelian()
    for name in ("qsg12", "qsg16", "qsg20"):
        rep = by_name[name].report
        assert rep.flag("q_strongly_gauduchon")
        assert "q_strongly_gauduchon" in rep.witnesses
        assert not rep.flag("q_balanced")
    for n in range(2, 7):
        rep = by_name[f"qgau{4 * n}"].report
        assert rep.flag("q_gauduchon") and not rep.flag("q_strongly_gauduchon")
    print(f"\ncatalog run: {len(outcomes)} entries in {elapsed:.1f}s")
    assert elapsed < 60.0, f"catalog run took {elapsed:.1f}s (budget 60s)"
    _line("1 (golden catalog, exact, < 60s)", True)


# -- criterion 2: Einstein table ---------------------------------------------------


def test_criterion_2_einstein_table():
    expected = {
        "solv_aff_c": ZERO,
        "solv_rank1": rational(-1, 2),
        "solv_third": rational(-3, 16),
        "joyce_su2": ONE,
        "joyce_su2xsu2": ONE,
    }
    for name, want in expected.items():
        geom, metric = get_example(name).load()
        lam, _ = einstein_factor(metric)
        assert lam == want, (name, lam)
        if name == "solv_aff_c":
            assert metric.curvature().del_j_alpha.is_zero()
    _line("2 (Einstein factors exact)", True)


# -- criterion 3: identity suite ------------------------------------------------------


SPHERE_PAIRS = [
    (SpherePoint(0, 1, 0), SpherePoint(0, 0, 1)),
    (SpherePoint(0, 0, 1), SpherePoint(1, 0, 0)),
    (SpherePoint(0, rational(3, 5), rational(4, 5)),
     SpherePoint(0, rational(-4, 5), rational(3, 5))),
    (SpherePoint(rational(3, 5), rational(4, 5), 0),
     SpherePoint(rational(-4, 5), rational(3, 5), 0)),
    (SpherePoint(rational(5, 13), 0, rational(12, 13)),
     SpherePoint(rational(-12, 13), 0, rational(5, 13))),
]


def _identity_suite_for(metric, rng, pair_points=True):
    import math
    geom = metric.geometry
    fr = geom.frame
    n = metric.n
    # volume identity by direct form computation
    lhs = metric.omega_power(n).wedge(fr.conjugate(metric.omega_power(n)))
    lhs = lhs.scale(rational(1, math.factorial(n) ** 2))
    rhs = metric.omega_i().wedge_power(2 * n).scale(rational(1, math.factorial(2 * n)))
    assert lhs == rhs == volume_form(metric)
    # |pf|^2 = det of the Hermitian matrix (also re-checked at construction)
    assert metric.pf * metric.pf.conjugate() == ComplexScalar(metric.det_g)
    # dual-route agreement happens inside canonical_forms; run it
    cf = metric.canonical_forms()
    cur = metric.curvature()
    # trace agreement: s^Ch = 2 tr(del_J alpha) equals the Ricci trace
    ric_11 = bidegree_project(cur.ric_ch, geom.N, 1, 1)
    assert metric.trace_omega_i(ric_11) == ComplexScalar(cur.s_ch)
    # product identity on a random q-real pair
    if n >= 2:
        psi = random_q_real(rng, geom)
        zeta = random_q_real(rng, geom)
        l, r = product_trace_identity(metric, psi, zeta)
        assert l == r
    # torsion scalar identity
    assert strong_torsion_scalar_identity(metric) == ZERO
    # scalar curvature pair-independence at five sphere points
    if pair_points:
        for p, q in SPHERE_PAIRS:
            rot = geom.rotated(p, q)
            m2 = metric.in_rotated_frame(rot)
            cur2 = m2.curvature()
            assert cur2.s_ch == cur.s_ch
            assert cur2.s_bis == cur.s_bis


def test_criterion_3_identity_suite():
    rng = random.Random(20260808)
    plan = [
        ("abelian4", 8, False), ("solv_aff_c", 8, False),
        ("solv_rank1", 8, False), ("solv_third", 8, False),
        ("joyce_su2", 8, False),
        ("abelian8", 10, False), ("joyce_su2xsu2", 10, False),
        ("joyce_su3", 10, False), ("qgau8", 12, False),
        ("qbal12", 10, True), ("qsg12", 10, True), ("qgau12", 8, True),
    ]
    total = 0
    for name, count, diagonal in plan:
        geom, _ = get_example(name).load()
        for _ in range(count):
            m = random_metric(rng, geom, diagonal=diagonal)
            _identity_suite_for(m, rng)
            total += 1
    assert total >= 100
    print(f"\nidentity suite: {total} randomized exact metrics, zero failures")
    _line("3 (identity suite, >= 100 exact random metrics)", True)


# -- criterion 4: equivalence audits ---------------------------------------------------


def test_criterion_4_equivalence_audits():
    for name in entry_names():
        geom, metric = get_example(name).load()
        audit = equivalence_audit(metric)
        for flag, answers in audit.items():
            assert len(set(answers)) == 1, (name, flag, answers)
    _line("4 (definitional and equivalent characterisations agree)", True)


# -- criterion 5: strong torsion positivity ---------------------------------------------


def test_criterion_5_strong_hkt_positivity():
    for name in ("joyce_su2xsu2", "joyce_su3"):
        geom, metric = get_example(name).load()
        dja = metric.curvature().del_j_alpha
        assert not dja.is_zero()
        verdict = qpositivity_verdict(geom, dja)
        assert verdict in ("positive", "semipositive"), (name, verdict)
    geom, metric = get_example("abelian8").load()
    assert metric.curvature().del_j_alpha.is_zero()
    _line("5 (del_J alpha exactly PSD and nonzero; flat control zero)", True)


# -- criterion 6: construction round trips ----------------------------------------------


def test_criterion_6_construction_round_trips():
    geom, metric = get_example("qbal12").load()
    glued = arroyo_nicolini(geom, metric, 2, geom, metric, 2)
    assert glued.geometry.algebra.dim == 28
    assert glued.geometry.algebra.validate().nilpotent
    assert glued.iff_flags_hold()
    assert glued.output_report.flag("q_balanced")

    joyce = joyce_build(joyce_su2_tori(1))
    rho = sp1_spin_rep(joyce.geometry.algebra, su2_indices=(1, 2, 3))
    ext = barberis_fino(joyce.geometry, joyce.metric, rho)
    assert ext.pullback_verified
    assert ext.output_report.flag("strong_hkt")
    _line("6 (gluing closure and extension pullbacks exact)", True)


# -- criterion 7: pair dependence --------------------------------------------------------


def test_criterion_7_pair_dependence():
    geom, metric = get_example("qsg12").load()
    rep = classify_metric(metric, flags_only=True)
    assert rep.flag("q_strongly_gauduchon")
    swapped = geom.rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    m2 = metric.in_rotated_frame(swapped)
    rep2 = classify_metric(m2, flags_only=True)
    assert not rep2.flag("q_strongly_gauduchon")
    assert family_qsg_obstruction(swapped)
    for p, q in [(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0)),
                 (SpherePoint(0, 0, 1), SpherePoint(1, 0, 0)),
                 (SpherePoint(0, rational(3, 5), rational(4, 5)),
                  SpherePoint(0, rational(-4, 5), rational(3, 5)))]:
        rot = geom.rotated(p, q)
        rep_rot = classify_metric(metric.in_rotated_frame(rot),
                                  flags_only=True)
        assert rep_rot.flag("q_balanced") == rep.flag("q_balanced")
        assert rep_rot.flag("q_gauduchon") == rep.flag("q_gauduchon")
    _line("7 (pair dependence of the twisted-exactness condition)", True)
