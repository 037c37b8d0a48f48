import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    nil12_qbal,
    nil12_qsg,
    nil_qgau,
    solv_aff_c,
    solv_rank1,
    solv_third,
)
from hha.classify import (
    Certificate,
    CertificateRejection,
    GauduchonRequiredError,
    classify_metric,
    conformal_class_obstruction,
    einstein_factor,
    family_qsg_obstruction,
    qbal_nonexistence_certificate,
    qgau_family_symbolic_check,
    search_metrics,
    sl_and_class_check,
    solve_exactness,
)
from hha import linalg
from hha.catalog import get_example
from hha.forms import Form, indices
from hha.hermitian import Metric
from hha.hypercomplex import Geometry, SpherePoint
from hha.liealg import LieAlgebraData
from hha.scalars import (
    C_ONE,
    ComplexScalar,
    ONE,
    ZERO,
    rational,
)
from test_hermitian import joyce_su2_algebra, random_metric


def geom(alg):
    return Geometry.standard(alg)


def test_classify_abelian_hyperkaehler():
    g = geom(LieAlgebraData.abelian(8))
    rep = classify_metric(Metric.unitary(g))
    for name in ("hyperkaehler", "hkt", "strong_hkt", "q_balanced",
                 "q_strongly_gauduchon", "q_gauduchon", "balanced", "gauduchon"):
        assert rep.flag(name), name
    assert rep.skt == {"I": True, "J": True, "K": True}
    assert rep.einstein_factor == ZERO
    assert rep.sl_flags["alpha_zero"]


def test_classify_qbal12():
    g = geom(nil12_qbal())
    rep = classify_metric(Metric.unitary(g))
    assert rep.flag("q_balanced")
    assert not rep.flag("hkt")
    assert rep.flag("q_strongly_gauduchon") and rep.flag("q_gauduchon")
    assert rep.flag("balanced")
    assert any("non-abelian" in note for note in rep.notes)
    assert rep.sl_flags["alpha_zero"]


def test_classify_qsg12():
    g = geom(nil12_qsg())
    rep = classify_metric(Metric.unitary(g))
    assert rep.flag("q_strongly_gauduchon")
    assert not rep.flag("q_balanced")
    assert rep.flag("q_gauduchon")
    assert not rep.flag("balanced")
    assert rep.flag("gauduchon")
    assert "q_strongly_gauduchon" in rep.witnesses


def test_classify_qgau_family():
    for n in (2, 3):
        g = geom(nil_qgau(n))
        rep = classify_metric(Metric.unitary(g))
        assert rep.flag("q_gauduchon")
        assert not rep.flag("q_strongly_gauduchon")
        assert not rep.flag("q_balanced")


def test_solve_exactness_qsg12_witness():
    # del Omega^2 = 2 del_J(z3 z4 z5 z6 - z1 z2 z5 z6)
    g = geom(nil12_qsg())
    m = Metric.unitary(g)
    fr = g.frame
    target = fr.del_(m.omega_power(2))
    witness, info = solve_exactness(g, "del_j", target, (4, 0))
    assert witness is not None and info["consistent"]
    assert fr.del_j(witness) == target
    stored = (g.monomial((3, 4, 5, 6)) - g.monomial((1, 2, 5, 6))) * rational(2)
    assert fr.del_j(stored) == target


def test_solve_exactness_family_none():
    g = geom(nil_qgau(2))
    m = Metric.unitary(g)
    target = g.frame.del_(m.omega_power(1))
    assert not target.is_zero()
    witness, info = solve_exactness(g, "del_j", target, (2, 0))
    assert witness is None and not info["consistent"]


def test_solve_exactness_zero_target():
    g = geom(nil12_qsg())
    zero = Form.zero(12, 5)
    witness, _ = solve_exactness(g, "del_j", zero, (4, 0))
    assert witness is not None and witness.is_zero()


def test_solve_exactness_serves_del_and_del_j_on_the_top_minus_two_forms_only():
    g = geom(nil12_qsg())
    m = Metric.unitary(g)
    target = g.frame.del_(m.omega_power(2))
    for operator, bidegree in (("del_del_j", (4, 0)), ("delbar", (4, 0)),
                               ("del_j", (3, 1)), ("del", (2, 0))):
        with pytest.raises(ValueError, match="solves del or del_j on \\(4, 0\\)-forms"):
            solve_exactness(g, operator, target, bidegree)
    # del Omega^2 is del of Omega^2 itself
    witness, info = solve_exactness(g, "del", target, (4, 0))
    assert info["consistent"] and g.frame.del_(witness) == target


def test_einstein_factors_solvables():
    cases = [
        (solv_aff_c(), ZERO),
        (solv_rank1(), rational(-1, 2)),
        (solv_third(), rational(-3, 16)),
    ]
    for alg, expect in cases:
        g = geom(alg)
        lam, _ = einstein_factor(Metric.unitary(g))
        assert lam == expect


def test_einstein_factor_joyce_su2():
    g = geom(joyce_su2_algebra())
    lam, _ = einstein_factor(Metric.diagonal(g, [rational(1, 2)]))
    assert lam == ONE


def test_einstein_factor_none_with_residual():
    g = geom(nil12_qsg())
    lam, residual = einstein_factor(Metric.unitary(g))
    # del_J alpha = 0 but s^Ch = 0 as well: this metric IS Einstein with 0
    assert lam == ZERO or lam is None
    if lam is None:
        assert not residual.is_zero()


def test_einstein_scaling_covariance():
    g = geom(solv_rank1())
    m = Metric.unitary(g)
    lam, _ = einstein_factor(m)
    lam2, _ = einstein_factor(m.scaled(rational(3)))
    assert lam2 == lam / rational(3)


def test_sl_flags():
    for alg in (nil12_qbal(), nil12_qsg(), nil_qgau(2)):
        g = geom(alg)
        sl = sl_and_class_check(Metric.unitary(g))
        assert sl["alpha_zero"] and sl["d_eta_zero"] and sl["del_j_alpha_zero"]
    g = geom(joyce_su2_algebra())
    sl = sl_and_class_check(Metric.diagonal(g, [rational(1, 2)]))
    assert not sl["alpha_zero"]
    assert not sl["del_j_alpha_zero"]


def test_conformal_obstruction_abelian():
    g = geom(LieAlgebraData.abelian(8))
    rep = conformal_class_obstruction(Metric.unitary(g))
    assert rep.c1 == ZERO and rep.gamma_bis_unit == ZERO
    assert rep.q_gauduchon_in_class and rep.q_balanced_in_class


def test_conformal_obstruction_qbal12():
    g = geom(nil12_qbal())
    rep = conformal_class_obstruction(Metric.unitary(g))
    assert rep.c1 == ZERO and rep.gamma_bis_unit == ZERO
    assert rep.q_balanced_in_class


def test_conformal_obstruction_qsg12_no_qbal_in_class():
    g = geom(nil12_qsg())
    rep = conformal_class_obstruction(Metric.unitary(g))
    assert rep.c1 == ZERO
    assert rep.gamma_bis_unit.sign() < 0
    assert rep.q_gauduchon_in_class
    assert not rep.q_balanced_in_class


def test_conformal_obstruction_requires_gauduchon():
    g = geom(solv_rank1())
    with pytest.raises(GauduchonRequiredError):
        conformal_class_obstruction(Metric.unitary(g))


def test_qbal_certificate_accepted_qsg12():
    g = geom(nil12_qsg())
    cert = qbal_nonexistence_certificate(g, g.zeta(5) * rational(2))
    assert isinstance(cert, Certificate)
    assert cert.sigma == g.monomial((1, 2))
    assert len(cert.transcript) >= 3


@pytest.mark.parametrize("entry, index, sign, reason", [
    ("joyce_su3", 2, -1, "SL(n,H)"),
    ("joyce_su3", 2, 1, "negative"),
    ("joyce_su2xsu2", 2, -1, "SL(n,H)"),
    ("joyce_su2xsu2", 4, -1, "SL(n,H)"),
    ("joyce_su2xsu2", 2, 1, "seminegative"),
    ("joyce_su2xsu2", 4, 1, "seminegative"),
])
def test_qbal_certificate_rejected_off_sl_n_h(entry, index, sign, reason):
    # -z2 (and -z4) give a q-semipositive del(psi) on these unimodular Joyce
    # algebras, but their structures are not SL(n,H) and the unitary metric is
    # q-balanced, so the pairing argument must not accept
    g, m = get_example(entry).load()
    rej = qbal_nonexistence_certificate(g, g.zeta(index) * rational(sign))
    assert isinstance(rej, CertificateRejection)
    assert reason in rej.reason
    assert classify_metric(m, flags_only=True).flag("q_balanced")


def test_qbal_certificate_rejections():
    g = geom(nil12_qsg())
    rej = qbal_nonexistence_certificate(g, Form.zero(12, 1))
    assert isinstance(rej, CertificateRejection)
    assert "vanishes" in rej.reason
    # an indefinite target: psi = 2 z5 - 2 z6 gives z1z2 - z3z4
    psi = (g.zeta(5) - g.zeta(6)) * rational(2)
    rej = qbal_nonexistence_certificate(g, psi)
    assert isinstance(rej, CertificateRejection)
    assert "indefinite" in rej.reason


def test_search_finds_hkt_on_abelian():
    g = geom(LieAlgebraData.abelian(8))
    res = search_metrics(g, "hkt", height=2)
    assert res.witness is not None
    assert res.tested == 1


def test_search_exhausts_qsg_on_family():
    g = geom(nil_qgau(2))
    res = search_metrics(g, "q_strongly_gauduchon", height=2, budget=50)
    assert res.witness is None and res.exhausted


def test_height_grid_keeps_the_order_of_first_appearance():
    from hha.classify import _height_grid
    for height in range(1, 8):
        seen = []
        for p in range(1, height + 1):
            for q in range(1, height + 1):
                if rational(p, q) not in seen:
                    seen.append(rational(p, q))
        assert _height_grid(height) == seen


def test_search_budget_ends_the_full_family():
    g = geom(nil12_qsg())
    res = search_metrics(g, "q_balanced", family="full", height=1, budget=3)
    assert res.witness is None and not res.exhausted and res.tested == 3


def test_search_exhausts_qbal_on_qsg12():
    g = geom(nil12_qsg())
    res = search_metrics(g, "q_balanced", family="full", height=2, budget=40)
    assert res.witness is None


def test_family_qsg_obstruction_certificate():
    # the rank test makes a q-sG metric q-balanced, and the certificate rules
    # q-balanced metrics out: no invariant metric is q-sG
    g = geom(nil_qgau(2))
    assert family_qsg_obstruction(g)
    psi = g.zeta(2 * g.n) * rational(2)
    assert isinstance(qbal_nonexistence_certificate(g, psi), Certificate)


def test_qgau_family_symbolic_formula():
    for n in (2, 3, 4):
        g = geom(nil_qgau(n))
        assert qgau_family_symbolic_check(g)


def test_pair_dependence_of_qsg_on_qsg12():
    # (I, J): strongly Gauduchon; (J, I): the whole invariant family fails
    alg = nil12_qsg()
    g = geom(alg)
    rep = classify_metric(Metric.unitary(g), flags_only=True)
    assert rep.flag("q_strongly_gauduchon")
    rot = g.rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    m2 = Metric.unitary(g).in_rotated_frame(rot)
    rep2 = classify_metric(m2, flags_only=True)
    assert not rep2.flag("q_strongly_gauduchon")
    assert family_qsg_obstruction(rot)


def test_pair_independence_of_qbal_and_qgau():
    alg = nil12_qsg()
    g = geom(alg)
    m = Metric.unitary(g)
    rep = classify_metric(m, flags_only=True)
    pairs = [
        (SpherePoint(0, 1, 0), SpherePoint(1, 0, 0)),
        (SpherePoint(0, 0, 1), SpherePoint(1, 0, 0)),
        (SpherePoint(0, rational(3, 5), rational(4, 5)),
         SpherePoint(0, rational(-4, 5), rational(3, 5))),
    ]
    for p, q in pairs:
        rot = g.rotated(p, q)
        rep2 = classify_metric(m.in_rotated_frame(rot), flags_only=True)
        assert rep2.flag("q_balanced") == rep.flag("q_balanced")
        assert rep2.flag("q_gauduchon") == rep.flag("q_gauduchon")
        assert rep2.flag("balanced") == rep.flag("balanced")
        assert rep2.flag("gauduchon") == rep.flag("gauduchon")
        assert rep2.flag("hkt") == rep.flag("hkt")


def test_implication_chain_on_random_metrics():
    rng = random.Random(211)
    for alg in (LieAlgebraData.abelian(8), nil12_qbal(), nil12_qsg(),
                solv_aff_c(), solv_rank1(), solv_third()):
        g = geom(alg)
        for _ in range(3):
            m = random_metric(rng, g, diagonal=(g.algebra.dim > 8))
            rep = classify_metric(m, flags_only=True)
            # chain enforcement happens inside classify_metric; verify order here
            chain = ["hyperkaehler", "hkt", "q_balanced",
                     "q_strongly_gauduchon", "q_gauduchon"]
            values = [rep.flag(f) for f in chain]
            for a, b in zip(values, values[1:]):
                assert (not a) or b


def test_strong_hkt_flag_on_joyce():
    g = geom(joyce_su2_algebra())
    rep = classify_metric(Metric.diagonal(g, [rational(1, 2)]))
    assert rep.flag("hkt") and rep.flag("strong_hkt")
    assert rep.skt == {"I": True, "J": True, "K": True}
    assert rep.einstein_factor == ONE


@pytest.mark.parametrize("source", ["qgau8", "random12"])
def test_classify_builds_each_top_power_once(source, monkeypatch):
    from hha.catalog import get_example
    if source == "qgau8":
        g, m = get_example("qgau8").load()
    else:
        g = geom(nil12_qsg())
        m = random_metric(random.Random(5), g)
        assert any(s != r + 1 or r % 2 for r, s in map(indices, m.omega.terms)), \
            "diagonal metric"
    m = Metric(g, m.omega)
    built = []
    rebuilt_frames = []
    wedge_power = Form.wedge_power

    def counting(self, k):
        built.append((self, k))
        return wedge_power(self, k)

    monkeypatch.setattr(Form, "wedge_power", counting)
    monkeypatch.setattr(Geometry, "rotated",
                        lambda *a, **k: rebuilt_frames.append("rotated"))
    monkeypatch.setattr(Metric, "in_rotated_frame",
                        lambda *a, **k: rebuilt_frames.append("in_rotated_frame"))
    classify_metric(m)
    monkeypatch.undo()
    # every power of Omega is read from Pfaffian data, none multiplied out
    assert built == []
    assert rebuilt_frames == []


def test_family_check_never_inverts_the_gram_matrix(monkeypatch):
    from hha import linalg
    from hha.catalog import get_example
    g, _ = get_example("qgau8").load()
    inverted = []
    eliminate = linalg.quaternionic_inverse_ints

    def counting(d, den, rows):
        inverted.append(len(rows) // 2)   # quaternionic rows
        return eliminate(d, den, rows)

    def refuse(a):
        raise AssertionError("an exact G^-1 was inverted on scalar objects")

    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(linalg, "quaternionic_inverse_ints", counting)
    assert qgau_family_symbolic_check(g)
    assert inverted == []
    # G^-1 is computed once per metric, at construction
    m = Metric.diagonal(g, [ONE, rational(2)])
    assert inverted == [m.n]
    zeta = [g.zeta(r + 1) for r in range(m.N)]
    half = ComplexScalar(rational(1, 2))
    assert [[m.inner_product(a, b) for b in zeta] for a in zeta] == [
        [(C_ONE if r < 2 else half) if r == s else ComplexScalar(ZERO)
         for s in range(m.N)] for r in range(m.N)]
    assert inverted == [m.n]
    monkeypatch.undo()
    assert linalg.quaternionic_inverse_ints is eliminate


# -- oracles for the closed forms: catalog entries up to dimension 16, random
# non-diagonal metrics, and one metric in a frame rotated by a pair that mixes
# J and K


def _catalog_up_to_16():
    from hha.catalog import entry_names, get_example
    # entries without input data are constructed, of dimension 4 or 8
    return [name for name in entry_names()
            if (get_example(name).input_data or {"dimension": 0})["dimension"] <= 16]


def _oracle_metric(case):
    from hha.catalog import get_example
    kind, _, name = case.partition(":")
    if kind == "catalog":
        return get_example(name).load()[1]
    if kind == "random":
        # n >= 2: in quaternionic dimension one every metric is diagonal
        m = random_metric(random.Random(len(name)), get_example(name).load()[0])
        assert any(not m.gram[r][s].is_zero()
                   for r in range(m.N) for s in range(m.N) if r != s), "diagonal metric"
        return m
    g = geom(nil12_qsg())
    rot = g.rotated(SpherePoint(0, rational(3, 5), rational(4, 5)),
                    SpherePoint(0, rational(-4, 5), rational(3, 5)))
    return random_metric(random.Random(7), g).in_rotated_frame(rot)


ORACLE_CASES = (
    [f"catalog:{name}" for name in _catalog_up_to_16()]
    + [f"random:{name}" for name in ("qgau8", "joyce_su2xsu2", "qsg12", "qbal12")]
    + ["rotated:qsg12"]
)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_skt_of_j_and_k_matches_the_rotated_frame(case):
    """d(L* d omega_L) = -2i del delbar omega_L, the latter in L's own frame."""
    m = _oracle_metric(case)
    g, fr = m.geometry, m.geometry.frame
    minus_2i = ComplexScalar(ZERO, rational(-2))
    omega_j = m.omega + m.omega_bar()
    omega_k = (m.omega - m.omega_bar()) * ComplexScalar(ZERO, -ONE)
    skt = classify_metric(m).skt
    for label, pair, base_frame in (
        ("J", (SpherePoint(0, 1, 0), SpherePoint(0, 0, 1)),
         fr.d(fr.j_action(fr.d(omega_j)))),
        ("K", (SpherePoint(0, 0, 1), SpherePoint(1, 0, 0)),
         fr.d(fr.j_action(fr.i_action(fr.d(omega_k))))),
    ):
        rot = g.rotated(*pair)
        rf = rot.frame
        rotated = rf.del_(rf.delbar(m.in_rotated_frame(rot).omega_i()))
        assert fr.to_real(base_frame) == rf.to_real(rotated).scale(minus_2i), label
        assert skt[label] == rotated.is_zero(), label


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_omega_i_top_minus_one_matches_the_wedge_power(case):
    m = _oracle_metric(case)
    assert m.omega_i_top_minus_one() == m.omega_i().wedge_power(m.N - 1)


# -- the polarisation span of family_qsg_obstruction ------------------------------


def wedge_polarisation_span(g):
    """Rows of del(m_1 ^ ... ^ m_{n-1}) over a spanning set of the q-real
    (2,0)-forms: both unit coefficients of every monomial, symmetrised by
    J o conj, wedged multiset by multiset.  The oracle of the closed form."""
    fr, n, N, dim = g.frame, g.n, g.N, g.algebra.dim
    basis = []
    for r in range(N):
        for s in range(r + 1, N):
            for coeff in (C_ONE, ComplexScalar(ZERO, ONE)):
                seed = Form.monomial(dim, (r, s), coeff)
                cand = seed + fr.j_action(fr.conjugate(seed))
                if not cand.is_zero():
                    basis.append(cand)
    rows = []
    for combo in itertools.combinations_with_replacement(basis, n - 1):
        prod = Form.constant(dim, C_ONE)
        for form in combo:
            prod = prod.wedge(form)
        rows.append(fr.del_(prod).terms)
    return rows


POLARISATION_ENTRIES = ("abelian8", "abelian12", "joyce_su2xsu2", "joyce_su3",
                        "qbal12", "qgau8", "qgau12", "qsg12")
PAIRS = (None, (SpherePoint(0, 1, 0), SpherePoint(1, 0, 0)),
         (SpherePoint(0, 0, 1), SpherePoint(0, 1, 0)))


@pytest.mark.parametrize("pair", range(len(PAIRS)))
@pytest.mark.parametrize("name", POLARISATION_ENTRIES)
def test_polarisation_span_is_del_of_the_holomorphic_monomials(name, pair):
    g, _ = get_example(name).load()
    if PAIRS[pair] is not None:
        g = g.rotated(*PAIRS[pair])
    fr, n, N, dim = g.frame, g.n, g.N, g.algebra.dim
    monomials = [Form.monomial(dim, key)
                 for key in itertools.combinations(range(N), 2 * n - 2)]
    closed = [fr.del_(f).terms for f in monomials]
    wedged = wedge_polarisation_span(g)
    r_closed = len(linalg.echelon(closed))
    assert len(linalg.echelon(wedged)) == r_closed
    assert len(linalg.echelon(closed + wedged)) == r_closed
    image = [fr.del_j(f).terms for f in monomials]
    trivial = (len(linalg.echelon(wedged + image))
               == len(linalg.echelon(wedged)) + len(linalg.echelon(image)))
    assert family_qsg_obstruction(g) == trivial


# -- the family claims on sampled metrics -------------------------------------------
# The catalog proves them for every invariant metric; these draw non-diagonal
# metrics and classify each one.

_family_samples = settings(max_examples=5, deadline=None, database=None)


@pytest.mark.parametrize("name", ["qgau8", "qgau12", "qgau16"])
@_family_samples
@given(seed=st.integers(0, 2**32 - 1))
def test_random_qgau_metrics_are_q_gauduchon_and_not_q_sg(name, seed):
    g, _ = get_example(name).load()
    rep = classify_metric(random_metric(random.Random(seed), g),
                          flags_only=True)
    assert rep.flag("q_gauduchon")
    assert not rep.flag("q_balanced")
    assert not rep.flag("q_strongly_gauduchon")


@_family_samples
@given(seed=st.integers(0, 2**32 - 1))
def test_random_metrics_on_swapped_qsg12_are_not_q_sg(seed):
    # no del(psi) is q-real in this frame, so the q-balanced certificate does
    # not apply, and the rank test alone makes a q-sG metric q-balanced
    g, _ = get_example("qsg12").load()
    rot = g.rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    rep = classify_metric(random_metric(random.Random(seed), rot),
                          flags_only=True)
    assert not rep.flag("q_strongly_gauduchon")


@pytest.mark.parametrize("name", ["qgau16", "qgau20", "qgau24"])
def test_family_qsg_obstruction_certifies_large_qgau(name):
    g, _ = get_example(name).load()
    assert family_qsg_obstruction(g)
    psi = g.zeta(2 * g.n) * rational(2)
    assert isinstance(qbal_nonexistence_certificate(g, psi), Certificate)
    assert qgau_family_symbolic_check(g)
