"""Closed forms of the powers of Omega against repeated wedges.

Classification reads the powers of Omega it needs from Pfaffian data instead
of multiplying them out: Omega^n is one monomial and Omega^{n-1} is Pf times
a signed read of A^-1.  The mixed power Omega^{n-1} ^ conj(Omega^n) of the
audit oracles (``wedge_mixed_power``) wedges Omega^{n-1} with one monomial,
and is checked against the relabelling that this amounts to.  The cone of
(n-1)-st powers of q-positive forms is decided by one inertia read.  The
family checks read del and del_J of the (2n-2,0) monomials instead of any
power: ``qgau_family_symbolic_check`` decides
whether every invariant metric is q-Gauduchon, and the span that
``family_qsg_obstruction`` compares holds del(Omega^{n-1}) of every metric.
The oracles are ``Form.wedge_power``; for the family checks, del del_J of
each monomial as a form, the 2^n-point multilinear interpolation of the
diagonal family over built metrics, and del(Omega^{n-1}) of built
non-diagonal metrics; and for the power cone the root-extraction route that
the inertia read replaced.
"""
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import pfaffian_oracle
from pfaffian_oracle import SkewMatrix, pfaffian
from test_hermitian import random_metric
from test_liealg_oracles import _glue_indices, _loaded

from hha import catalog, linalg
from hha.classify import (
    classify_metric,
    qgau_family_symbolic_check,
)
from hha.constructions import arroyo_nicolini, direct_sum
from hha.documents import geometry_to_input, load_document, parse_input
from hha.forms import Form, cofactor_power, indices, mask
from hha.hermitian import (
    Metric,
    QRealError,
    is_power_of_qpositive,
    qpositivity_verdict,
)
from hha.hypercomplex import SpherePoint
from hha.scalars import C_ZERO, ComplexScalar, ONE, Scalar, rational

_powers = settings(max_examples=20, deadline=None, database=None)


# -- oracles ---------------------------------------------------------------------


def interpolated_family_check(geom) -> bool:
    """Every diagonal metric is q-Gauduchon, checked at the 2^n points of
    {1, 2}^n: Omega(t)^{n-1} of diag(t) is multilinear in t, so
    del del_J(Omega(t)^{n-1}) vanishes for every t exactly when it vanishes
    at those points."""
    fr = geom.frame
    for point in itertools.product((ONE, rational(2)), repeat=geom.n):
        power = Metric.diagonal(geom, list(point)).omega.wedge_power(geom.n - 1)
        if not fr.del_(fr.del_j(power)).is_zero():
            return False
    return True


def per_monomial_family_check(geom) -> bool:
    """del del_J of every (2n-2,0) monomial, each a form through the kernel."""
    fr, dim = geom.frame, geom.algebra.dim
    return all(fr.del_(fr.del_j(Form.monomial(dim, key))).is_zero()
               for key in itertools.combinations(range(geom.N), 2 * geom.n - 2))


# -- skew matrices over Q and Q(sqrt 2) ------------------------------------------


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _skew_matrices(draw):
    """A sparse skew matrix of even size 2..10; zero rows make some singular."""
    size = 2 * draw(st.integers(min_value=1, max_value=5))
    d = draw(st.sampled_from((0, 2)))
    zero_rows = set(draw(st.lists(st.integers(0, size - 1), max_size=1)))
    entries = {}
    for i in range(size):
        for j in range(i + 1, size):
            if i in zero_rows or j in zero_rows or not draw(st.booleans()):
                continue
            parts = [Scalar(draw(_small), draw(_small) if d else 0, d) for _ in range(2)]
            entries[(i, j)] = ComplexScalar(*parts)
    return SkewMatrix(size, entries)


@_powers
@given(_skew_matrices())
def test_pfaffian_and_cofactor_power_match_the_wedges(skew):
    size = skew.size
    pf = skew.pfaffian()
    det = linalg.det(skew.full())
    assert pf * pf == det
    if not det.is_zero():
        m = size // 2
        omega = Form(size, 2, {mask(ij): c for ij, c in skew.entries.items()})
        expect = omega.wedge_power(m - 1).scale(rational(1, math.factorial(m - 1)))
        assert cofactor_power(pf, linalg.inverse(skew.full()), size) == expect


# -- metrics on constructed geometries -------------------------------------------


_SUMMANDS = ("abelian4", "abelian8", "joyce_su2", "qgau8", "solv_aff_c",
             "solv_rank1", "solv_third")
_NILPOTENT = ("abelian4", "abelian8", "qgau8")


def assert_powers_match_the_wedges(m: Metric):
    n, fr = m.n, m.geometry.frame
    for k in (n - 1, n):
        assert m.omega_power(k) == m.omega.wedge_power(k), k
    mixed = m.omega.wedge_power(n - 1).wedge(fr.conjugate(m.omega.wedge_power(n)))
    assert wedge_mixed_power(m) == mixed
    assert m.pf == SkewMatrix.from_form(m.omega, m.N).pfaffian()


@st.composite
def construction_metrics(draw):
    """A random metric on a direct sum or a central gluing of catalog entries."""
    kind = draw(st.sampled_from(("direct_sum", "arroyo_nicolini")))
    pool = _SUMMANDS if kind == "direct_sum" else _NILPOTENT
    (ga, ma), (gb, mb) = (_loaded(draw(st.sampled_from(pool))) for _ in range(2))
    if kind == "direct_sum":
        geom = direct_sum(ga, ma, gb, mb).geometry
    else:
        ia = draw(st.sampled_from(_glue_indices(ga.algebra)))
        ib = draw(st.sampled_from(_glue_indices(gb.algebra)))
        geom = arroyo_nicolini(ga, ma, ia, gb, mb, ib).geometry
    return random_metric(random.Random(draw(st.integers(0, 10 ** 6))), geom)


@_powers
@given(construction_metrics())
def test_metric_powers_match_the_wedges_on_constructions(m):
    assert_powers_match_the_wedges(m)


@pytest.mark.parametrize("name", ["joyce_su2", "qgau8", "qsg12", "qgau16"])
def test_metric_powers_match_the_wedges_on_catalog_metrics(name):
    g, m = _loaded(name)
    assert_powers_match_the_wedges(m)
    assert_powers_match_the_wedges(random_metric(random.Random(len(name)), g))


@pytest.mark.parametrize("name", ["abelian4", "joyce_su2", "qgau8", "qsg12", "qgau16"])
def test_omega_power_reads_only_the_top_two_exponents(name):
    _, m = _loaded(name)
    n = m.n
    for k in range(-1, n + 3):
        if k in (n - 1, n):
            assert m.omega_power(k) == m.omega.wedge_power(k)
        else:
            with pytest.raises(ValueError):
                m.omega_power(k)


# -- the mixed power ----------------------------------------------------------------


def wedge_mixed_power(m: Metric) -> Form:
    """Omega^{n-1} ^ conj(Omega^n): Omega^{n-1} wedged with the one monomial
    conj(Omega^n), the oracle of the balanced and Gauduchon routes that
    classification does not run (``test_audit_oracles``)."""
    c = m.omega_power(m.n).coefficient(range(m.N)).conjugate()
    top_bar = Form.monomial(m.geometry.algebra.dim, range(m.N, 2 * m.N), c)
    return m.omega_power(m.n - 1).wedge(top_bar)


def _float_loaded(name):
    data = geometry_to_input(name, *catalog.get_example(name).load())
    data["scalar_field"] = {"kind": "float"}
    return load_document(parse_input(json.dumps(data)))


def _fields(form: Form) -> list:
    """Each key with every field of its coefficient, floats by ``repr``."""
    return [(key, repr([(x.p, x.q, x.r, x.d) for x in (c.re, c.im)]))
            for key, c in form.terms.items()]


@pytest.mark.parametrize("name", catalog.entry_names())
def test_mixed_power_is_the_wedge_relabelled(name):
    """The oracles' mixed power is Omega^{n-1} relabelled: conj(Omega^n) is
    the one monomial c z^{[N, 2N)}, c = n! Pf (Pf is real), whose indices
    follow every index of Omega^{n-1}, so each key gains that block with sign
    +1 and each coefficient the factor c; key by key, in order and bit for
    bit on floats."""
    g, m = _loaded(name)
    for metric in (m, random_metric(random.Random(len(name)), g), _float_loaded(name)[1]):
        got = wedge_mixed_power(metric)
        low = metric.omega_power(metric.n - 1)
        c = metric.omega_power(metric.n).coefficient(range(metric.N)).conjugate()
        bar = mask(range(metric.N, 2 * metric.N))
        want = Form(low.nsym, 2 * metric.N - 2, {key | bar: y for key, x in low.terms.items()
                                                 if not (y := x * c).is_zero()})
        assert (got.nsym, got.degree) == (want.nsym, want.degree)
        assert _fields(got) == _fields(want)


# -- the power cone ------------------------------------------------------------------


def wedge_pairing_matrix(geom, a):
    """B[r][s] = top coefficient of a ^ z^r ^ z^s, one wedge per pair."""
    N, dim = geom.N, geom.algebra.dim
    top = tuple(range(N))
    B = [[C_ZERO] * N for _ in range(N)]
    for r in range(N):
        for s in range(r + 1, N):
            c = a.wedge(Form.monomial(dim, (r, s))).coefficient(top)
            B[r][s], B[s][r] = c, -c
    return B


def wedge_route_is_power(geom, a) -> bool:
    """The root-extraction decision that the inertia read replaced, for n >= 2.

    Invert the pairing Pfaffian-adjugate style: the pairing of the (n-1)-st
    divided power of the form of B is proportional to any (n-1)-st root of
    ``a``.  Raise that candidate to the (n-1)-st power by repeated wedges and
    look for an exact real ratio lambda to ``a``.  A root scale c has
    c^{n-1} = 1/lambda: a positive lambda admits a positive c, a negative one
    only a negative c with n - 1 odd.
    """
    n, N, dim = geom.n, geom.N, geom.algebra.dim
    B = wedge_pairing_matrix(geom, a)
    pf_b = pfaffian(B)
    if pf_b.is_zero():
        return False
    D = wedge_pairing_matrix(geom, cofactor_power(pf_b, linalg.inverse(B), dim))
    cand = Form(dim, 2, {mask((r, s)): D[r][s] for r in range(N) for s in range(r + 1, N)
                         if not D[r][s].is_zero()})
    if cand.is_zero():
        return False
    power = cand.wedge_power(n - 1).scale(rational(1, math.factorial(n - 1)))
    key, c = next(iter(a.terms.items()))
    lam = power.coefficient(indices(key)) / c
    if power != a.scale(lam) or not lam.is_real() or lam.re.is_zero():
        return False
    try:
        if lam.re.sign() > 0:
            return qpositivity_verdict(geom, cand) == "positive"
        return (n - 1) % 2 == 1 and qpositivity_verdict(geom, -cand) == "positive"
    except QRealError:
        return False


def power_by_wedges(omega, n):
    """Omega^{n-1}/(n-1)! by repeated wedges."""
    return omega.wedge_power(n - 1).scale(rational(1, math.factorial(n - 1)))


def random_q_real_power_form(rng, geom, terms=3):
    """A random q-real (2n-2,0)-form sigma + J conj(sigma); J conj is an
    involution in even degree."""
    fr, dim = geom.frame, geom.algebra.dim
    keys = list(itertools.combinations(range(geom.N), 2 * geom.n - 2))
    sigma = Form.zero(dim, 2 * geom.n - 2)
    for _ in range(terms):
        c = ComplexScalar(rational(rng.randint(-3, 3), rng.randint(1, 3)),
                          rational(rng.randint(-3, 3), rng.randint(1, 3)))
        sigma = sigma + Form.monomial(dim, rng.choice(keys), c)
    return sigma + fr.j_action(fr.conjugate(sigma))


# n = 2, 3, 4: the negative multiples cover n - 1 odd and even
_POWER_GEOMETRIES = ("abelian8", "abelian12", "abelian16", "qsg12", "qbal12")


@settings(max_examples=8, deadline=None, database=None)
@given(st.sampled_from(_POWER_GEOMETRIES), st.integers(0, 10 ** 6),
       st.sampled_from((rational(1, 64), ONE, rational(16))))
def test_inertia_read_matches_the_wedge_route(name, seed, noise):
    g, _ = _loaded(name)
    n = g.n
    rng = random.Random(seed)
    first, second = (random_metric(rng, g) for _ in range(2))
    power, other = (m.omega_power(n - 1).scale(rational(1, math.factorial(n - 1)))
                    for m in (first, second))
    assert power == power_by_wedges(first.omega, n)
    # Omega with one quaternionic block dropped: q-real, semipositive, degenerate
    block = 2 * rng.randrange(n)
    degenerate = Form(g.algebra.dim, 2, {k: c for k, c in first.omega.terms.items()
                                         if not set(indices(k)) & {block, block + 1}})
    cases = [  # label, form, the verdict when the lemma fixes it
        ("power", power, True),
        ("negative", power.scale(rational(-rng.randint(1, 3), rng.randint(1, 3))), False),
        ("sum", power + other, True),
        ("degenerate", power_by_wedges(degenerate, n), False),
        ("noisy", power + random_q_real_power_form(rng, g).scale(noise), None),
        ("difference", power - other, None),
    ]
    for label, a, known in cases:
        verdict = is_power_of_qpositive(g, a)
        assert verdict == wedge_route_is_power(g, a), (name, label)
        assert known is None or verdict == known, (name, label)


def test_power_decision_is_one_inertia_read(monkeypatch):
    g, _ = _loaded("qsg12")
    m = random_metric(random.Random(3), g)
    power = m.omega_power(g.n - 1).scale(rational(1, math.factorial(g.n - 1)))
    calls = []
    definiteness = linalg.hermitian_definiteness

    def counting(matrix):
        calls.append(len(matrix))
        return definiteness(matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("the power decision multiplied or inverted")

    monkeypatch.setattr(pfaffian_oracle, "pfaffian", refuse)
    monkeypatch.setattr(SkewMatrix, "pfaffian", refuse)
    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(Form, "wedge", refuse)
    monkeypatch.setattr(Form, "wedge_power", refuse)
    monkeypatch.setattr(linalg, "hermitian_definiteness", counting)
    assert is_power_of_qpositive(g, power)
    assert calls == [g.N]


# -- the family checks -------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "qgau8", "qgau12", "qgau16", "qgau20", "qgau24", "qsg12", "qsg16", "qbal12",
    "abelian8", "abelian4", "joyce_su2", "joyce_su2xsu2", "solv_third",
])
def test_polarised_family_check_matches_the_interpolation(name):
    g, _ = _loaded(name)
    polarised = qgau_family_symbolic_check(g)
    assert polarised == per_monomial_family_check(g)
    if polarised:
        # the diagonal metrics are among the invariant metrics
        assert interpolated_family_check(g)
    # every listed entry but joyce_su2xsu2 has q-Gauduchon for all metrics
    assert polarised == (name != "joyce_su2xsu2")


@pytest.mark.parametrize("name, pair", [
    ("qgau8", None), ("qgau12", None), ("qsg12", None), ("qbal12", None),
    ("qsg12", (SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))),
])
def test_polarised_family_derivative_matches_built_metrics(name, pair):
    # del(Omega^{n-1}) of a built metric lies in the closed-form span that
    # family_qsg_obstruction reads: del of the holomorphic monomials
    g, _ = _loaded(name)
    if pair is not None:
        g = g.rotated(*pair)
    span = linalg.echelon(g.frame.corank_two_images("del").values())
    rng = random.Random(17)
    for _ in range(3):
        m = random_metric(rng, g)
        built = g.frame.del_(m.omega.wedge_power(g.n - 1))
        assert built == m.del_power
        assert len(linalg.echelon([*span.values(), built.terms])) == len(span)


# -- classification never multiplies a power out ------------------------------------


def test_classification_never_calls_wedge_power(monkeypatch):
    called = []
    wedge_power = Form.wedge_power

    def recording(self, k):
        called.append(k)
        return wedge_power(self, k)

    g, _ = _loaded("qsg12")
    m = random_metric(random.Random(5), g)
    assert any(s != r + 1 or r % 2 for r, s in map(indices, m.omega.terms)), "diagonal metric"
    monkeypatch.setattr(Form, "wedge_power", recording)
    outcomes = catalog.run_report(catalog.entry_names())
    classify_metric(Metric(g, m.omega))
    monkeypatch.undo()
    assert Form.wedge_power is wedge_power
    assert all(o.passed for o in outcomes)
    assert called == []
