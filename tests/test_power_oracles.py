"""Closed forms of the powers of Omega against repeated wedges.

Classification reads every power of Omega from Pfaffian data instead of
multiplying it out: Omega^k / k! is the sum of the sub-Pfaffians Pf(A_S)
z^S, Omega^n is one monomial, Omega^{n-1} is Pf times a signed read of A^-1,
and the mixed power Omega^{n-1} ^ conj(Omega^n) is a relabelling.  The
diagonal-family checks polarise Omega^{n-1} into n fixed monomials.  The
oracles are ``Form.wedge_power`` and, for the family formula, the 2^n-point
multilinear interpolation over built metrics that the polarised check
replaced.
"""
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from test_hermitian import random_metric
from test_liealg_oracles import _glue_indices, _loaded

from hha import catalog, linalg
from hha.classify import (
    _diagonal_power_derivative,
    _diagonal_power_derivatives,
    classify_metric,
    qgau_family_symbolic_check,
)
from hha.constructions import arroyo_nicolini, direct_sum
from hha.forms import Form, SkewMatrix, cofactor_power
from hha.hermitian import Metric
from hha.hypercomplex import SpherePoint
from hha.scalars import ComplexScalar, ONE, Scalar, ZERO, rational

_powers = settings(max_examples=20, deadline=None, database=None)


# -- oracles ---------------------------------------------------------------------


def interpolated_family_check(geom) -> bool:
    """The diagonal-family formula checked at the 2^n points of {1, 2}^n.

    Both sides are multilinear in t, so agreement on {1,2}^n proves it for
    every t: del(Omega^{n-1}) of diag(t) equals
    -((n-1)!/2) (sum_{k<n-1} prod_{i != k} t_i) z^0...z^{2n-2}.
    """
    fr = geom.frame
    n, dim = geom.n, geom.algebra.dim
    for point in itertools.product((ONE, rational(2)), repeat=n):
        m = Metric.diagonal(geom, list(point))
        dp = fr.del_(m.omega.wedge_power(n - 1))
        expected = ZERO
        for k in range(n - 1):
            prod = ONE
            for i in range(n):
                if i != k:
                    prod = prod * point[i]
            expected = expected + prod
        expected = expected * rational(-math.factorial(n - 1), 2)
        if dp != Form.monomial(dim, range(2 * n - 1), ComplexScalar(expected)):
            return False
    return True


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
def test_divided_powers_match_the_wedge_powers(skew):
    size = skew.size
    omega = skew.to_form(size)
    power = Form.constant(size, ONE)  # omega.wedge_power(k), one wedge at a time
    for k in range(size // 2 + 1):
        if k:
            power = power.wedge(omega)
        fact = ComplexScalar(rational(math.factorial(k)))
        assert skew.divided_power(k, size).scale(fact) == power
    pf = skew.pfaffian()
    det = linalg.det(skew.full())
    assert pf * pf == det
    if not det.is_zero():
        m = size // 2
        expect = omega.wedge_power(m - 1).scale(rational(1, math.factorial(m - 1)))
        assert cofactor_power(pf, linalg.inverse(skew.full()), size) == expect


def test_divided_power_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        SkewMatrix(2, {(0, 1): ONE}).divided_power(-1, 2)


# -- metrics on constructed geometries -------------------------------------------


_SUMMANDS = ("abelian4", "abelian8", "joyce_su2", "qgau8", "solv_aff_c",
             "solv_rank1", "solv_third")
_NILPOTENT = ("abelian4", "abelian8", "qgau8")


def assert_powers_match_the_wedges(m: Metric):
    n, fr = m.n, m.geometry.frame
    for k in range(n + 1):
        assert m.omega_power(k) == m.omega.wedge_power(k), k
    mixed = m.omega.wedge_power(n - 1).wedge(fr.conjugate(m.omega.wedge_power(n)))
    assert m.mixed_power() == mixed
    assert m.pf * m.pf == linalg.det(m.skew.full())


@_powers
@given(data=st.data())
def test_metric_powers_match_the_wedges_on_constructions(data):
    kind = data.draw(st.sampled_from(("direct_sum", "arroyo_nicolini")))
    pool = _SUMMANDS if kind == "direct_sum" else _NILPOTENT
    (ga, ma), (gb, mb) = (_loaded(data.draw(st.sampled_from(pool))) for _ in range(2))
    if kind == "direct_sum":
        geom = direct_sum(ga, ma, gb, mb).geometry
    else:
        ia = data.draw(st.sampled_from(_glue_indices(ga.algebra)))
        ib = data.draw(st.sampled_from(_glue_indices(gb.algebra)))
        geom = arroyo_nicolini(ga, ma, ia, gb, mb, ib).geometry
    m = random_metric(random.Random(data.draw(st.integers(0, 10 ** 6))), geom)
    assert_powers_match_the_wedges(m)


@pytest.mark.parametrize("name", ["joyce_su2", "qgau8", "qsg12", "qgau16"])
def test_metric_powers_match_the_wedges_on_catalog_metrics(name):
    g, m = _loaded(name)
    assert_powers_match_the_wedges(m)
    assert_powers_match_the_wedges(random_metric(random.Random(len(name)), g))


# -- the diagonal family -----------------------------------------------------------


@pytest.mark.parametrize("name", [
    "qgau8", "qgau12", "qgau16", "qgau20", "qgau24",
    "qsg12", "qsg16", "qbal12", "abelian8", "abelian4", "joyce_su2", "solv_third",
])
def test_polarised_family_check_matches_the_interpolation(name):
    g, _ = _loaded(name)
    expect = interpolated_family_check(g)
    assert qgau_family_symbolic_check(g) == expect
    if name.startswith("qgau"):
        assert expect


@pytest.mark.parametrize("name, pair", [
    ("qgau8", None), ("qgau12", None), ("qsg12", None), ("qbal12", None),
    ("qsg12", (SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))),
])
def test_polarised_family_derivative_matches_built_metrics(name, pair):
    g, _ = _loaded(name)
    if pair is not None:
        g = g.rotated(*pair)
    rng = random.Random(17)
    derivatives = _diagonal_power_derivatives(g)
    for _ in range(3):
        t = [rational(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(g.n)]
        built = g.frame.del_(Metric.diagonal(g, t).omega.wedge_power(g.n - 1))
        assert _diagonal_power_derivative(derivatives, t) == built


# -- classification never multiplies a power out ------------------------------------


def test_classification_never_calls_wedge_power(monkeypatch):
    called = []
    wedge_power = Form.wedge_power

    def recording(self, k):
        called.append(k)
        return wedge_power(self, k)

    g, _ = _loaded("qsg12")
    m = random_metric(random.Random(5), g)
    assert any(s != r + 1 or r % 2 for r, s in m.omega.terms), "diagonal metric"
    monkeypatch.setattr(Form, "wedge_power", recording)
    outcomes = catalog.run_report(catalog.entry_names())
    classify_metric(Metric(g, m.omega))
    monkeypatch.undo()
    assert Form.wedge_power is wedge_power
    assert all(o.passed for o in outcomes)
    assert called == []
