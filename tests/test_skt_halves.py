"""SKT for J and K and strong HKT read off the two halves of d Omega, against
the full forms of their conditions (``metric_identities.full_form_routes``).

``classify_metric`` forms a = d(J* del Omega) and b = d(J* delbar Omega),
and the ``classify`` module docstring derives what they give:
d(J* d omega_J) = w_J + conj(w_J) with w_J = b + a, d(K* d omega_K) =
w_K + conj(w_K) with w_K = b - a, del del_J conj(Omega) = -b^{2,2}, and
delbar omega_I is the (1,2) part of d omega_I.  Each identity is checked form
by form, and the report's SKT flags and strong HKT (value and residual)
against the flags the full forms give: on every catalog entry, on random
two-step geometries with random Gram metrics, in frames rotated by sqrt 2
and by (3/5, 4/5), and under ``--float``.  SKT for I, J and K and strong HKT
seldom part on these inputs, so the last test decides SKT for J and K on
drawn halves whose parts cancel, or not, type by type.
"""
import functools
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from metric_identities import full_form_routes, skt_halves
from test_geometry_oracles import SQRT2_PAIR, _structures, two_step_tables
from test_gram_lane import gram_matrices
from test_leibniz_lane import coefficients

from hha.catalog import entry_names, get_example
from hha.classify import _residual, _skt_j_k, classify_metric
from hha.documents import geometry_to_input, load_document, parse_input
from hha.forms import Form, bidegree_project, mask, numerators
from hha.hermitian import Metric
from hha.hypercomplex import Geometry, HypercomplexStructure, SpherePoint, StructureError
from hha.liealg import LieAlgebraData
from hha.scalars import rational

# the pair of ``--pair 0,3/5,4/5;0,-4/5,3/5``
PAIR_345 = (SpherePoint(0, rational(3, 5), rational(4, 5)),
            SpherePoint(0, rational(-4, 5), rational(3, 5)))


def assert_halves_match_the_full_forms(m):
    """Each full form equals its reading off a and b, and the report's SKT
    flags and strong HKT are those the full forms give.  Returns
    (SKT for I, J, K, strong HKT)."""
    fr, N = m.geometry.frame, m.N
    full = full_form_routes(m)
    a, b = skt_halves(m)
    w_j, w_k = b + a, b - a
    assert full["J"] == w_j + fr.conjugate(w_j)
    assert full["K"] == w_k + fr.conjugate(w_k)
    assert full["ddj_omega_bar"] == -bidegree_project(b, N, 2, 2)
    assert full["delbar_omega_i"] == bidegree_project(fr.d(m.omega_i()), N, 1, 2)
    report = classify_metric(m)
    skt = {"I": fr.del_(full["delbar_omega_i"]).is_zero(),
           "J": full["J"].is_zero(), "K": full["K"].is_zero()}
    assert report.skt == skt
    strong = report.flag("hkt") and full["ddj_omega_bar"].is_zero()
    residual = "" if strong else (_residual(full["ddj_omega_bar"], fr)
                                  or _residual(m.del_omega, fr))
    assert (report.flag("strong_hkt"), report.flags["strong_hkt"].residual) == (strong, residual)
    return skt["I"], skt["J"], skt["K"], strong


@pytest.mark.parametrize("name", entry_names())
def test_catalog_halves_match_the_full_forms(name):
    assert_halves_match_the_full_forms(get_example(name).load()[1])


@pytest.mark.parametrize("pair", [SQRT2_PAIR, PAIR_345], ids=["sqrt2", "3-4-5"])
@pytest.mark.parametrize("name", ["qsg12", "qbal12", "qgau8", "joyce_su2xsu2", "solv_aff_c",
                                  "solv_third"])
def test_rotated_halves_match_the_full_forms(name, pair):
    geometry, metric = get_example(name).load()
    assert_halves_match_the_full_forms(metric.in_rotated_frame(geometry.rotated(*pair)))


def _float_metric(name, pair):
    """The entry's metric under ``--float``, or the unitary metric of its
    geometry rotated by ``pair`` as a float document (its matrices and Omega
    rounded, so q-reality holds only to the float tolerance)."""
    geometry, metric = get_example(name).load()
    if pair is not None:
        geometry = geometry.rotated(*pair)
        metric = Metric.unitary(geometry)
    data = geometry_to_input(name, geometry, metric)
    data["scalar_field"] = {"kind": "float"}
    return load_document(parse_input(json.dumps(data)))[1]


@pytest.mark.parametrize("name, pair", [
    *((name, None) for name in ("qsg12", "qbal12", "joyce_su2xsu2", "joyce_su3",
                                "solv_rank1", "qgau16")),
    ("qsg12", PAIR_345), ("qbal12", PAIR_345), ("qsg12", SQRT2_PAIR)])
def test_float_halves_match_the_full_forms(name, pair):
    m = _float_metric(name, pair)
    assert numerators(m.omega) is None
    assert_halves_match_the_full_forms(m)


@settings(max_examples=80, deadline=None, database=None)
@given(case=two_step_tables(), which=st.integers(0, 3), data=st.data())
def test_random_halves_match_the_full_forms(case, which, data):
    dim, table, _ = case
    H = list(_structures(HypercomplexStructure.standard(dim // 4)))[which]
    try:
        geometry = Geometry(LieAlgebraData(dim, table), H)
    except StructureError:
        return   # not integrable
    gram = data.draw(gram_matrices(sizes=(dim // 4, dim // 4)))
    assert_halves_match_the_full_forms(Metric.from_hermitian_matrix(geometry, gram))


# -- SKT for J and K on drawn halves ----------------------------------------------------


_FRAME = Geometry.standard(LieAlgebraData.abelian(8)).frame


_RADICANDS = st.sampled_from((0, 2))


@functools.lru_cache(maxsize=None)
def _key_sets(p, q):
    """One to four distinct (p, q) keys of the 8-dimensional frame, a strategy
    built once per type rather than on every draw."""
    N = _FRAME.N
    keys = [mask(h + b) for h in itertools.combinations(range(N), p)
            for b in itertools.combinations(range(N, 2 * N), q)]
    return st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True)


@st.composite
def typed_forms(draw, p, q):
    """A nonzero (p, q)-form of the 8-dimensional frame over Q or Q(sqrt 2)."""
    d = draw(_RADICANDS)
    chosen = draw(_key_sets(p, q))
    return Form(2 * _FRAME.N, p + q, {key: draw(coefficients(d)) for key in chosen})


@settings(max_examples=300, deadline=None, database=None)
@given(b13=typed_forms(1, 3), other=typed_forms(1, 3), a04=typed_forms(0, 4),
       x22=typed_forms(2, 2), data=st.data())
def test_skt_of_j_and_k_reads_the_parts_of_the_halves(b13, other, a04, x22, data):
    """For a of types (1,3) and (0,4) and b of types (2,2) and (1,3),
    ``_skt_j_k`` is (w_J + conj(w_J) = 0, w_K + conj(w_K) = 0), w_J = b + a
    and w_K = b - a, on numerator forms and on plain ones alike."""
    fr, draw = _FRAME, data.draw
    a13 = draw(st.sampled_from([b13, -b13, other]))
    a = a13 + draw(st.sampled_from([Form.zero(8, 4), a04]))
    b22 = draw(st.sampled_from([x22 - fr.conjugate(x22), x22 + fr.conjugate(x22), x22]))
    b = b22 + b13
    w_j, w_k = b + a, b - a
    expected = ((w_j + fr.conjugate(w_j)).is_zero(), (w_k + fr.conjugate(w_k)).is_zero())
    if draw(st.booleans()):
        a, b = (Form.from_numerators(8, 4, *numerators(f)) for f in (a, b))
    assert _skt_j_k(fr, a, b) == expected
