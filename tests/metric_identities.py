"""Paper identities of a hyperhermitian metric, checked by the tests.

Classification needs none of these, so they are not methods of ``Metric``:
the volume form, the Riemannian Gram matrix on the adapted real basis, the
Hodge star, the trace against Omega, the hard Lefschetz bijection, both
sides of the torsion and product-trace identities, and the SKT and strong-HKT
conditions as full forms.  A power of Omega other than the n-th and
(n-1)-st, which ``Metric.omega_power`` reads, is multiplied out with
``Form.wedge_power``.
"""
import itertools
import math

from frame_evaluation import conj_vector, evaluate, j_vector
from hha import linalg
from hha.forms import Form, bidegree_project, indices, mask
from hha.hermitian import ConsistencyError, MetricError, QRealError
from hha.scalars import C_I, C_ONE, ONE, ZERO, ComplexScalar, rational
from tuple_keys import merge_keys


def volume_form(m) -> Form:
    """det G times the frame top form."""
    dim = m.geometry.algebra.dim
    return Form.monomial(dim, tuple(range(dim)), ComplexScalar(m.det_g))


def gram_real(m):
    """Riemannian Gram matrix on the adapted real basis u_a, whose frame
    coordinates are (Z_r + conj Z_r) for a = 2r and i (Z_r - conj Z_r) for
    a = 2r + 1."""
    fr = m.geometry.frame
    N, dim = m.N, m.geometry.algebra.dim
    opob = m.omega + m.omega_bar()
    coords = [{a // 2: C_ONE, N + a // 2: C_ONE} if a % 2 == 0
              else {a // 2: C_I, N + a // 2: -C_I} for a in range(dim)]
    return [[-evaluate(opob, [j_vector(fr, v), w]) for w in coords] for v in coords]


def hodge_star(m, a: Form) -> Form:
    """Hodge star defined by psi ^ star(a) = <psi, a> vol; conjugate-linear:
    star(a) = det G sum_I (a#)_I sign(I, I^c) z^{I^c}."""
    dim = m.geometry.algebra.dim
    vol = ComplexScalar(m.det_g)
    terms = {}
    for key, c in m._sharp(a).terms.items():
        idx = indices(key)
        comp = tuple(i for i in range(dim) if i not in idx)
        _, sign = merge_keys(idx, comp)
        c = c * vol
        terms[mask(comp)] = c if sign > 0 else -c
    return Form(dim, dim - a.degree, terms)


def trace_omega(m, xi: Form):
    """Trace of a q-real (2,0)-form against Omega; an exact real scalar."""
    if not m.geometry.frame.is_q_real(xi):
        raise QRealError("trace requires a q-real form")
    v = m._trace_ratio(xi)
    if not v.is_real():
        raise ConsistencyError("trace of a q-real form must be real")
    return v.re


def lefschetz_power_bijective(m, p: int) -> bool:
    """Check L^{n-p}: (p,0)-forms -> (2n-p,0)-forms is invertible."""
    N, dim, n = m.N, m.geometry.algebra.dim, m.n
    power = m.omega.wedge_power(n - p)
    source = list(itertools.combinations(range(N), p))
    if len(source) != math.comb(N, 2 * n - p):
        return False
    images = (power.wedge(Form.monomial(dim, key)).terms for key in source)
    return len(linalg.echelon(images)) == len(source)


def strong_torsion_scalar_identity(m):
    """(1/2) s^Ch + g(del del_J conj(Omega), Omega ^ conj(Omega)) - |del conj(Omega)|^2,
    which vanishes."""
    fr = m.geometry.frame
    cur = m.curvature()
    ob = m.omega_bar()
    ddj = fr.del_(fr.del_j(ob))
    pairing = m.inner_product(ddj, m.omega.wedge(ob))
    if not pairing.is_real():
        raise ConsistencyError("mixed pairing has an imaginary part")
    return cur.s_ch / 2 + pairing.re - m.norm2(fr.del_(ob))


def pointwise_torsion_identity(m, z: dict):
    """Both sides of the contraction identity for a (1,0) vector Z."""
    fr = m.geometry.frame
    cf = m.canonical_forms()
    dja = fr.del_j(cf.alpha)
    jzbar = j_vector(fr, conj_vector(fr, z))
    lhs = evaluate(dja, [z, jzbar])
    dob = fr.del_(m.omega_bar())
    t1 = m.norm2(dob.contract(z))
    t2 = m.norm2(dob.contract(jzbar))
    ddj = fr.del_(fr.del_j(m.omega_bar()))
    contracted = ddj.contract(z).contract(jzbar)
    ratio = m._trace_ratio(fr.conjugate(contracted)).conjugate()
    rhs = ComplexScalar(t1) + ComplexScalar(t2) - ratio
    return lhs, rhs


def product_trace_identity(m, psi: Form, zeta: Form):
    """Both sides of
    psi ^ zeta ^ Omega^{n-2}/(n-2)! = (tr(psi) tr(zeta) - g(psi, J conj zeta)) Omega^n/n!.
    """
    n = m.n
    if n < 2:
        raise MetricError("identity needs quaternionic dimension >= 2")
    fr = m.geometry.frame
    top = tuple(range(m.N))
    lhs = psi.wedge(zeta).wedge(m.omega.wedge_power(n - 2)).coefficient(top) \
        * ComplexScalar(rational(1, math.factorial(n - 2)))
    jzbar = fr.j_action(fr.conjugate(zeta))
    scal = m._trace_ratio(psi) * m._trace_ratio(zeta) - m.inner_product(psi, jzbar)
    rhs = scal * m.omega_power(n).coefficient(top) \
        * ComplexScalar(rational(1, math.factorial(n)))
    return lhs, rhs


def full_form_routes(m) -> dict:
    """The SKT and strong-HKT conditions as full forms, each as its defining
    differentials give it: d(J* d omega_J) and d(J* I* d omega_K)
    (dd^c_L omega_L = -d(L* d omega_L), K* = J* I*), del del_J conj(Omega) and
    delbar omega_I.  ``classify_metric`` reads them off the halves of d Omega."""
    fr = m.geometry.frame
    d_oj = fr.d(m.omega + m.omega_bar())
    d_ok = fr.d((m.omega - m.omega_bar()) * ComplexScalar(ZERO, -ONE))
    return {
        "J": fr.d(fr.j_action(d_oj)),
        "K": fr.d(fr.j_action(fr.i_action(d_ok))),
        "ddj_omega_bar": fr.del_(fr.del_j(m.omega_bar())),
        "delbar_omega_i": fr.delbar(m.omega_i()),
    }


def skt_halves(m) -> tuple:
    """a = d(J* del Omega) and b = d(J* delbar Omega), delbar Omega being the
    (2,1) part of d Omega."""
    fr = m.geometry.frame
    a = fr.d(fr.j_action(m.del_omega))
    b = fr.d(fr.j_action(bidegree_project(fr.d(m.omega), m.N, 2, 1)))
    return a, b
