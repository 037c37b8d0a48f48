"""Hyperhermitian metrics and their derived tensors.

A metric is the q-real, q-positive (2,0)-form ``Omega``.  From it the module
derives the Hermitian frame matrix G (a signed read of the coefficients of
``Omega``), Pfaffian, inner products on forms, the Hodge star, the Lefschetz
operator and its adjoint, the canonical 1-forms ``alpha`` (from the top
antiholomorphic power) and ``beta`` (from the (n-1)-st power), Lee form,
Ricci forms and both scalar curvatures.

Powers of ``Omega`` are read, never multiplied out: Omega^n is n! Pf times the
top monomial, Omega^{n-1} is (n-1)! Pf times a signed read of A^-1 (A the
skew matrix of ``Omega``, whose inverse is a signed read of G^-1), and any
other Omega^k is k! times the sub-Pfaffians of A on the 2k-subsets.

Inner products, the star and the Lefschetz adjoint share one pairing: a form
``b`` is raised to ``b#`` by conjugating its coefficients and substituting
z^j -> sum_i (G^-1)_{ji} z^i (conjugated on the antiholomorphic block), and
<a, b> = sum_I a_I (b#)_I.  The adjoint of wedging with ``L`` contracts by
the raised ``L#``.  The form omega_L of L = aI + bJ + cK is linear in L:
a omega_I + b (Omega + conj Omega) - i c (Omega - conj Omega).

``alpha`` and ``beta`` are always computed along two independent routes
(coefficient division against the relevant power, and the Lefschetz-adjoint
formula); any disagreement raises, acting as a built-in convention audit.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import linalg
from .forms import (
    Form,
    SkewMatrix,
    _merge_keys,
    bidegree_project,
    cofactor_power,
    pfaffian,
    pure_bidegree,
)
from .hypercomplex import Geometry, HypercomplexStructure, SpherePoint
from .scalars import (
    C_I,
    C_ONE,
    C_ZERO,
    ComplexScalar,
    Scalar,
    ZERO,
    rational,
)


class MetricError(ValueError):
    pass


class QRealError(MetricError):
    pass


class ConsistencyError(RuntimeError):
    """Two paper-equivalent computations disagreed; indicates a convention bug."""


# -- the (1,1) <-> (2,0) correspondence --------------------------------------


def _i_vector(geom: Geometry, vec: dict) -> dict:
    N = geom.N
    return {
        k: (c.times_i() if k < N else -c.times_i())
        for k, c in vec.items()
    }


def _k_vector(geom: Geometry, vec: dict) -> dict:
    return _i_vector(geom, geom.frame.j_vector(vec))


def phi(geom: Geometry, gamma: Form) -> Form:
    """The pointwise bijection (1,1)-forms -> (2,0)-forms.

    ``phi(gamma)(X, Y) = (i gamma(JX, Y) - gamma(KX, Y)) / 2``.
    """
    if pure_bidegree(gamma, geom.N) != (1, 1) and not gamma.is_zero():
        raise MetricError("phi expects a (1,1)-form")
    fr = geom.frame
    N = geom.N
    terms = {}
    for r in range(N):
        for s in range(r + 1, N):
            zr, zs = fr.frame_vector(r + 1), fr.frame_vector(s + 1)
            val = gamma.evaluate([fr.j_vector(zr), zs]).times_i() \
                - gamma.evaluate([_k_vector(geom, zr), zs])
            val = val * ComplexScalar(rational(1, 2))
            if not val.is_zero():
                terms[(r, s)] = val
    return Form(gamma.nsym, 2, terms)


def phi_inverse(geom: Geometry, sigma: Form) -> Form:
    """Inverse of :func:`phi`, extended complex-linearly via q-real parts."""
    if pure_bidegree(sigma, geom.N) != (2, 0) and not sigma.is_zero():
        raise MetricError("phi_inverse expects a (2,0)-form")
    fr = geom.frame
    jbar = fr.j_action(fr.conjugate(sigma))
    half = ComplexScalar(rational(1, 2))
    s1 = (sigma + jbar) * half
    s2 = (sigma - jbar) * (-C_I * half)

    def real_part_inverse(s: Form) -> Form:
        total = s + fr.conjugate(s)
        N = geom.N
        terms = {}
        for r in range(N):
            zr = fr.frame_vector(r + 1)
            jizr = fr.j_vector(_i_vector(geom, zr))
            for s_ in range(N):
                zsb = fr.frame_vector(s_ + 1, bar=True)
                val = -total.evaluate([jizr, zsb])
                if not val.is_zero():
                    terms[(r, N + s_)] = val
        # sanity: the reconstruction has no (2,0) or (0,2) piece
        for r in range(N):
            for s_ in range(r + 1, N):
                chk = -total.evaluate([fr.j_vector(_i_vector(geom, fr.frame_vector(r + 1))),
                                       fr.frame_vector(s_ + 1)])
                if not chk.is_zero():
                    raise ConsistencyError("phi_inverse produced a (2,0) component")
        return Form(sigma.nsym, 2, terms)

    g1 = real_part_inverse(s1)
    g2 = real_part_inverse(s2)
    out = g1 + g2 * C_I
    back = phi(geom, out) if not out.is_zero() else Form.zero(sigma.nsym, 2)
    if back != sigma:
        raise ConsistencyError("phi(phi_inverse(sigma)) != sigma")
    return out


def hermitian_matrix_of(geom: Geometry, sigma: Form):
    """Hermitian matrix M[r][s] = sigma(Z_r, J conj(Z_s)) of a q-real (2,0)-form.

    J conj(Z_s) is Z_{s+1} for even s and -Z_{s-1} for odd s (0-based), so
    each entry is a signed read of the skew matrix A of sigma:
    M[r][s] = A[r][s+1] for even s and -A[r][s-1] = A[s-1][r] for odd s.
    """
    N = geom.N
    A = SkewMatrix.from_form(sigma, N)
    return [[A[r, s + 1] if s % 2 == 0 else A[s - 1, r] for s in range(N)]
            for r in range(N)]


def qpositivity_verdict(geom: Geometry, form: Form) -> str:
    """Definiteness verdict of a q-real form of bidegree (0,0) or (2,0)."""
    if not geom.frame.is_q_real(form):
        raise QRealError("form is not q-real")
    if form.degree == 0:
        c = form.coefficient(())
        s = c.re.sign()
        return {1: "positive", 0: "zero", -1: "negative"}[s]
    if pure_bidegree(form, geom.N) != (2, 0):
        raise MetricError("q-positivity verdict expects a (2,0)-form")
    return linalg.hermitian_definiteness(hermitian_matrix_of(geom, form))


def _power_pairing_matrix(geom: Geometry, a: Form):
    """Skew matrix B[r][s] = top coefficient of a ^ z^r ^ z^s."""
    N = geom.N
    dim = geom.algebra.dim
    top = tuple(range(N))
    B = [[C_ZERO] * N for _ in range(N)]
    for r in range(N):
        for s in range(r + 1, N):
            mono = Form.monomial(dim, (r, s))
            c = a.wedge(mono).coefficient(top)
            B[r][s] = c
            B[s][r] = -c
    return B


def is_power_of_qpositive(geom: Geometry, a: Form) -> bool:
    """Decide whether a q-real (2n-2,0)-form is the (n-1)-st power of a
    q-positive (2,0)-form, divided by (n-1)!."""
    n = geom.n
    N = geom.N
    dim = geom.algebra.dim
    if not geom.frame.is_q_real(a):
        raise QRealError("form is not q-real")
    if n == 1:
        return qpositivity_verdict(geom, a) == "positive"
    if pure_bidegree(a, N) != (2 * n - 2, 0):
        raise MetricError("power decision expects a (2n-2,0)-form")
    B = _power_pairing_matrix(geom, a)
    pf_b = pfaffian(B)
    if pf_b.is_zero():  # Pf(B)^2 = det(B)
        return False
    # Pfaffian-adjugate style inversion: apply the same pairing to the
    # (n-1)-st divided power of the form built from B; the result is
    # proportional to any (n-1)-st root of a.  B is invertible, so that
    # power is the read Pf(B) B^-1 of forms.cofactor_power
    power_b = cofactor_power(pf_b, linalg.inverse(B), dim)
    D = _power_pairing_matrix(geom, power_b)
    cand = Form(dim, 2, {
        (r, s): D[r][s] for r in range(N) for s in range(r + 1, N)
        if not D[r][s].is_zero()
    })
    if cand.is_zero():
        return False
    # cand may be singular: sum the sub-Pfaffians
    power_c = SkewMatrix.from_form(cand, N).divided_power(n - 1, dim)
    lam = _exact_ratio(power_c, a)
    if lam is None or not lam.is_real() or lam.re.is_zero():
        return False
    # the root scale c satisfies c^{n-1} = 1/lam; a positive lam admits a
    # positive c, a negative lam only an odd-power negative c
    try:
        if lam.re.sign() > 0:
            return qpositivity_verdict(geom, cand) == "positive"
        if (n - 1) % 2 == 1:
            return qpositivity_verdict(geom, -cand) == "positive"
        return False
    except QRealError:
        return False


def _exact_ratio(f: Form, g: Form):
    """lambda with f = lambda * g exactly, or None."""
    if g.is_zero():
        return None
    key, c = next(iter(g.terms.items()))
    lam = f.coefficient(key) / c
    return lam if f == g.scale(lam) else None


def is_qpositive(geom: Geometry, form: Form) -> bool:
    """q-positivity of a (2,0)-form, or the power decision in degree 2n-2."""
    if form.degree in (0, 2):
        return qpositivity_verdict(geom, form) == "positive"
    if form.degree == 2 * geom.n - 2:
        return is_power_of_qpositive(geom, form)
    raise MetricError("q-positivity is decided in degrees 2 and 2n-2 only")


@dataclass
class CanonicalForms:
    alpha: Form
    beta: Form
    eta: Form
    theta: Form


@dataclass
class CurvatureData:
    ric_ch: Form
    ric_bis: Form
    ric_ob: Form
    s_ch: Scalar
    s_bis: Scalar
    s_ob: Scalar
    del_j_alpha: Form
    del_j_beta: Form


class Metric:
    """The q-real q-positive (2,0)-form of an invariant hyperhermitian metric."""

    def __init__(self, geometry: Geometry, omega: Form):
        self.geometry = geometry
        self.n = geometry.n
        self.N = geometry.N
        fr = geometry.frame
        if not omega.is_zero() and pure_bidegree(omega, self.N) != (2, 0):
            raise MetricError("metric form must have bidegree (2,0)")
        if not fr.is_q_real(omega):
            raise QRealError("metric form must be q-real")
        self.omega = omega
        self.gram = hermitian_matrix_of(geometry, omega)
        if linalg.hermitian_definiteness(self.gram) != "positive":
            raise MetricError("metric form is not q-positive")
        self.skew = SkewMatrix.from_form(omega, self.N)
        self.pf = self.skew.pfaffian()
        if not self.pf.is_real():
            raise ConsistencyError("Pfaffian of a q-real metric must be real")
        det_g = linalg.det(self.gram)
        if self.pf * self.pf.conjugate() != det_g:
            raise ConsistencyError("|pf|^2 != det of the Hermitian matrix")
        self.det_g = det_g.re
        self._omega_powers: dict = {}
        self._canonical: CanonicalForms | None = None
        self._curvature: CurvatureData | None = None

    # G^-1 and the raise images are computed on first use: many metrics
    # (the family checks, the search) are built only for their flags.

    @functools.cached_property
    def _g_inv(self):
        return linalg.inverse(self.gram)

    @functools.cached_property
    def _raise(self) -> list:
        """Images of the frame covectors under h = G^-1, block by block:
        z^j -> sum_i (G^-1)_{ji} z^i, conj(z^j) -> sum_i conj((G^-1)_{ji}) conj(z^i)."""
        N, dim = self.N, self.geometry.algebra.dim
        rows = [{i: c for i, c in enumerate(row) if not c.is_zero()} for row in self._g_inv]
        return ([Form(dim, 1, {(i,): c for i, c in row.items()}) for row in rows]
                + [Form(dim, 1, {(N + i,): c.conjugate() for i, c in row.items()})
                   for row in rows])

    def _sharp(self, a: Form) -> Form:
        """a with conjugated coefficients and raised indices: <b, a> = sum_I b_I (a#)_I."""
        return a.map_coefficients(ComplexScalar.conjugate).substitute(self._raise)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def unitary(cls, geometry: Geometry) -> "Metric":
        terms = {(2 * i, 2 * i + 1): C_ONE for i in range(geometry.n)}
        return cls(geometry, Form(geometry.algebra.dim, 2, terms))

    @classmethod
    def diagonal(cls, geometry: Geometry, coeffs) -> "Metric":
        terms = {}
        for i, c in enumerate(coeffs):
            terms[(2 * i, 2 * i + 1)] = ComplexScalar(Scalar._coerce(c))
        return cls(geometry, Form(geometry.algebra.dim, 2, terms))

    @classmethod
    def from_hermitian_matrix(cls, geometry: Geometry, gram) -> "Metric":
        """Rebuild the (2,0)-form from g_{r sbar}; inverse of ``.gram``.

        Uses G[r][s] = Omega(Z_r, J conj(Z_s)) with J conj(Z_{2i-1}) = Z_{2i},
        so the full skew matrix is A[r][t] = G[r][t-1] (t odd, 0-based) and
        A[r][t] = -G[r][t+1] (t even).  Skew-symmetry of the result is exactly
        the hyperhermitian compatibility of the input and is verified.
        """
        N = geometry.N
        g = [[ComplexScalar._coerce(x) for x in row] for row in gram]
        full = [[(g[r][t - 1] if t % 2 else -g[r][t + 1]) for t in range(N)]
                for r in range(N)]
        for r in range(N):
            if not full[r][r].is_zero():
                raise MetricError("matrix is not hyperhermitian-compatible")
            for t in range(r + 1, N):
                if full[r][t] != -full[t][r]:
                    raise MetricError("matrix is not hyperhermitian-compatible")
        terms = {
            (r, t): full[r][t]
            for r in range(N) for t in range(r + 1, N)
            if not full[r][t].is_zero()
        }
        m = cls(geometry, Form(geometry.algebra.dim, 2, terms))
        if m.gram != g:
            raise MetricError("matrix is not the Gram matrix of a hyperhermitian metric")
        return m

    def scaled(self, c) -> "Metric":
        c = Scalar._coerce(c)
        if c.sign() <= 0:
            raise MetricError("conformal factor must be positive")
        return Metric(self.geometry, self.omega.scale(c))

    # -- basic derived data -------------------------------------------------------

    def omega_bar(self) -> Form:
        return self.geometry.frame.conjugate(self.omega)

    def omega_power(self, k: int) -> Form:
        """Omega^k, read from the Pfaffian data on first use and kept.

        Omega^n is the one monomial n! Pf z^{[N]}.  For n >= 2, Omega^{n-1}
        is (n-1)! times :func:`forms.cofactor_power` of Pf and A^-1: the
        coefficient on z^{[N] minus {r, s}} is (n-1)! (-1)^{r+s} Pf (A^-1)[r][s].
        A = G P for the signed permutation P of :meth:`from_hermitian_matrix`
        (A[r][t] = G[r][t-1] for odd t, -G[r][t+1] for even t), so
        A^-1 = P^T G^-1: row t of A^-1 is row t-1 of G^-1 for odd t and minus
        row t+1 for even t.  Any other power, Omega^0 = 1 included, is k!
        times the sub-Pfaffians of :meth:`forms.SkewMatrix.divided_power`.
        """
        if k < 0:
            raise ValueError("negative wedge power")
        power = self._omega_powers.get(k)
        if power is None:
            n, dim = self.n, self.geometry.algebra.dim
            fact = ComplexScalar(rational(math.factorial(k)))
            if k == n:
                power = Form.monomial(dim, tuple(range(self.N)), self.pf * fact)
            elif k == n - 1 and k > 0:
                g_inv = self._g_inv
                a_inv = [g_inv[t - 1] if t % 2 else [-c for c in g_inv[t + 1]]
                         for t in range(self.N)]
                power = cofactor_power(self.pf, a_inv, dim).scale(fact)
            else:
                power = self.skew.divided_power(k, dim).scale(fact)
            self._omega_powers[k] = power
        return power

    def mixed_power(self) -> Form:
        """Omega^{n-1} ^ conj(Omega^n).  conj(Omega^n) is the one monomial
        n! Pf z^{[N, 2N)} (Pf is real), whose indices follow every index of
        Omega^{n-1}: each key gains that block, with sign +1."""
        top_bar = tuple(range(self.N, 2 * self.N))
        c = self.omega_power(self.n).coefficient(tuple(range(self.N))).conjugate()
        power = self.omega_power(self.n - 1)
        return Form(power.nsym, power.degree + self.N,
                    {key + top_bar: v * c for key, v in power.terms.items()})

    def volume_coefficient(self) -> Scalar:
        """Coefficient of the volume against the frame top form: |pf|^2."""
        return self.det_g

    def volume_form(self) -> Form:
        dim = self.geometry.algebra.dim
        return Form.monomial(dim, tuple(range(dim)), ComplexScalar(self.det_g))

    def omega_i(self) -> Form:
        """The real (1,1)-form of the metric for the frame's first structure."""
        N = self.N
        terms = {}
        for r in range(N):
            for s in range(N):
                g = self.gram[r][s]
                if not g.is_zero():
                    terms[(r, N + s)] = g.times_i()
        return Form(self.geometry.algebra.dim, 2, terms)

    def omega_i_top_minus_one(self) -> Form:
        """omega_I^{N-1} (N = 2n) read from the cofactors of the Gram matrix.

        With omega_I = i sum G[r][s] z^r ^ conj(z^s), the coefficient on
        z^{[N] minus r} ^ conj(z)^{[N] minus s} is (-1)^{r+s+(N-1)(N-2)/2}
        (N-1)! i^{N-1} det(G) (G^-1)_{sr}: the (N-1)-minors of iG times the
        sign of gathering the holomorphic factors in front.
        """
        N = self.N
        # i^{N-1} (-1)^{(N-1)(N-2)/2} = i: for N = 2n both signs are (-1)^{n-1}
        scale = ComplexScalar(self.det_g * rational(math.factorial(N - 1))).times_i()
        hol = [tuple(k for k in range(N) if k != r) for r in range(N)]
        anti = [tuple(N + k for k in range(N) if k != s) for s in range(N)]
        terms = {}
        for r in range(N):
            for s in range(N):
                c = self._g_inv[s][r]
                if not c.is_zero():
                    c = c * scale
                    terms[hol[r] + anti[s]] = -c if (r + s) % 2 else c
        return Form(self.geometry.algebra.dim, 2 * N - 2, terms)

    def gram_real(self):
        """Riemannian Gram matrix on the adapted real basis u_a."""
        fr = self.geometry.frame
        dim = self.geometry.algebra.dim
        opob = self.omega + self.omega_bar()

        def g_eval(v, w):
            return -(opob.evaluate([fr.j_vector(v), w]))

        coords = [self._real_basis_frame_coords(a) for a in range(dim)]
        return [[g_eval(coords[a], coords[b]) for b in range(dim)] for a in range(dim)]

    def _real_basis_frame_coords(self, a: int) -> dict:
        """Frame coordinates of the adapted real basis vector u_a."""
        r = a // 2
        if a % 2 == 0:
            return {r: C_ONE, self.N + r: C_ONE}
        return {r: C_I, self.N + r: -C_I}

    # -- inner products and the star ------------------------------------------------

    def inner_product(self, a: Form, b: Form) -> ComplexScalar:
        """Hermitian inner product sum_I a_I (b#)_I: linear in a, conjugate-linear in b."""
        if a.degree != b.degree:
            raise MetricError("inner product needs forms of equal degree")
        b_sharp = self._sharp(b).terms
        total = C_ZERO
        for key, c in a.terms.items():
            cb = b_sharp.get(key)
            if cb is not None:
                total = total + c * cb
        return total

    def norm2(self, a: Form) -> Scalar:
        v = self.inner_product(a, a)
        if not v.is_real():
            raise ConsistencyError("squared norm has an imaginary part")
        return v.re

    def hodge_star(self, a: Form) -> Form:
        """Hodge star defined by psi ^ star(a) = <psi, a> vol; conjugate-linear:
        star(a) = det G sum_I (a#)_I sign(I, I^c) z^{I^c}."""
        dim = self.geometry.algebra.dim
        vol = ComplexScalar(self.det_g)
        terms = {}
        for key, c in self._sharp(a).terms.items():
            comp = tuple(i for i in range(dim) if i not in key)
            _, sign = _merge_keys(key, comp)
            c = c * vol
            terms[comp] = c if sign > 0 else -c
        return Form(dim, dim - a.degree, terms)

    def lefschetz_adjoint(self, a: Form, conjugate: bool = False) -> Form:
        """Adjoint of wedging with L = Omega (or conj(Omega) when ``conjugate``).

        Contracting by e_k is the coefficient-wise transpose of wedging by z^k
        on the left, so <a, L ^ b> = <sum_{k<l} (L#)_{kl} iota_l iota_k a, b>.
        """
        L = self.omega_bar() if conjugate else self.omega
        rows: dict = {}
        for (k, l), c in self._sharp(L).terms.items():
            rows.setdefault(k, {})[l] = c
        out = Form.zero(self.geometry.algebra.dim, max(a.degree - 2, 0))
        for k, row in rows.items():
            out = out + a.contract({k: C_ONE}).contract(row)
        return out

    def lefschetz_power_bijective(self, p: int) -> bool:
        """Check L^{n-p}: (p,0)-forms -> (2n-p,0)-forms is invertible."""
        N, dim, n = self.N, self.geometry.algebra.dim, self.n
        power = self.omega_power(n - p)
        source = list(itertools.combinations(range(N), p))
        if len(source) != math.comb(N, 2 * n - p):
            return False
        images = (power.wedge(Form.monomial(dim, key)).terms for key in source)
        return len(linalg.echelon(images)) == len(source)

    # -- traces --------------------------------------------------------------------

    def _trace_ratio(self, xi: Form) -> ComplexScalar:
        """n * (xi ^ Omega^{n-1}) / Omega^n as a coefficient ratio."""
        top = tuple(range(self.N))
        num = xi.wedge(self.omega_power(self.n - 1)).coefficient(top)
        den = self.omega_power(self.n).coefficient(top)
        return num * den.inverse() * ComplexScalar(rational(self.n))

    def trace_omega(self, xi: Form) -> Scalar:
        """Trace of a q-real (2,0)-form against Omega; exact real scalar."""
        if not self.geometry.frame.is_q_real(xi):
            raise QRealError("trace requires a q-real form")
        v = self._trace_ratio(xi)
        if not v.is_real():
            raise ConsistencyError("trace of a q-real form must be real")
        return v.re

    def trace_omega_i(self, gamma: Form) -> ComplexScalar:
        """Metric trace of a (1,1)-form: -i sum (G^-1)_{sr} gamma(Z_r, conj Z_s)."""
        N = self.N
        total = C_ZERO
        for key, c in gamma.terms.items():
            i, j = key
            if i < N <= j:
                r, s = i, j - N
                total = total + self._g_inv[s][r] * c
        return -(total.times_i())

    # -- canonical forms and curvature ------------------------------------------------

    def canonical_forms(self) -> CanonicalForms:
        if self._canonical is not None:
            return self._canonical
        fr = self.geometry.frame
        n, N, dim = self.n, self.N, self.geometry.algebra.dim
        omega_bar_n = fr.conjugate(self.omega_power(n))
        d_obn = fr.del_(omega_bar_n)
        pf_bar_fact = self.pf.conjugate() * ComplexScalar(rational(math.factorial(n)))
        alpha_terms = {}
        for key, c in d_obn.terms.items():
            r = key[0]
            if r >= N:
                raise ConsistencyError("unexpected key in the top-power derivative")
            alpha_terms[(r,)] = c * pf_bar_fact.inverse()
        alpha_div = Form(dim, 1, alpha_terms)
        alpha_lef = self.lefschetz_adjoint(fr.del_(self.omega_bar()), conjugate=True)
        if alpha_div != alpha_lef:
            raise ConsistencyError("alpha mismatch between division and adjoint routes")
        beta_div = self._solve_beta()
        beta_lef = self.lefschetz_adjoint(fr.del_(self.omega))
        if beta_div != beta_lef:
            raise ConsistencyError("beta mismatch between division and adjoint routes")
        alpha, beta = alpha_div, beta_div
        if not fr.del_(alpha).is_zero():
            raise ConsistencyError("alpha is not del-closed")
        if not fr.is_q_real(fr.del_j(alpha)):
            raise ConsistencyError("del_J alpha is not q-real")
        eta = alpha + fr.conjugate(alpha)
        theta = eta + beta + fr.conjugate(beta)
        self._canonical = CanonicalForms(alpha=alpha, beta=beta, eta=eta, theta=theta)
        return self._canonical

    def _solve_beta(self) -> Form:
        """beta with beta ^ Omega^{n-1} = del Omega^{n-1}, by one elimination.

        Each (2n-1,0) monomial gives one equation in the coefficients of
        beta on z^1..z^N, with the target in column N.
        """
        fr = self.geometry.frame
        n, N, dim = self.n, self.N, self.geometry.algebra.dim
        power = self.omega_power(n - 1)
        equations: dict = {}
        for r in range(N):
            for k, c in Form.monomial(dim, (r,)).wedge(power).terms.items():
                equations.setdefault(k, {})[r] = c
        for k, c in fr.del_(power).terms.items():
            equations.setdefault(k, {})[N] = c
        rows = linalg.echelon(equations.values())
        if N in rows:
            raise ConsistencyError("beta solve failed; hard Lefschetz violated")
        terms = {(r,): row[N] for r, row in rows.items() if N in row}
        return Form(dim, 1, terms)

    def curvature(self) -> CurvatureData:
        if self._curvature is not None:
            return self._curvature
        fr = self.geometry.frame
        cf = self.canonical_forms()
        dja = fr.del_j(cf.alpha)
        djb = fr.del_j(cf.beta)
        s_ch_c = self._trace_ratio(dja) * ComplexScalar(rational(2))
        if not s_ch_c.is_real():
            raise ConsistencyError("Chern scalar curvature has an imaginary part")
        s_bis_c = self._trace_ratio(djb) * ComplexScalar(rational(-2))
        if not s_bis_c.is_real():
            raise ConsistencyError("Bismut scalar curvature has an imaginary part")
        ric_ch = fr.d(fr.i_action(cf.eta))
        beta_real = cf.beta + fr.conjugate(cf.beta)
        ric_bis = -(fr.d(fr.i_action(beta_real)))
        ric_ob = fr.d(cf.eta)
        # cross-check the trace identity for the Chern scalar curvature
        ric_ch_11 = bidegree_project(ric_ch, self.N, 1, 1)
        tr = self.trace_omega_i(ric_ch_11)
        if tr != s_ch_c:
            raise ConsistencyError("s^Ch disagrees with the trace of the Chern-Ricci form")
        self._curvature = CurvatureData(
            ric_ch=ric_ch,
            ric_bis=ric_bis,
            ric_ob=ric_ob,
            s_ch=s_ch_c.re,
            s_bis=s_bis_c.re,
            s_ob=ZERO,
            del_j_alpha=dja,
            del_j_beta=djb,
        )
        return self._curvature

    # -- structures in the sphere --------------------------------------------------

    def omega_for_L(self, p: SpherePoint) -> Form:
        """The (1,1)-form of g for the structure L = a I + b J + c K, in the frame
        of the base pair: a omega_I + b (Omega + conj Omega) - i c (Omega - conj Omega)."""
        ob = self.omega_bar()
        return (self.omega_i().scale(p.a) + (self.omega + ob).scale(p.b)
                + (self.omega - ob).scale(ComplexScalar(ZERO, -p.c)))

    def in_rotated_frame(self, rotated: Geometry) -> "Metric":
        """Express the same Riemannian metric in a rotated pair's frame:
        Omega' = (omega_{J'} + i omega_{K'})/2, moved through the real coframe."""
        base = self.geometry.structure
        H = rotated.structure
        omega_j, omega_k = (self.omega_for_L(_sphere_point(base, L)) for L in (H.J, H.K))
        omega_old_frame = (omega_j + omega_k.scale(C_I)).scale(rational(1, 2))
        real = self.geometry.frame.to_real(omega_old_frame)
        return Metric(rotated, rotated.frame.to_complex(real))

    # -- identities -------------------------------------------------------------------

    def strong_torsion_scalar_identity(self) -> Scalar:
        """(1/2) s^Ch + g(del del_J conj(Omega), Omega ^ conj(Omega)) - |del conj(Omega)|^2."""
        fr = self.geometry.frame
        cur = self.curvature()
        ob = self.omega_bar()
        ddj = fr.del_(fr.del_j(ob))
        pairing = self.inner_product(ddj, self.omega.wedge(ob))
        if not pairing.is_real():
            raise ConsistencyError("mixed pairing has an imaginary part")
        half_sch = cur.s_ch / 2
        return half_sch + pairing.re - self.norm2(fr.del_(ob))

    def pointwise_torsion_identity(self, z: dict):
        """Both sides of the contraction identity for a (1,0) vector Z."""
        fr = self.geometry.frame
        cf = self.canonical_forms()
        dja = fr.del_j(cf.alpha)
        jzbar = fr.j_vector(fr.conj_vector(z))
        lhs = dja.evaluate([z, jzbar])
        dob = fr.del_(self.omega_bar())
        t1 = self.norm2(dob.contract(z))
        t2 = self.norm2(dob.contract(jzbar))
        ddj = fr.del_(fr.del_j(self.omega_bar()))
        contracted = ddj.contract(z).contract(jzbar)
        ratio = self._trace_ratio(fr.conjugate(contracted)).conjugate()
        rhs = ComplexScalar(t1) + ComplexScalar(t2) - ratio
        return lhs, rhs

    def product_trace_identity(self, psi: Form, zeta: Form):
        """Both sides of
        psi ^ zeta ^ Omega^{n-2}/(n-2)! = (tr(psi) tr(zeta) - g(psi, J conj zeta)) Omega^n/n!.
        """
        if self.n < 2:
            raise MetricError("identity needs quaternionic dimension >= 2")
        fr = self.geometry.frame
        top = tuple(range(self.N))
        lhs = psi.wedge(zeta).wedge(self.omega_power(self.n - 2)) \
            .coefficient(top) * ComplexScalar(rational(1, math.factorial(self.n - 2)))
        jzbar = fr.j_action(fr.conjugate(zeta))
        scal = self._trace_ratio(psi) * self._trace_ratio(zeta) \
            - self.inner_product(psi, jzbar)
        rhs = scal * self.omega_power(self.n).coefficient(top) * ComplexScalar(rational(1, math.factorial(self.n)))
        return lhs, rhs


def _sphere_point(H: HypercomplexStructure, L) -> SpherePoint:
    """The point (a, b, c) with L = a I + b J + c K, read as a = -tr(L I)/dim
    and likewise for J and K."""
    dim = H.dim
    coords = []
    for M in (H.I, H.J, H.K):
        tr = ZERO
        for i in range(dim):
            for j in range(dim):
                if not (L[i][j].is_zero() or M[j][i].is_zero()):
                    tr = tr + L[i][j] * M[j][i]
        coords.append(tr * rational(-1, dim))
    p = SpherePoint(*coords)
    if H.combo(p) != L:
        raise MetricError("structure is not in the sphere of the base pair")
    return p
