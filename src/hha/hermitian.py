"""Hyperhermitian metrics and their derived tensors.

A metric is the q-real, q-positive (2,0)-form ``Omega``.  From it the module
derives the Hermitian frame matrix G (a signed read of the coefficients of
``Omega``), Pfaffian, inner products on forms, the adjoint of the Lefschetz
operator, the canonical 1-forms ``alpha`` (from the top antiholomorphic
power) and ``beta`` (from the (n-1)-st power), Lee form, Ricci forms and
both scalar curvatures.

The skew matrix A of ``Omega`` is A[r][t] = s(t) G[r][P(t)] for the one
index map (P, s) = :func:`hypercomplex.j_index`.  Every matrix fact of a
metric comes from one elimination of G (positivity, Pf, det G and G^-1),
and is read against three arrays: A, Omega's own coefficients (the division
route of ``beta``); A^-1 = P^T G^-1; and the transpose of G^-1, omega_I's
skew inverse up to the factor i on the block (r, N + s).  phi and phi^-1 are
signed reads of coefficients.

Powers are read, never multiplied out: Omega^n is n! Pf times the top
monomial, and Omega^{n-1} and omega_I^{N-1} are each a
:func:`forms.cofactor_power` of A^-1 or of omega_I's inverse, as the traces
against Omega and omega_I are one pairing with either.  The cone of (n-1)-st
powers of q-positive forms is, read linearly, the q-positive cone itself
(:func:`is_power_of_qpositive`).

Inner products pair by raising: a form ``b`` is raised to ``b#`` by
conjugating its coefficients and substituting z^j -> sum_i (G^-1)_{ji} z^i
(conjugated on the antiholomorphic block), and <a, b> = sum_I a_I (b#)_I.
The adjoint of wedging with ``L`` contracts by the raised ``L#``, read
directly from A^-1.  The form omega_L of L = aI + bJ + cK is linear in L:
a omega_I + b (Omega + conj Omega) - i c (Omega - conj Omega).

Reads on numerators.  An exact metric keeps Omega as a
``forms.NumeratorForm`` (``forms.keep_numerators``), so conj(Omega), its
J-image, d Omega and the sums Omega +- conj(Omega) stay on numerators, and
holds G and G^-1 as int numerators over one denominator
(``Metric._gram_ints``, read off Omega's numerators, which omega_I reads,
and ``Metric._g_inv_ints``, by the one
``linalg.quaternionic_inverse_ints`` of construction, which reads G as an
n x n quaternionic matrix and whose natural-order pivots also decide
positivity).  Every read of an inverse (Omega^{n-1}, omega_I^{N-1},
the Lefschetz adjoint, both traces and the inner product) takes its
operands' ``forms.numerators`` and makes its form with
``Form.from_numerators``.  The reads on scalar objects stay
for a float metric under ``--float``, and for a form whose radicand differs
from the metric's, which still raises ``FieldMismatchError``.  The division
route of ``beta`` reads A off Omega's coefficients, on scalar objects for
every metric: summed on numerators it was no faster.  Classifying an exact
metric builds no object G (``Metric.gram``).

``alpha`` and ``beta`` are always computed along two independent routes
(coefficient division against the relevant power, read against Pf and A,
and the Lefschetz-adjoint formula, read from A^-1); any disagreement raises,
acting as a built-in convention audit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import linalg
from .forms import (
    Form,
    NumeratorForm,
    bidegree_project,
    cofactor_ints,
    cofactor_power,
    contract_ints,
    indices,
    keep_numerators,
    mask,
    numerators,
    pure_bidegree,
    substitute_ints,
)
from .hypercomplex import Geometry, HypercomplexStructure, SpherePoint, j_index
from .linalg import ConsistencyError, add_ints, add_scaled
from .scalars import (
    C_I,
    C_ONE,
    C_TWO,
    C_ZERO,
    ComplexScalar,
    HALF,
    Scalar,
    ZERO,
    complex_from_ints,
    complex_ints,
    is_conjugate,
    is_negation,
    mul_ints,
    neg_ints,
    rational,
    sum_ints,
)


class MetricError(ValueError):
    """A metric that cannot be built; ``entry`` is the (row, column) of the
    input Gram matrix that fails, when one does."""

    def __init__(self, message: str, entry: tuple | None = None):
        self.entry = entry
        super().__init__(message)


class QRealError(MetricError):
    pass


# -- the (1,1) <-> (2,0) correspondence --------------------------------------


def phi(geom: Geometry, gamma: Form) -> Form:
    """The pointwise bijection (1,1)-forms -> (2,0)-forms,
    ``phi(gamma)(X, Y) = (i gamma(JX, Y) - gamma(KX, Y)) / 2``, read off the
    coefficients.  With (P, s) = :func:`hypercomplex.j_index`,
    J Z_r = -s(r) conj(Z_{P(r)}) and K Z_r = I J Z_r = i s(r) conj(Z_{P(r)}),
    and gamma(conj(Z_p), Z_t) = -gamma_{t, N+p}, so
    phi(gamma)_{rt} = i s(r) gamma_{t, N+P(r)} for r < t: the term on
    (t, N+b) lands on (P(b), t) when P(b) < t, one key each.
    """
    if pure_bidegree(gamma, geom.N) != (1, 1) and not gamma.is_zero():
        raise MetricError("phi expects a (1,1)-form")
    N = geom.N
    terms = {}
    for key, c in gamma.terms.items():
        t, bar_b = indices(key)
        r = j_index(bar_b - N)[0]
        if r < t:
            c = c.times_i()
            terms[mask((r, t))] = c if j_index(r)[1] > 0 else -c
    return Form(gamma.nsym, 2, terms)


def phi_inverse(geom: Geometry, sigma: Form) -> Form:
    """Inverse of :func:`phi`, complex-linear, onto the (1,1)-forms that J negates:
    i M[r][s] on z^r ^ conj(z^s), for the Hermitian read M of sigma
    (:func:`_gram_rows`), by rows and then columns.

    A term c z^r ^ z^t (r < t) maps to -i s(r) c on z^t ^ conj(z^{P(r)}) plus
    i s(t) c on z^r ^ conj(z^{P(t)}).  J swaps these two monomials with the
    sign s(r) s(t) (J z^h = s(h) conj(z^{P(h)}), s(P(h)) = -s(h)), so the sum
    is J-odd; :func:`phi` reads i s(r) (-i s(r) c) = c back from the first
    and skips the second, whose key it would send to (t, r).  Distinct terms
    write distinct keys.
    """
    if pure_bidegree(sigma, geom.N) != (2, 0) and not sigma.is_zero():
        raise MetricError("phi_inverse expects a (2,0)-form")
    N = geom.N
    rows = _gram_rows(sigma.terms, N, ComplexScalar.__neg__)
    out = Form(sigma.nsym, 2, {
        mask((r, N + s)): g.times_i()
        for r, row in enumerate(rows) for s, g in sorted(row.items()) if not g.is_zero()})
    if phi(geom, out) != sigma:
        raise ConsistencyError("phi(phi_inverse(sigma)) != sigma")
    return out


def hermitian_matrix_of(geom: Geometry, sigma: Form):
    """Hermitian matrix M[r][s] = sigma(Z_r, J conj(Z_s)) of a q-real (2,0)-form.

    With (P, s) = :func:`hypercomplex.j_index`, J conj(Z_t) = -s(t) Z_{P(t)},
    so each entry is a signed read of the skew matrix A of sigma,
    M[r][P(t)] = s(t) A[r][t] (:func:`_gram_rows`).
    """
    N = geom.N
    rows = _gram_rows(sigma.terms, N, ComplexScalar.__neg__)
    return [[row.get(s, C_ZERO) for s in range(N)] for row in rows]


def _gram_rows(terms: dict, N: int, neg) -> list:
    """The rows of M = :func:`hermitian_matrix_of` as dicts from column to the
    nonzero entries, for the coefficients ``terms`` of a (2,0)-form, scalar
    objects or numerators (``neg`` negates one): a term c z^r ^ z^t (r < t)
    fills M[r][P(t)] = s(t) c and M[t][P(r)] = -s(r) c, and no two terms
    fill one entry, as P is a bijection."""
    rows: list = [{} for _ in range(N)]
    for key, c in terms.items():
        r, t = indices(key)
        if t >= N:
            raise ValueError("form has components outside the holomorphic block")
        (pr, sr), (pt, st) = j_index(r), j_index(t)
        rows[r][pt] = c if st > 0 else neg(c)
        rows[t][pr] = neg(c) if sr > 0 else c
    return rows


# The checks of ``Metric.from_hermitian_matrix`` (x == -y, x == conj y, x == 0
# and -x) on scalar objects and on numerators
_OBJECT_OPS = (is_negation, is_conjugate, ComplexScalar.is_zero, ComplexScalar.__neg__)
_INT_OPS = (lambda x, y: x == neg_ints(y), lambda x, y: x == (y[0], y[1], -y[2], -y[3]),
            lambda x: not any(x), neg_ints)


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


def is_power_of_qpositive(geom: Geometry, a: Form) -> bool:
    """Decide whether a q-real (2n-2,0)-form is Omega^{n-1}/(n-1)! for a
    q-positive (2,0)-form Omega, by one inertia read when n >= 2.

    The read.  Pairing ``a`` with the (2,0) monomials against the top one,
    a ^ z^r ^ z^s = B[r][s] z^{[N]}, fills a skew matrix B; moving z^r and
    z^s past the N - 2 indices of z^{[N] minus {r, s}} gives, 0-based,
    B[r][s] = (-1)^{r+s+1} a_{[N] minus {r, s}} for r < s.  So a -> B is a
    linear bijection onto skew matrices, read from the coefficients alone.
    Let sigma_B = sum_{r<s} B[r][s] z^r ^ z^s, with Hermitian read M_B.

    Lemma: ``a`` is such a power exactly when sigma_B is q-positive.

    * q-reality.  tau = J conj sends z^{2i} -> -z^{2i+1}, z^{2i+1} -> z^{2i},
      conjugating coefficients: it permutes the frame monomials of every
      degree up to sign and fixes z^{[N]}.  Applying it to a ^ z^r ^ z^s, a
      q-real ``a`` has B[pi(rs)] e(rs) = conj B[rs] where
      tau z^r ^ z^s = e(rs) z^{pi(rs)}, hence tau sigma_B = sigma_B (e^2 = 1).
      A read that is not q-real therefore breaks a frame convention.
    * Signs.  M = A P^T for the skew matrix A of a (2,0)-form, with P the
      real signed permutation of :func:`hypercomplex.j_index`
      (A = G P, P^T = P^-1 = -P); q-real means M is Hermitian.  Since
      det P = 1, Pf(A)^2 = det G; on the convex q-positive cone Pf is thus
      real and nonzero, and it is 1 at the unitary form: Pf(A) > 0.
    * Powers read positive.  For a = Omega^{n-1}/(n-1)! with Omega
      q-positive, :func:`forms.cofactor_power` gives
      a_{[N] minus {r, s}} = (-1)^{r+s} Pf(A) (A^-1)[r][s], so
      B = -Pf(A) A^-1 and M_B = -Pf(A) P^T G^-1 P^T = Pf(A) P^T G^-1 P:
      a congruence of G^-1 times Pf(A) > 0, positive definite.  The sign is
      exactly +1, for either parity of n - 1.
    * Positive reads are powers.  Let M_B be positive definite, so sigma_B
      is q-positive and Pf(B) > 0.  Take the real root p = Pf(B)^{1/(n-1)} > 0
      and A = -p B^-1.  Then M_A = -p P^T M_B^-1 P^T = p P^T M_B^-1 P is
      positive definite, so Omega_A is q-positive.  Pf(X^T B X) = det X Pf B
      at X = B^-1 gives Pf(B^-1) = (-1)^n / Pf(B), so
      Pf(A) = (-p)^n Pf(B^-1) = p^n / Pf(B) = p and the power of Omega_A has
      the read -Pf(A) A^-1 = B; a -> B is injective, so it is ``a``.

    For n = 1, ``a`` is a constant and the decision is its sign.
    """
    n, N = geom.n, geom.N
    if not geom.frame.is_q_real(a):
        raise QRealError("form is not q-real")
    if n == 1:
        return qpositivity_verdict(geom, a) == "positive"
    if pure_bidegree(a, N) != (2 * n - 2, 0):
        raise MetricError("power decision expects a (2n-2,0)-form")
    terms = {}
    for key, c in a.terms.items():
        r, s = sorted(set(range(N)).difference(indices(key)))
        terms[mask((r, s))] = c if (r + s) % 2 else -c
    try:
        return qpositivity_verdict(geom, Form(a.nsym, 2, terms)) == "positive"
    except QRealError:
        raise ConsistencyError("the pairing read of a q-real form is not q-real") from None


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
    """The q-real q-positive (2,0)-form of an invariant hyperhermitian metric.

    Construction keeps an exact Omega on its numerators
    (:func:`forms.keep_numerators`; ``omega`` is then a ``NumeratorForm``,
    whose terms are built again from its numerators when read) and reads the
    Hermitian matrix G off them (``_gram_ints``, by the signed placement of
    :func:`hermitian_matrix_of`).  It makes one elimination of G and reads
    positivity, Pf and det G off its pivots:
    :func:`linalg.quaternionic_inverse_ints` on numerators, which also gives
    G^-1, or :func:`linalg.hermitian_pivots` for a float G, whose G^-1
    follows on first use.  The readers take A (Omega's coefficients), A^-1
    (``_a_inv_ints``, ``_a_inv``) and omega_I's inverse
    (``_omega_i_inv_ints``, ``_omega_i_inv``), each placed once from G^-1.

    * G is quaternionic.  q-reality makes G commute with the antilinear
      J conj: it is the complex form of an n x n quaternionic Hermitian
      matrix Q, with 2x2 blocks [[a, b], [-conj b, conj a]] and diagonal
      blocks d 1, d real.  The exact elimination reads Q off G and checks
      every block on the way in; a broken block is a ``ConsistencyError``.
    * Positivity.  Omega is q-positive exactly when Q is positive definite:
      by Sylvester's criterion, when every natural-order pivot of the
      elimination of Q is positive, which stops at the first that is not.
      A pivot that is not real is a ``ConsistencyError``: Q is Hermitian.
      A float G is read by the inertia of its object pivots.  Eliminating a
      diagonal block d 1 gives the pivots d and d and leaves a quaternionic
      Hermitian Schur complement, so these come in equal pairs, one per
      pivot of Q; a broken pair is a ``ConsistencyError``.
    * Pf and det.  A = G P for the signed permutation P of
      :func:`hypercomplex.j_index`, and det P = 1, so
      Pf(A)^2 = det G = (prod of the n pivots of Q)^2.  On the convex
      q-positive cone Pf(A) is real, nonzero, and 1 at the unitary form, so
      Pf(A) > 0 (see :func:`is_power_of_qpositive`): Pf(A) is the product
      of the pivots of Q and det G = Pf(A)^2.
    """

    def __init__(self, geometry: Geometry, omega: Form):
        self.geometry = geometry
        self.n = geometry.n
        self.N = geometry.N
        fr = geometry.frame
        if not omega.is_zero() and pure_bidegree(omega, self.N) != (2, 0):
            raise MetricError("metric form must have bidegree (2,0)")
        omega = keep_numerators(omega)
        # q-real: J conj(Omega) = Omega; conj(Omega) is kept for omega_bar
        self._omega_bar = fr.conjugate(omega)
        if fr.j_action(self._omega_bar) != omega:
            raise QRealError("metric form must be q-real")
        self.omega = omega
        if isinstance(omega, NumeratorForm):
            # G and G^-1 on numerators, (d, den, rows) with G[r][s] = rows[r][s] / den
            d, den, ints = numerators(omega)
            self._gram_ints = (d, den, _gram_rows(ints, self.N, neg_ints))
            lane = linalg.quaternionic_inverse_ints(d, den, self._gram_ints[2])
            if lane is None:
                raise MetricError("metric form is not q-positive")
            hden, h, pivots = lane
            self._g_inv_ints = (d, hden, h)
        else:   # a float coefficient, or two radicands
            self._gram_ints = self._g_inv_ints = None
            pivots = linalg.hermitian_pivots(self.gram)
            if any(p.sign() <= 0 for p in pivots):
                raise MetricError("metric form is not q-positive")
            if pivots[1::2] != pivots[0::2]:
                raise ConsistencyError("the pivots of a quaternionic Hermitian matrix "
                                       "do not come in equal pairs")
            pivots = pivots[0::2]
        pf = math.prod(pivots)
        self.pf = ComplexScalar(pf)
        self.det_g = pf * pf
        self._omega_powers: dict = {}
        self._canonical: CanonicalForms | None = None
        self._curvature: CurvatureData | None = None

    @functools.cached_property
    def gram(self) -> list:
        """G as scalar objects, G[r][s] = Omega(Z_r, J conj(Z_s))
        (:func:`hermitian_matrix_of`), read by the elimination of a float G,
        the rebuild check of a float :meth:`from_hermitian_matrix` and a
        float metric's G^-1; an exact metric never builds it."""
        return hermitian_matrix_of(self.geometry, self.omega)

    # The raise images, and a float G^-1, are computed on first use: many
    # metrics (the family checks, the search) are built only for their flags.

    @functools.cached_property
    def _g_inv(self):
        """G^-1 as scalar objects, read only by the object routes: built off
        :attr:`_g_inv_ints` for an exact metric, so no metric eliminates G
        twice, and ``linalg.inverse`` of :attr:`gram` for a float one."""
        if self._g_inv_ints is None:
            return linalg.inverse(self.gram)
        d, den, h = self._g_inv_ints
        return [[complex_from_ints(*row[s], den, d) if s in row else C_ZERO
                 for s in range(self.N)] for row in h]

    @functools.cached_property
    def _a_inv_ints(self) -> list:
        """A^-1 on numerators over G^-1's denominator, as rows of dicts from
        column to the nonzero entries.  A = G P (A[r][t] = s(t) G[r][P(t)],
        :func:`hypercomplex.j_index`), so row t of A^-1 = P^T G^-1 is s(t)
        times row P(t) of G^-1."""
        h = self._g_inv_ints[2]
        return [h[p] if s > 0 else {k: neg_ints(y) for k, y in h[p].items()}
                for p, s in map(j_index, range(self.N))]

    @functools.cached_property
    def _a_inv(self) -> list:
        """:attr:`_a_inv_ints` as dense rows of scalar objects."""
        h = self._g_inv
        return [h[p] if s > 0 else [-c for c in h[p]] for p, s in map(j_index, range(self.N))]

    @functools.cached_property
    def _omega_i_inv_ints(self) -> list:
        """The inverse of omega_I over i, as :attr:`_a_inv_ints`: the skew
        matrix W of omega_I = i sum G[r][s] z^r ^ conj(z^s) has i G on the
        block (r, N + s), so W^-1 has i (G^-1)_{sr} there and nothing else."""
        N, h = self.N, self._g_inv_ints[2]
        return [{N + s: row[r] for s, row in enumerate(h) if r in row} for r in range(N)] + [{}] * N

    @functools.cached_property
    def _omega_i_inv(self) -> list:
        """:attr:`_omega_i_inv_ints` as dense rows of scalar objects."""
        N, h = self.N, self._g_inv
        return ([[C_ZERO] * N + [h[s][r] for s in range(N)] for r in range(N)]
                + [[C_ZERO] * (2 * N)] * N)

    @functools.cached_property
    def _raise_ints(self) -> list:
        """:attr:`_raise` on numerators over the denominator of G^-1, as
        ``forms.substitute_ints`` takes its images."""
        N = self.N
        rows = [sorted(row.items()) for row in self._g_inv_ints[2]]
        return ([[(mask((i,)), *x) for i, x in row] for row in rows]
                + [[(mask((N + i,)), a, b, -c, -e) for i, (a, b, c, e) in row] for row in rows])

    @functools.cached_property
    def _raise(self) -> list:
        """Images of the frame covectors under h = G^-1, block by block:
        z^j -> sum_i (G^-1)_{ji} z^i, conj(z^j) -> sum_i conj((G^-1)_{ji}) conj(z^i)."""
        N, dim = self.N, self.geometry.algebra.dim
        rows = [{i: c for i, c in enumerate(row) if not c.is_zero()} for row in self._g_inv]
        return ([Form(dim, 1, {mask((i,)): c for i, c in row.items()}) for row in rows]
                + [Form(dim, 1, {mask((N + i,)): c.conjugate() for i, c in row.items()})
                   for row in rows])

    @functools.cached_property
    def del_omega(self) -> Form:
        """del Omega, formed once: HKT, the adjoint route of beta."""
        return self.geometry.frame.del_(self.omega)

    @functools.cached_property
    def del_power(self) -> Form:
        """del Omega^{n-1}, formed once: q-balanced, q-sG, the division route of beta."""
        return self.geometry.frame.del_(self.omega_power(self.n - 1))

    def _sharp(self, a: Form) -> Form:
        """a with conjugated coefficients and raised indices: <b, a> = sum_I b_I (a#)_I."""
        return a.map_coefficients(ComplexScalar.conjugate).substitute(self._raise)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def unitary(cls, geometry: Geometry) -> "Metric":
        terms = {mask((2 * i, 2 * i + 1)): C_ONE for i in range(geometry.n)}
        return cls(geometry, Form(geometry.algebra.dim, 2, terms))

    @classmethod
    def diagonal(cls, geometry: Geometry, coeffs) -> "Metric":
        terms = {}
        for i, c in enumerate(coeffs):
            terms[mask((2 * i, 2 * i + 1))] = ComplexScalar(Scalar._coerce(c))
        return cls(geometry, Form(geometry.algebra.dim, 2, terms))

    @classmethod
    def from_hermitian_matrix(cls, geometry: Geometry, gram) -> "Metric":
        """Rebuild the (2,0)-form from g_{r sbar}; inverse of ``.gram``.

        Uses G[r][s] = Omega(Z_r, J conj(Z_s)), so the full skew matrix is
        A[r][t] = s(t) G[r][P(t)] with (P, s) = :func:`hypercomplex.j_index`.
        Skew-symmetry of A is exactly the hyperhermitian compatibility of the
        input and is verified on G itself: entry (r, c) and its partner
        (P(c), P(r)) must satisfy G[r][c] = s(r) s(c) G[P(c)][P(r)], and an
        entry that is its own partner (c = P(r)) must vanish.  G must then be
        Hermitian, G[r][c] = conj G[c][r], which is q-reality of the rebuilt
        form, and the rebuilt metric's G must equal the input.  Each of these
        failures raises a :class:`MetricError` naming the first failing entry
        of G in row-major order.

        An input exact over one field is checked on its numerators over one
        denominator (``scalars.complex_ints``), and Omega is made from them
        as a ``NumeratorForm``.  A float entry, or two radicands, is checked
        on the scalar objects, a negated partner and a conjugate by
        :func:`scalars.is_negation` and :func:`scalars.is_conjugate`, which
        form no negatives.
        """
        N, dim = geometry.N, geometry.algebra.dim
        g = [[ComplexScalar._coerce(x) for x in row] for row in gram]
        lane = complex_ints([x for row in g for x in row])
        if lane is None:
            entries, (negates, conjugates, is_zero, neg) = g, _OBJECT_OPS
        else:
            ints = iter(lane[2])
            entries = [[next(ints) for _ in row] for row in g]
            negates, conjugates, is_zero, neg = _INT_OPS
        index = [j_index(t) for t in range(N)]
        for r, row in enumerate(entries):
            pr, sr = index[r]
            for c, (t, sc) in enumerate(index):
                # entry (r, c) and its partner (t, P(r)) are checked once,
                # from the earlier of their rows
                if t == r:
                    ok = is_zero(row[c])
                elif t > r:
                    x, y = row[c], entries[t][pr]
                    ok = x == y if sr == sc else negates(x, y)
                else:
                    continue
                if not ok:
                    raise MetricError("matrix is not hyperhermitian-compatible", (r, c))
        for r, row in enumerate(entries):
            for c in range(r, N):
                if not conjugates(row[c], entries[c][r]):
                    raise MetricError("matrix is not Hermitian", (r, c))
        terms = {}
        for r, row in enumerate(entries):
            for t in range(r + 1, N):
                pt, st = index[t]
                x = row[pt]
                if not is_zero(x):
                    terms[mask((r, t))] = x if st > 0 else neg(x)
        if lane is None:
            m = cls(geometry, Form(dim, 2, terms))
            rebuilt = m.gram
        else:
            m = cls(geometry, Form.from_numerators(dim, 2, lane[0], lane[1], terms))
            # Omega keeps the input's denominator, and G is read off Omega's numerators
            rebuilt = [[row.get(c, (0, 0, 0, 0)) for c in range(N)] for row in m._gram_ints[2]]
        if rebuilt != entries:
            entry = next((r, c) for r, row in enumerate(entries)
                         for c, x in enumerate(row) if rebuilt[r][c] != x)
            raise MetricError("matrix is not the Gram matrix of a hyperhermitian metric",
                              entry)
        return m

    def scaled(self, c) -> "Metric":
        c = Scalar._coerce(c)
        if c.sign() <= 0:
            raise MetricError("conformal factor must be positive")
        return Metric(self.geometry, self.omega.scale(c))

    # -- basic derived data -------------------------------------------------------

    def omega_bar(self) -> Form:
        return self._omega_bar

    def omega_power(self, k: int) -> Form:
        """Omega^k for k = n - 1 or n, read from the Pfaffian data on first use
        and kept.

        Omega^n is the one monomial n! Pf z^{[N]}.  For n >= 2, Omega^{n-1}
        is (n-1)! times :func:`forms.cofactor_power` of Pf and A^-1: the
        coefficient on z^{[N] minus {r, s}} is (n-1)! (-1)^{r+s} Pf (A^-1)[r][s],
        read off the rows of :attr:`_a_inv_ints`.  At n = 1, Omega^0 is the
        constant 1.
        """
        n = self.n
        if k not in (n - 1, n):
            raise ValueError(f"Omega^{k}: only the powers {n - 1} and {n} are read")
        power = self._omega_powers.get(k)
        if power is None:
            dim = self.geometry.algebra.dim
            fact = ComplexScalar(rational(math.factorial(k)))
            if k == n:
                power = Form.monomial(dim, tuple(range(self.N)), self.pf * fact)
            elif k == 0:
                power = Form.constant(dim, C_ONE)
            elif self._g_inv_ints is not None:
                d, den, _ = self._g_inv_ints
                sd, sden, (x,) = complex_ints([self.pf * fact])
                power = Form.from_numerators(dim, self.N - 2, d or sd, den * sden,
                                             cofactor_ints(x, self._a_inv_ints, d or sd))
            else:
                power = cofactor_power(self.pf, self._a_inv, dim).scale(fact)
            self._omega_powers[k] = power
        return power

    def volume_coefficient(self) -> Scalar:
        """Coefficient of the volume against the frame top form: |pf|^2."""
        return self.det_g

    def omega_i(self) -> Form:
        """The real (1,1)-form of the metric for the frame's first structure,
        phi^-1(Omega): i G[r][s] on z^r ^ conj(z^s), on the numerators of G
        when it has them."""
        if self._gram_ints is None:
            return phi_inverse(self.geometry, self.omega)
        N = self.N
        d, den, rows = self._gram_ints
        # i (a + b r + i(c + e r)) = -(c + e r) + i(a + b r)
        return Form.from_numerators(self.geometry.algebra.dim, 2, d, den, {
            mask((r, N + s)): (-c, -e, a, b)
            for r, row in enumerate(rows) for s, (a, b, c, e) in row.items()})

    def omega_i_top_minus_one(self) -> Form:
        """omega_I^{N-1} (N = 2n), by :func:`forms.cofactor_power` of omega_I.

        The skew matrix W of omega_I has i G on the block (r, N + s) and W^-1
        has i (G^-1)_{sr} there (:attr:`_omega_i_inv_ints`).  W is
        [[0, iG], [-iG^T, 0]], so Pf(W) = (-1)^{N(N-1)/2} det(iG) = det G for
        N = 2n, and the coefficient on z^{[N] minus r} ^ conj(z)^{[N] minus s}
        is (-1)^{r+s} (N-1)! i det G (G^-1)_{sr}: the rows of the transposed
        G^-1 times the one scale (N-1)! i det G.
        """
        N, dim = self.N, self.geometry.algebra.dim
        scale = ComplexScalar(self.det_g * rational(math.factorial(N - 1))).times_i()
        if self._g_inv_ints is None:
            return cofactor_power(scale, self._omega_i_inv, dim)
        d, den, _ = self._g_inv_ints
        sd, sden, (x,) = complex_ints([scale])
        return Form.from_numerators(dim, 2 * N - 2, d or sd, den * sden,
                                    cofactor_ints(x, self._omega_i_inv_ints, d or sd))

    # -- inner products ---------------------------------------------------------------

    def inner_product(self, a: Form, b: Form) -> ComplexScalar:
        """Hermitian inner product sum_I a_I (b#)_I: linear in a, conjugate-linear in b."""
        if a.degree != b.degree:
            raise MetricError("inner product needs forms of equal degree")
        joined = _joined(self._g_inv_ints, (a, b))
        if joined is not None:
            d, ((aden, a_ints), (bden, b_ints)) = joined
            conj = {key: (x[0], x[1], -x[2], -x[3]) for key, x in b_ints.items()}
            b_sharp = (substitute_ints([conj], self._raise_ints, d)[0] if b.degree else conj)
            total = sum_ints(mul_ints(x, b_sharp[key], d)
                             for key, x in a_ints.items() if key in b_sharp)
            return complex_from_ints(*total, aden * bden * self._g_inv_ints[1] ** b.degree, d)
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

    def lefschetz_adjoint(self, a: Form, conjugate: bool = False) -> Form:
        """Adjoint of wedging with L = Omega (or conj(Omega) when ``conjugate``).

        Contracting by e_k is the coefficient-wise transpose of wedging by z^k
        on the left, so <a, L ^ b> = <sum_{k<l} (L#)_{kl} iota_l iota_k a, b>.

        L# is read from H = G^-1: raising conj(A) gives H^T conj(A) H = P H,
        as A = G P (P real, :func:`hypercomplex.j_index`) and
        H^T conj(G) = conj(H G) = 1.  P H is skew, so
        (Omega#)_{kl} = s(l) H[P(l)][k] = (A^-1)[l][k] for k < l, and
        conj(Omega) raises to the conjugates on the barred pairs (N + k, N + l).
        """
        N = self.N
        shift = N if conjugate else 0
        joined = _joined(self._g_inv_ints, (a,))
        if joined is not None:
            return self._lefschetz_ints(a, joined, shift)
        a_inv = self._a_inv
        out = Form.zero(self.geometry.algebra.dim, max(a.degree - 2, 0))
        for k in range(N):
            row = {}
            for l in range(k + 1, N):
                c = a_inv[l][k]
                if not c.is_zero():
                    row[shift + l] = c.conjugate() if conjugate else c
            if row:
                out = out + a.contract({shift + k: C_ONE}).contract(row)
        return out

    def _lefschetz_ints(self, a: Form, joined, shift: int) -> Form:
        """:meth:`lefschetz_adjoint` on numerators: the same two contractions
        per k (``forms.contract_ints``), summed in the same order, so the keys
        come out in that order."""
        d, ((den, terms),) = joined
        a_inv = self._a_inv_ints
        out: dict = {}
        for k in range(self.N):
            row = {}
            for l in range(k + 1, self.N):
                x = a_inv[l].get(k)
                if x is not None:
                    row[shift + l] = (x[0], x[1], -x[2], -x[3]) if shift else x
            if row:
                first = contract_ints(terms, {shift + k: (1, 0, 0, 0)}, d)
                for key, y in contract_ints(first, row, d).items():
                    add_ints(out, key, y)
        return Form.from_numerators(self.geometry.algebra.dim, max(a.degree - 2, 0), d,
                                    den * self._g_inv_ints[1], out)

    # -- traces --------------------------------------------------------------------

    def _trace_ratio(self, xi: Form) -> ComplexScalar:
        """n (xi ^ Omega^{n-1}) / Omega^n of a 2-form, read against A^-1.

        Only the (2,0) part of xi reaches z^{[N]}.  By :func:`forms.cofactor_power`
        z^r ^ z^s ^ Omega^{n-1} (r < s) keeps (n-1)! (-1)^{r+s} Pf (A^-1)[r][s]
        on z^{[N] minus {r, s}}, and sorting costs (-1)^{r+s-1}.  Against
        Omega^n = n! Pf z^{[N]} the ratio is -sum_{r<s<N} xi_{rs} (A^-1)[r][s]
        (:meth:`_pair`).
        """
        return -self._pair(xi, False)

    def trace_omega_i(self, gamma: Form) -> ComplexScalar:
        """Metric trace of a (1,1)-form: -i sum (G^-1)_{sr} gamma(Z_r, conj Z_s),
        the pairing of gamma with the inverse of omega_I over i (:meth:`_pair`)."""
        return -(self._pair(gamma, True).times_i())

    def _pair(self, xi: Form, omega_i: bool) -> ComplexScalar:
        """sum xi_{rs} M[r][s] over the keys (r, s) of the 2-form xi in one
        block, in xi's key order: M = A^-1 (:attr:`_a_inv_ints`) on
        r < s < N, or the inverse of omega_I over i (:attr:`_omega_i_inv_ints`)
        on r < N <= s."""
        N = self.N
        block = range(N, 2 * N) if omega_i else range(N)
        joined = _joined(self._g_inv_ints, (xi,))
        if joined is not None:
            d, ((den, ints),) = joined
            m = self._omega_i_inv_ints if omega_i else self._a_inv_ints
            terms = []
            for key, x in ints.items():
                r, s = indices(key)
                if r < N and s in block and (y := m[r].get(s)) is not None:
                    terms.append(mul_ints(x, y, d))
            return complex_from_ints(*sum_ints(terms), den * self._g_inv_ints[1], d)
        m = self._omega_i_inv if omega_i else self._a_inv
        total = C_ZERO
        for key, c in xi.terms.items():
            r, s = indices(key)
            if r < N and s in block:
                total = total + c * m[r][s]
        return total

    # -- canonical forms and curvature ------------------------------------------------

    def canonical_forms(self) -> CanonicalForms:
        if self._canonical is not None:
            return self._canonical
        fr = self.geometry.frame
        n, N, dim = self.n, self.N, self.geometry.algebra.dim
        omega_bar_n = fr.conjugate(self.omega_power(n))
        d_obn = fr.del_(omega_bar_n)
        inv = (self.pf.conjugate() * ComplexScalar(rational(math.factorial(n)))).inverse()
        alpha_terms = {}
        for key, c in d_obn.terms.items():
            r = indices(key)[0]
            if r >= N:
                raise ConsistencyError("unexpected key in the top-power derivative")
            alpha_terms[mask((r,))] = c * inv
        alpha_div = Form(dim, 1, alpha_terms)
        alpha_lef = self.lefschetz_adjoint(fr.del_(self.omega_bar()), conjugate=True)
        if alpha_div != alpha_lef:
            raise ConsistencyError("alpha mismatch between division and adjoint routes")
        beta_div = self._beta_division()
        beta_lef = self.lefschetz_adjoint(self.del_omega)
        if beta_div != beta_lef:
            raise ConsistencyError("beta mismatch between division and adjoint routes")
        alpha, beta = alpha_div, beta_div
        if not fr.del_(alpha).is_zero():
            raise ConsistencyError("alpha is not del-closed")
        self._del_j_alpha = fr.del_j(alpha)
        if not fr.is_q_real(self._del_j_alpha):
            raise ConsistencyError("del_J alpha is not q-real")
        eta = alpha + fr.conjugate(alpha)
        theta = eta + beta + fr.conjugate(beta)
        self._canonical = CanonicalForms(alpha=alpha, beta=beta, eta=eta, theta=theta)
        return self._canonical

    def _beta_division(self) -> Form:
        """beta with beta ^ Omega^{n-1} = del Omega^{n-1}, read against A.

        By :func:`forms.cofactor_power`, z^r ^ Omega^{n-1} keeps the terms on
        z^{[N] minus {r, s}}; moving z^r into place leaves
        (n-1)! Pf (-1)^s (A^-1)[r][s] on z^{[N] minus {s}}, for s < r as for
        s > r.  So if c_s is the coefficient of del Omega^{n-1} on
        z^{[N] minus {s}}, beta A^-1 is the row (-1)^s c_s / ((n-1)! Pf), and
        beta_r = sum_s (-1)^s c_s A[s][r] / ((n-1)! Pf), with A read off
        Omega's coefficients: A[s][r] = Omega_{sr} = -A[r][s] for s < r.
        Hard Lefschetz makes beta -> beta ^ Omega^{n-1} an isomorphism of the
        (1,0)- onto the (2n-1,0)-forms, so this is the one solution.
        """
        n, N = self.n, self.N
        target = self.del_power
        scale = (self.pf * ComplexScalar(rational(math.factorial(n - 1)))).inverse()
        a: list = [{} for _ in range(N)]
        for key, w in self.omega.terms.items():
            if not w.is_zero():
                s, r = indices(key)
                a[s][r], a[r][s] = w, -w
        coeffs = [C_ZERO] * N
        for key, c in target.terms.items():
            s = N * (N - 1) // 2 - sum(indices(key))   # the one index missing from key
            c = c if s % 2 == 0 else -c
            for r, w in a[s].items():
                coeffs[r] = coeffs[r] + c * w
        return Form(self.geometry.algebra.dim, 1,
                    {mask((r,)): c * scale for r, c in enumerate(coeffs) if not c.is_zero()})

    def curvature(self) -> CurvatureData:
        if self._curvature is not None:
            return self._curvature
        fr = self.geometry.frame
        cf = self.canonical_forms()
        dja = self._del_j_alpha   # formed by canonical_forms for its q-real check
        djb = fr.del_j(cf.beta)
        s_ch_c = self._trace_ratio(dja) * C_TWO
        if not s_ch_c.is_real():
            raise ConsistencyError("Chern scalar curvature has an imaginary part")
        s_bis_c = -(self._trace_ratio(djb) * C_TWO)
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
        omega_j, omega_k = (self.omega_for_L(_sphere_point(base, H.columns[label]))
                            for label in ("J", "K"))
        omega_old_frame = (omega_j + omega_k.scale(C_I)).scale(HALF)
        real = self.geometry.frame.to_real(omega_old_frame)
        return Metric(rotated, rotated.frame.to_complex(real))


def _joined(lane, forms):
    """``(d, [(den, ints) per form])``: the :func:`forms.numerators` of the
    exact ``forms``, with d the radicand they share with the matrix
    ``lane``; None when the lane or a form is a float, or when two radicands
    occur, for the object route to promote or raise ``FieldMismatchError``."""
    if lane is None:
        return None
    d, out = lane[0], []
    for own in map(numerators, forms):
        if own is None or (own[0] and d and own[0] != d):
            return None
        d = d or own[0]
        out.append(own[1:])
    return d, out


def _sphere_point(H: HypercomplexStructure, L: list) -> SpherePoint:
    """The point (a, b, c) with L = a I + b J + c K, for L given by its sparse
    columns: a = -tr(L I)/dim, and likewise for J and K."""
    dim = H.dim
    coords = []
    for label in ("I", "J", "K"):
        M = H.columns[label]
        tr = ZERO
        for i in range(dim):
            # j increasing, as in the dense sum, so that float sums round alike
            for j in sorted(M[i]):
                x = L[j].get(i)
                if x is not None:
                    tr = tr + x * M[i][j]
        coords.append(tr * rational(-1, dim))
    p = SpherePoint(*coords)
    for j, col in enumerate(L):
        image: dict = {}
        for x, label in zip(coords, ("I", "J", "K")):
            add_scaled(image, x, H.columns[label][j])
        if image != col:
            raise MetricError("structure is not in the sphere of the base pair")
    return p
