"""Special-metric predicates, Einstein factor, certificates, and searches.

Every flag is decided by its defining equation and, where an equivalent
scalar characterisation exists, cross-checked against it; a disagreement is
a hard internal error, never silently resolved.  All nonexistence verdicts
are scoped to invariant data.

The balanced, Gauduchon and q-Gauduchon characterisations live in one place,
``_characterisation_routes``, which both ``classify_metric`` and
``equivalence_audit`` read; the hyperkaehler and q-balanced audits are checked
inline in ``classify_metric``.

SKT for L in {I, J, K} is dd^c_L omega_L = 0 (Bismut 1989) and strong HKT is
del del_J conj(Omega) = 0 (Grantcharov-Poon 2000); ``classify_metric``
decides them in the base frame.  For I, omega_I has type (1,1), so SKT is
del delbar omega_I = 0, delbar omega_I being the (1,2) part of the
d omega_I of the hyperkaehler flag.  For J and K: the frame's ``j_action``
and ``i_action`` are the pullbacks J* and I*, K* = J* I*, and omega_L is
L-invariant, so dd^c_L omega_L = -d(L* d omega_L).  I is integrable, so
d Omega has the parts del Omega of type (3,0) and delbar Omega of type (2,1).
As d, I* and J* are real, omega_J = Omega + conj(Omega), omega_K = -i Omega +
conj(-i Omega) and I*(-i d Omega) = delbar Omega - del Omega,
d(J* d omega_J) = w_J + conj(w_J) and d(K* d omega_K) = w_K + conj(w_K) with
w_J = b + a and w_K = b - a, for a = d(J* del Omega), of types (1,3) and
(0,4), and b = d(J* delbar Omega), of types (2,2) and (1,3).  Type by type,
SKT for J (for K) holds exactly when a^{0,4} = 0, a^{1,3} = -b^{1,3}
(+b^{1,3}) and b^{2,2} + conj(b^{2,2}) = 0.  Strong HKT: J* conj(Omega) =
Omega (q-reality, checked by ``Metric``) and J^-1 = -J* on 3-forms give
del_J conj(Omega) = J^-1 delbar(J* conj(Omega)) = -J* delbar Omega, so
del del_J conj(Omega) = -b^{2,2}, the flag's residual (a float metric forms
del del_J conj(Omega) itself, keeping that route's rounding).  The tests keep
the full forms as oracles, and the rotated-frame route (``Geometry.rotated``
and ``Metric.in_rotated_frame``, where SKT for L reads del delbar omega_I of
the rotated metric), which serves ``--pair``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import linalg
from .forms import Form, NumeratorForm, bidegree_project, indices, pure_bidegree
from .hermitian import (
    ConsistencyError,
    Metric,
    MetricError,
    QRealError,
    qpositivity_verdict,
)
from .hypercomplex import Geometry
from .scalars import (
    C_ZERO,
    ComplexScalar,
    HALF,
    ONE,
    Scalar,
    TWO,
    ZERO,
    rational,
)


class GauduchonRequiredError(ValueError):
    """Input metric to a conformal-class obstruction must be Gauduchon."""


@dataclass
class FlagResult:
    value: bool
    residual: str = ""

    def __bool__(self):
        return self.value


@dataclass
class Certificate:
    kind: str
    witness: Form
    sigma: Form
    transcript: list


@dataclass
class CertificateRejection:
    reason: str
    sigma: Form | None = None


@dataclass
class ObstructionReport:
    c1: Scalar
    gamma_bis_unit: Scalar
    gamma_bis_scaled: Scalar
    q_gauduchon_in_class: bool
    q_balanced_in_class: bool
    scope: str = "invariant metrics in the conformal class"


@dataclass
class ClassificationReport:
    n: int
    flags: dict
    skt: dict
    s_ch: Scalar
    s_bis: Scalar
    einstein_factor: Scalar | None
    einstein_residual: str
    sl_flags: dict
    obstruction: ObstructionReport | None
    notes: list
    witnesses: dict = field(default_factory=dict)
    scope: str = "invariant data on the Lie algebra"

    def flag(self, name: str) -> bool:
        return self.flags[name].value


_CHAIN = ["hyperkaehler", "hkt", "q_balanced", "q_strongly_gauduchon", "q_gauduchon"]


def _residual(form: Form, frame, limit: int = 4) -> str:
    """``frame.format(form)`` cut after its first ``limit`` terms, with the
    count of all of them; only the printed terms are formatted."""
    keys = form.keys()
    if len(keys) <= limit:
        return frame.format(form) if keys else ""
    shown = form.restrict(sorted(keys, key=indices)[:limit])
    return f"{frame.format(shown)} + ... ({len(keys)} terms)"


def solve_exactness(geom: Geometry, operator: str, target: Form,
                    source_bidegree: tuple):
    """Exact solve ``op(x) = target`` for op = del or del_J ("del", "del_j")
    on the (2n-2, 0)-forms, the one system any caller asks for; any other
    operator or ``source_bidegree`` raises ``ValueError``.

    Returns the witness form or None with rank data: (witness, info).  The
    images op(m_j) of the source monomials are the frame's
    ``corank_two_images``.  Each monomial k gives the equation
    sum_j x_j op(m_j)_k = target_k, the target in column ``len(basis)``: one
    elimination is consistent exactly when that column is not a pivot, and
    the rank of op is the number of the other pivots.  The witness (free
    variables zero) is verified by applying op, through the Leibniz kernel.
    """
    fr = geom.frame
    n, dim = geom.n, geom.algebra.dim
    ops = {"del": fr.del_, "del_j": fr.del_j}
    if operator not in ops or tuple(source_bidegree) != (2 * n - 2, 0):
        raise ValueError(f"solve_exactness solves del or del_j on ({2 * n - 2}, 0)-forms, "
                         f"not {operator} on {tuple(source_bidegree)}-forms")
    images = fr.corank_two_images(operator)
    basis = list(images)
    rhs = len(basis)
    equations: dict = {}
    for j, image in enumerate(images.values()):
        for k, c in image.items():
            equations.setdefault(k, {})[j] = c
    for k, c in target.terms.items():
        equations.setdefault(k, {})[rhs] = c
    rows = linalg.echelon(equations.values())
    consistent = rhs not in rows
    info = {"rank": len(rows) - (not consistent), "consistent": consistent}
    if not consistent:
        return None, info
    terms = {basis[j]: row[rhs] for j, row in rows.items() if rhs in row}
    witness = Form(dim, 2 * n - 2, terms)
    if ops[operator](witness) != target:
        raise ConsistencyError("exactness witness failed verification")
    return witness, info


def einstein_factor(m: Metric):
    """lambda with del_J alpha = lambda Omega, or None with the residual."""
    fr = m.geometry.frame
    dja = m.curvature().del_j_alpha
    if dja.is_zero():
        lam = ZERO
    else:
        key, c = next(iter(m.omega.terms.items()))
        ratio = dja.terms.get(key, C_ZERO) / c
        if not ratio.is_real() or dja != m.omega.scale(ratio):
            return None, dja - m.omega
        lam = ratio.re
    # cross-checks: s^Ch = 2 n lambda, and the (1,1) reformulation
    if m.curvature().s_ch != lam * rational(2 * m.n):
        raise ConsistencyError("Einstein factor does not match s^Ch = 2 n lambda")
    ric = m.curvature().ric_ch
    anti = (ric - fr.j_action(ric)).scale(HALF)
    if anti != m.omega_i().scale(lam):
        raise ConsistencyError("Einstein factor fails the (1,1) reformulation")
    return lam, Form.zero(m.geometry.algebra.dim, 2)


def sl_and_class_check(m: Metric) -> dict:
    """Invariant-level holonomy reduction and first-class flags.

    At the invariant level del-exact (1,0)-forms vanish, so alpha = 0 is the
    full special-linear condition, d eta = 0 (the curvature's ``ric_ob``)
    the restricted one, and del_J alpha = 0 the vanishing of the degree-one
    obstruction class.
    """
    return {
        "alpha_zero": m.canonical_forms().alpha.is_zero(),
        "d_eta_zero": m.curvature().ric_ob.is_zero(),
        "del_j_alpha_zero": m.curvature().del_j_alpha.is_zero(),
        "scope": "invariant level: exact invariant potentials are constants",
    }


def _gauduchon_scalar_residual(m: Metric) -> Scalar:
    cf = m.canonical_forms()
    cur = m.curvature()
    ab = cf.alpha + cf.beta
    return cur.s_ch - cur.s_bis - m.norm2(ab) * TWO


def _characterisation_routes(m: Metric):
    """Every characterisation of the balanced, Gauduchon and q-Gauduchon flags.

    Balanced: d(omega_I^{2n-1}) = 0, alpha + beta = 0, del(Omega^{n-1} ^
    conj(Omega^n)) = 0 and theta = 0.  Gauduchon: del delbar(omega_I^{2n-1}) =
    0, s^Ch - s^Bis - 2|alpha + beta|^2 = 0 and del del_J(Omega^{n-1} ^
    conj(Omega^n)) = 0.  q-Gauduchon: del del_J(Omega^{n-1}) = 0 and
    s^Bis + 2|beta|^2 = 0.  omega_I^{2n-1} is read from the Gram cofactors
    and differentiated once; the mixed power is a relabelling of Omega^{n-1}
    (``Metric.mixed_power``).

    Returns the per-flag tuples of booleans, one per route, and the residual
    string each flag reports.
    """
    fr = m.geometry.frame
    cf = m.canonical_forms()
    n = m.n
    power = m.omega_power(n - 1)
    top_i = m.omega_i_top_minus_one()
    d_top_i = fr.d(top_i)
    # top_i has bidegree (N-1, N-1), so delbar(top_i) is the (N-1, N) part of d
    delbar_top_i = bidegree_project(d_top_i, m.N, m.N - 1, m.N)
    mixed = m.mixed_power()
    gauduchon_scalar = _gauduchon_scalar_residual(m)
    ddj_power = fr.del_(fr.del_j(power))
    values = {
        "gauduchon": (
            fr.del_(delbar_top_i).is_zero(),
            gauduchon_scalar.is_zero(),
            fr.del_(fr.del_j(mixed)).is_zero(),
        ),
        "balanced": (
            d_top_i.is_zero(),
            (cf.alpha + cf.beta).is_zero(),
            fr.del_(mixed).is_zero(),
            cf.theta.is_zero(),
        ),
        "q_gauduchon": (
            ddj_power.is_zero(),
            (m.curvature().s_bis + m.norm2(cf.beta) * TWO).is_zero(),
        ),
    }
    residuals = {
        "gauduchon": str(gauduchon_scalar),
        "balanced": _residual(cf.theta, fr),
        "q_gauduchon": _residual(ddj_power, fr),
    }
    return values, residuals


def classify_metric(m: Metric, flags_only: bool = False) -> ClassificationReport:
    """Full special-metric report with built-in equivalence audits; with
    ``flags_only``, without SKT per structure (``skt`` empty) and the
    conformal-class obstruction (``obstruction`` None)."""
    geom = m.geometry
    fr = geom.frame
    n = m.n
    notes = []
    cf = m.canonical_forms()
    cur = m.curvature()

    omega_i = m.omega_i()
    d_omega_i = fr.d(omega_i)
    d_omega = fr.d(m.omega)
    hyperkaehler = d_omega_i.is_zero() and d_omega.is_zero()
    # audit: d omega_L = 0 for L in {J, K} is equivalent to d Omega = 0
    d_oj = fr.d(m.omega + m.omega_bar())
    d_ok = fr.d((m.omega - m.omega_bar()) * ComplexScalar(ZERO, -ONE))
    if hyperkaehler != (d_oj.is_zero() and d_ok.is_zero() and d_omega_i.is_zero()):
        raise ConsistencyError("hyperkaehler audits disagree")

    del_omega = m.del_omega
    hkt = del_omega.is_zero()

    del_power = m.del_power
    q_balanced = del_power.is_zero()
    # audit: q-balanced iff beta = 0 (since beta ^ Omega^{n-1} = del Omega^{n-1})
    if q_balanced != cf.beta.is_zero():
        raise ConsistencyError("q-balanced disagrees with beta = 0")

    witness, _info = solve_exactness(geom, "del_j", del_power, (2 * n - 2, 0))
    q_strongly_gauduchon = witness is not None
    witnesses = {}
    if witness is not None and not witness.is_zero():
        witnesses["q_strongly_gauduchon"] = witness

    routes, residuals = _characterisation_routes(m)
    for name, message in (
        ("q_gauduchon", "q-Gauduchon disagrees with s^Bis + 2|beta|^2 = 0"),
        ("balanced", "balanced characterisations disagree"),
        ("gauduchon", "Gauduchon characterisations disagree"),
    ):
        if len(set(routes[name])) != 1:
            raise ConsistencyError(message)

    # b = d(J* delbar Omega), and del del_J conj(Omega) = -b^{2,2}: see the module docstring
    b = fr.d(fr.j_action(bidegree_project(d_omega, m.N, 2, 1)))
    ddj_omega_bar = (-bidegree_project(b, m.N, 2, 2) if isinstance(b, NumeratorForm)
                     else fr.del_(fr.del_j(m.omega_bar())))
    strong_hkt = hkt and ddj_omega_bar.is_zero()

    flags = {
        "hyperkaehler": FlagResult(hyperkaehler, _residual(d_omega, fr)),
        "hkt": FlagResult(hkt, _residual(del_omega, fr)),
        "strong_hkt": FlagResult(
            strong_hkt,
            "" if strong_hkt else _residual(ddj_omega_bar, fr) or _residual(del_omega, fr),
        ),
        "q_balanced": FlagResult(q_balanced, _residual(del_power, fr)),
        "q_strongly_gauduchon": FlagResult(
            q_strongly_gauduchon,
            "" if q_strongly_gauduchon else _residual(del_power, fr),
        ),
    }
    for name in ("q_gauduchon", "balanced", "gauduchon"):
        flags[name] = FlagResult(routes[name][0], residuals[name])
    if n == 1:
        notes.append(
            "n = 1 degenerate: the (n-1)-st power predicates are vacuous"
        )
    _check_implication_chain(flags)

    skt = {}
    if not flags_only:
        # del delbar omega_I, and a and b for J and K; see the module docstring
        skt["I"] = fr.del_(bidegree_project(d_omega_i, m.N, 1, 2)).is_zero()
        skt["J"], skt["K"] = _skt_j_k(fr, fr.d(fr.j_action(del_omega)), b)

    lam, lam_res = einstein_factor(m)
    sl = sl_and_class_check(m)

    obstruction = None
    if not flags_only and routes["gauduchon"][0]:
        obstruction = conformal_class_obstruction(m)

    if not geom.is_abelian() and geom.algebra.nilpotent:
        notes.append(
            "nilpotent with non-abelian structure: no invariant HKT metric exists"
        )

    return ClassificationReport(
        n=n,
        flags=flags,
        skt=skt,
        s_ch=cur.s_ch,
        s_bis=cur.s_bis,
        einstein_factor=lam,
        einstein_residual=_residual(lam_res, fr) if lam is None else "",
        sl_flags=sl,
        obstruction=obstruction,
        notes=notes,
        witnesses=witnesses,
    )


def _skt_j_k(fr, a: Form, b: Form) -> tuple:
    """SKT for J and for K, read off a = d(J* del Omega) and b = d(J* delbar Omega)."""
    N = fr.N
    a13, b13, b22 = (bidegree_project(f, N, p, 4 - p) for f, p in ((a, 1), (b, 1), (b, 2)))
    common = bidegree_project(a, N, 0, 4).is_zero() and fr.conjugate(b22) == -b22
    return common and a13 == -b13, common and a13 == b13


def _check_implication_chain(flags: dict):
    order = _CHAIN
    for stronger, weaker in zip(order, order[1:]):
        if flags[stronger].value and not flags[weaker].value:
            raise ConsistencyError(
                f"implication chain violated: {stronger} without {weaker}"
            )


def equivalence_audit(m: Metric) -> dict:
    """All paper-equivalent characterisations of the three audit flags.

    Returns, per flag, the tuple of booleans computed from each equivalent
    condition; classification treats any disagreement as a hard error, and
    this helper exposes the raw tuples for the acceptance suite.
    """
    return _characterisation_routes(m)[0]


def conformal_class_obstruction(m: Metric) -> ObstructionReport:
    """Existence of q-Gauduchon / q-balanced metrics in the conformal class.

    Requires a Gauduchon input.  At the invariant level the sign-change
    alternative degenerates: the constant c1 = s^Ch - 2|alpha|^2 must vanish,
    and the degree Gamma^Bis = s^Bis * volume decides the rest.
    """
    res = _gauduchon_scalar_residual(m)
    if not res.is_zero():
        raise GauduchonRequiredError(
            f"metric is not Gauduchon: s^Ch - s^Bis - 2|alpha+beta|^2 = {res}"
        )
    cf = m.canonical_forms()
    cur = m.curvature()
    c1 = cur.s_ch - m.norm2(cf.alpha) * TWO
    gamma_unit = cur.s_bis
    gamma_scaled = cur.s_bis * m.volume_coefficient()
    q_gau = c1.is_zero() and gamma_unit.sign() <= 0
    q_bal = c1.is_zero() and gamma_unit.is_zero()
    return ObstructionReport(
        c1=c1,
        gamma_bis_unit=gamma_unit,
        gamma_bis_scaled=gamma_scaled,
        q_gauduchon_in_class=q_gau,
        q_balanced_in_class=q_bal,
    )


def qbal_nonexistence_certificate(geom: Geometry, psi: Form):
    """Verify a nonexistence certificate for invariant q-balanced metrics.

    Accepts iff sigma = del(psi) is a nonzero, q-real, q-semipositive
    (2,0)-form.  Acceptance proves no invariant quaternionic balanced metric
    exists: such a sigma has strictly positive trace against every q-positive
    form, while its pairing with a del-closed power vanishes on a unimodular
    algebra whose structure is SL(n,H).
    """
    fr = geom.frame
    sigma = fr.del_(psi)
    if sigma.is_zero():
        return CertificateRejection("del(psi) vanishes", sigma)
    if pure_bidegree(sigma, geom.N) != (2, 0):
        return CertificateRejection("del(psi) is not of bidegree (2,0)", sigma)
    if not fr.is_q_real(sigma):
        return CertificateRejection("del(psi) is not q-real", sigma)
    verdict = qpositivity_verdict(geom, sigma)
    if verdict not in ("positive", "semipositive"):
        return CertificateRejection(f"del(psi) is {verdict}", sigma)
    if not geom.algebra.unimodular:
        return CertificateRejection(
            "pairing argument needs a unimodular algebra", sigma
        )
    if not fr.delbar(Form.monomial(geom.algebra.dim, range(geom.N))).is_zero():
        return CertificateRejection(
            "pairing argument needs an SL(n,H) structure: delbar of the "
            "invariant (N,0)-form does not vanish", sigma
        )
    transcript = [
        f"sigma = del(psi) = {fr.format(sigma)}",
        f"sigma is q-real and {verdict} (exact Hermitian inertia)",
        "for q-positive Omega: trace_Omega(sigma) > 0, so "
        "sigma ^ Omega^{n-1} is a positive multiple of Omega^n",
        "SL(n,H): delbar of the invariant (N,0)-form vanishes, so "
        "del conj(Omega^n) = 0 and sigma ^ Omega^{n-1} ^ conj(Omega^n) = "
        "d(psi ^ Omega^{n-1} ^ conj(Omega^n)) for any del-closed Omega^{n-1}",
        "unimodularity: invariant exact top forms vanish, so that pairing "
        "is zero",
        "hence no invariant quaternionic balanced metric exists",
    ]
    return Certificate(kind="qbal_nonexistence", witness=psi, sigma=sigma,
                       transcript=transcript)


# -- searches -------------------------------------------------------------------


def _height_grid(height: int):
    """The distinct p/q with 1 <= p, q <= height, in order of first appearance."""
    return list(dict.fromkeys(rational(p, q) for p in range(1, height + 1)
                              for q in range(1, height + 1)))


# the flags a search can look for by name
PREDICATES = ("hkt", "strong_hkt", "hyperkaehler", "q_balanced", "q_strongly_gauduchon",
              "q_gauduchon", "balanced", "gauduchon")


@dataclass
class SearchResult:
    witness: Metric | None
    tested: int
    exhausted: bool
    family: str
    predicate: str


def search_metrics(geom: Geometry, predicate, family: str = "diagonal",
                   height: int = 3, budget: int = 2000) -> SearchResult:
    """Grid search for an invariant metric satisfying a predicate.

    Diagonal family: positive rationals of bounded height on the diagonal.
    Full family adds a single q-real off-diagonal perturbation per point.
    The predicate may be a flag name from PREDICATES or a callable on reports.
    """
    named = isinstance(predicate, str)
    if named and predicate not in PREDICATES:
        raise KeyError(predicate)
    pred_name = predicate if named else getattr(predicate, "__name__", "custom")
    n = geom.n
    vals = _height_grid(height)
    tested = 0
    exhausted = True

    def check(m: Metric):
        rep = classify_metric(m, flags_only=True)
        return rep.flag(predicate) if named else predicate(rep)

    for combo in itertools.product(vals, repeat=n):
        if tested >= budget:
            exhausted = False
            break
        tested += 1
        m = Metric.diagonal(geom, list(combo))
        if check(m):
            return SearchResult(m, tested, False, family, pred_name)
    if family == "full":
        unitary = Metric.unitary(geom).omega
        offs = [rational(1, 2), rational(-1, 2), ONE, -ONE]
        N = geom.N
        points = ((r, s, off) for r in range(N) for s in range(r + 1, N) for off in offs)
        for r, s, off in points:
            if tested >= budget:
                exhausted = False
                break
            tested += 1
            seed = Form.monomial(geom.algebra.dim, (r, s), ComplexScalar(off))
            sym = seed + geom.frame.j_action(geom.frame.conjugate(seed))
            try:
                m = Metric(geom, unitary + sym)
            except (MetricError, QRealError):
                continue
            if check(m):
                return SearchResult(m, tested, False, family, pred_name)
    return SearchResult(None, tested, exhausted, family, pred_name)


# -- family-level certificates ------------------------------------------------------
#
# Together these decide the graded family's claims for every invariant metric,
# not only for the given one.  No q-sG metric: ``qbal_nonexistence_certificate``
# proves no metric is q-balanced, and ``family_qsg_obstruction`` proves a q-sG
# metric would be q-balanced (its del(Omega^{n-1}) lies in im del_J and in the
# del-span, which meet only in zero).  Every metric q-Gauduchon:
# ``qgau_family_symbolic_check`` proves del del_J kills every (2n-2,0)-form, so
# in particular every Omega^{n-1}.


def family_qsg_obstruction(geom: Geometry) -> bool:
    """True when a q-strongly-Gauduchon invariant metric would be q-balanced.

    Certifies that the (complex) span of del(Omega^{n-1}) over all q-real
    Omega meets the image of the twisted differential only in zero - a
    sufficient certificate, since the complex span contains the real one.
    A q-sG metric has del(Omega^{n-1}) = del_J(x) in both, so it vanishes.

    The span has a closed form.  The q-real (2,0)-forms are the fixed set of
    the antilinear involution J o conj of the (2,0)-forms, so their complex
    span is every (2,0)-form.  By polarisation, the complex span of
    Omega^{n-1} over q-real Omega is spanned by the products of n-1
    (2,0)-forms, and that is every (2n-2,0)-form, since each monomial is a
    product of the z^{ab}.  So the span of del(Omega^{n-1}) is spanned by
    del of the binom(N, 2n-2) holomorphic monomials, and the image of del_J
    on (2n-2,0)-forms by del_J of the same monomials.  The two meet in zero
    exactly when adding the del_J rows to the echelon basis of the del rows
    raises its rank by the rank of del_J.
    """
    fr = geom.frame
    rows: dict = {}
    for vec in fr.corank_two_images("del").values():
        linalg.echelon_add(rows, vec)
    r_span = len(rows)
    image_rows = fr.corank_two_images("del_j").values()
    for vec in image_rows:
        linalg.echelon_add(rows, vec)
    return len(rows) == r_span + len(linalg.echelon(image_rows))


def qgau_family_symbolic_check(geom: Geometry) -> bool:
    """True when del del_J vanishes on every (2n-2,0)-form, that is, when
    every invariant metric is q-Gauduchon.

    Sufficient, as Omega^{n-1} is a (2n-2,0)-form.  Necessary too: if every
    q-positive Omega has del del_J(Omega^{n-1}) = 0, the polynomial identity
    holds on the open q-positive cone, hence on every q-real Omega, hence on
    their complex span, every (2,0)-form; by polarisation it holds on every
    product of n-1 (2,0)-forms, and these span the (2n-2,0)-forms (see
    :func:`family_qsg_obstruction`).

    del_J of a (2n-2,0) monomial is sum_k c_k z^{[N] minus k}
    (``corank_two_images``), and del z^{[N] minus k} = tau_k z^{[N]}, so
    del del_J of the monomial is (sum_k tau_k c_k) times the top form: the N
    numbers tau_k are read once and no form is built per monomial.
    """
    fr, N, dim = geom.frame, geom.N, geom.algebra.dim
    full = (1 << N) - 1
    tau = {}
    for k in range(N):
        t = fr.del_(Form.monomial(dim, [j for j in range(N) if j != k])).terms.get(full)
        if t is not None and not t.is_zero():
            tau[full ^ (1 << k)] = t
    for image in fr.corank_two_images("del_j").values():
        total = C_ZERO
        for key, t in tau.items():
            c = image.get(key)
            if c is not None:
                total = total + t * c
        if not total.is_zero():
            return False
    return True
