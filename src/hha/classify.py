"""Special-metric predicates, Einstein factor, certificates, and searches.

Every flag is decided by its defining equation and, where an equivalent
scalar characterisation exists, cross-checked against it; a disagreement is
a hard internal error, never silently resolved.  All nonexistence verdicts
are scoped to invariant data.

The balanced, Gauduchon and q-Gauduchon characterisations live in one place,
``_characterisation_routes``, which both ``classify_metric`` and
``equivalence_audit`` read; the hyperkaehler and q-balanced audits are checked
inline in ``classify_metric``.

SKT for L in {I, J, K} is dd^c_L omega_L = 0 (Bismut 1989).  ``classify_metric``
decides all three in the base frame.  For I, omega_I is of type (1,1), so the
condition is del delbar omega_I = 0.  For J and K it reuses d omega_J and
d omega_K from the hyperkaehler audit (omega_J = Omega + conj(Omega),
omega_K = -i(Omega - conj(Omega))): the frame's ``j_action`` and ``i_action``
are the pullbacks J* and I*, K* = J* I*, and omega_L is L-invariant, so
dd^c_L omega_L = -d(L* d omega_L).  The rotated-frame route
(``Geometry.rotated`` and ``Metric.in_rotated_frame``, where the same condition
reads del delbar omega_I of the rotated metric) serves ``--pair`` and is the
oracle the tests compare against.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import linalg
from .forms import Form, bidegree_project, pure_bidegree
from .hermitian import (
    ConsistencyError,
    Metric,
    MetricError,
    QRealError,
    qpositivity_verdict,
)
from .hypercomplex import Geometry
from .scalars import (
    C_ONE,
    C_ZERO,
    ComplexScalar,
    ONE,
    Scalar,
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
    if form.is_zero():
        return ""
    txt = frame.format(form)
    parts = txt.split(" + ")
    if len(parts) > limit:
        txt = " + ".join(parts[:limit]) + f" + ... ({len(parts)} terms)"
    return txt


def solve_exactness(geom: Geometry, operator: str, target: Form,
                    source_bidegree: tuple):
    """Exact solve ``op(x) = target`` over the invariant complex.

    ``operator`` is one of "del", "del_j", "del_del_j".  Returns the witness
    form or None together with rank data: (witness, info).
    """
    fr = geom.frame
    ops = {
        "del": fr.del_,
        "del_j": fr.del_j,
        "del_del_j": lambda f: fr.del_(fr.del_j(f)),
    }
    op = ops[operator]
    p, q = source_bidegree
    N, dim = geom.N, geom.algebra.dim
    basis_keys = [
        hol + anti
        for hol in itertools.combinations(range(N), p)
        for anti in itertools.combinations(range(N, 2 * N), q)
    ]
    images = [op(Form.monomial(dim, key)) for key in basis_keys]
    row_keys = sorted({k for img in images for k in img.terms} | set(target.terms))
    index = {k: i for i, k in enumerate(row_keys)}
    if not row_keys:
        return Form.zero(dim, p + q), {"rank": 0, "consistent": True}
    mat = [[C_ZERO] * len(basis_keys) for _ in row_keys]
    for j, img in enumerate(images):
        for k, c in img.terms.items():
            mat[index[k]][j] = c
    rhs = [C_ZERO] * len(row_keys)
    for k, c in target.terms.items():
        rhs[index[k]] = c
    sol = linalg.solve(mat, rhs)
    info = {"rank": linalg.rank(mat), "consistent": sol is not None}
    if sol is None:
        return None, info
    terms = {basis_keys[j]: c for j, c in enumerate(sol) if not c.is_zero()}
    witness = Form(dim, p + q, terms)
    if op(witness) != target:
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
        ratio = dja.coefficient(key) / c
        if not ratio.is_real() or dja != m.omega.scale(ratio):
            return None, dja - m.omega
        lam = ratio.re
    # cross-checks: s^Ch = 2 n lambda, and the (1,1) reformulation
    if m.curvature().s_ch != lam * rational(2 * m.n):
        raise ConsistencyError("Einstein factor does not match s^Ch = 2 n lambda")
    ric = m.curvature().ric_ch
    anti = (ric - fr.j_action(ric)).scale(rational(1, 2))
    if anti != m.omega_i().scale(lam):
        raise ConsistencyError("Einstein factor fails the (1,1) reformulation")
    return lam, Form.zero(m.geometry.algebra.dim, 2)


def sl_and_class_check(m: Metric) -> dict:
    """Invariant-level holonomy reduction and first-class flags.

    At the invariant level del-exact (1,0)-forms vanish, so alpha = 0 is the
    full special-linear condition, d eta = 0 the restricted one, and
    del_J alpha = 0 the vanishing of the degree-one obstruction class.
    """
    fr = m.geometry.frame
    cf = m.canonical_forms()
    return {
        "alpha_zero": cf.alpha.is_zero(),
        "d_eta_zero": fr.d(cf.eta).is_zero(),
        "del_j_alpha_zero": m.curvature().del_j_alpha.is_zero(),
        "scope": "invariant level: exact invariant potentials are constants",
    }


def _gauduchon_scalar_residual(m: Metric) -> Scalar:
    cf = m.canonical_forms()
    cur = m.curvature()
    ab = cf.alpha + cf.beta
    return cur.s_ch - cur.s_bis - m.norm2(ab) * rational(2)


def _characterisation_routes(m: Metric):
    """Every characterisation of the balanced, Gauduchon and q-Gauduchon flags.

    Balanced: d(omega_I^{2n-1}) = 0, alpha + beta = 0, del(Omega^{n-1} ^
    conj(Omega^n)) = 0 and theta = 0.  Gauduchon: del delbar(omega_I^{2n-1}) =
    0, s^Ch - s^Bis - 2|alpha + beta|^2 = 0 and del del_J(Omega^{n-1} ^
    conj(Omega^n)) = 0.  q-Gauduchon: del del_J(Omega^{n-1}) = 0 and
    s^Bis + 2|beta|^2 = 0.  omega_I^{2n-1} is read from the Gram cofactors
    and differentiated once; the mixed power is built once.

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
    mixed = power.wedge(fr.conjugate(m.omega_power(n)))
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
            (m.curvature().s_bis + m.norm2(cf.beta) * rational(2)).is_zero(),
        ),
    }
    residuals = {
        "gauduchon": str(gauduchon_scalar),
        "balanced": _residual(cf.theta, fr),
        "q_gauduchon": _residual(ddj_power, fr),
    }
    return values, residuals


def classify_metric(m: Metric, with_obstruction: bool = True,
                    skt_structures: bool = True) -> ClassificationReport:
    """Full special-metric report with built-in equivalence audits."""
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

    del_omega = fr.del_(m.omega)
    hkt = del_omega.is_zero()

    power = m.omega_power(n - 1)
    del_power = fr.del_(power)
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

    ddj_omega_bar = fr.del_(fr.del_j(m.omega_bar()))
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
    if skt_structures:
        # dd^c_L omega_L = -d(L* d omega_L) with K* = J* I*; see the module docstring
        skt["I"] = fr.del_(fr.delbar(omega_i)).is_zero()
        skt["J"] = fr.d(fr.j_action(d_oj)).is_zero()
        skt["K"] = fr.d(fr.j_action(fr.i_action(d_ok))).is_zero()

    lam, lam_res = einstein_factor(m)
    sl = sl_and_class_check(m)

    obstruction = None
    if with_obstruction and routes["gauduchon"][0]:
        obstruction = conformal_class_obstruction(m)

    if geom.algebra.validate().nilpotent and not geom.is_abelian():
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
    c1 = cur.s_ch - m.norm2(cf.alpha) * rational(2)
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
    if not geom.algebra.validate().unimodular:
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
    vals = []
    for p in range(1, height + 1):
        for q in range(1, height + 1):
            f = rational(p, q)
            if f not in vals:
                vals.append(f)
    return vals


PREDICATES = {
    "hkt": lambda rep: rep.flag("hkt"),
    "strong_hkt": lambda rep: rep.flag("strong_hkt"),
    "hyperkaehler": lambda rep: rep.flag("hyperkaehler"),
    "q_balanced": lambda rep: rep.flag("q_balanced"),
    "q_strongly_gauduchon": lambda rep: rep.flag("q_strongly_gauduchon"),
    "q_gauduchon": lambda rep: rep.flag("q_gauduchon"),
    "balanced": lambda rep: rep.flag("balanced"),
    "gauduchon": lambda rep: rep.flag("gauduchon"),
}


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
    The predicate may be a name from PREDICATES or a callable on reports.
    """
    pred_name = predicate if isinstance(predicate, str) else getattr(
        predicate, "__name__", "custom")
    pred = PREDICATES[predicate] if isinstance(predicate, str) else predicate
    n = geom.n
    vals = _height_grid(height)
    tested = 0
    exhausted = True

    def check(m: Metric):
        rep = classify_metric(m, with_obstruction=False, skt_structures=False)
        return pred(rep)

    for combo in itertools.product(vals, repeat=n):
        if tested >= budget:
            exhausted = False
            break
        tested += 1
        m = Metric.diagonal(geom, list(combo))
        if check(m):
            return SearchResult(m, tested, False, family, pred_name)
    if family == "full":
        base = [ONE] * n
        offs = [rational(1, 2), rational(-1, 2), ONE, -ONE]
        N = geom.N
        for r in range(N):
            for s in range(r + 1, N):
                for off in offs:
                    if tested >= budget:
                        exhausted = False
                        break
                    tested += 1
                    seed = Form.monomial(geom.algebra.dim, (r, s), ComplexScalar(off))
                    sym = seed + geom.frame.j_action(geom.frame.conjugate(seed))
                    omega = Metric.diagonal(geom, base).omega + sym
                    try:
                        m = Metric(geom, omega)
                    except (MetricError, QRealError):
                        continue
                    if check(m):
                        return SearchResult(m, tested, False, family, pred_name)
    return SearchResult(None, tested, exhausted, family, pred_name)


# -- family-level certificates ------------------------------------------------------


def q_real_basis(geom: Geometry):
    """Spanning set of the real space of q-real (2,0)-forms.

    Symmetrises both real and imaginary unit coefficients of every monomial;
    the set spans (duplicates are harmless to span computations).
    """
    N, dim = geom.N, geom.algebra.dim
    fr = geom.frame
    out = []
    for r in range(N):
        for s in range(r + 1, N):
            for coeff in (C_ONE, ComplexScalar(ZERO, ONE)):
                seed = Form.monomial(dim, (r, s), coeff)
                cand = seed + fr.j_action(fr.conjugate(seed))
                if not cand.is_zero():
                    out.append(cand)
    return out


@dataclass
class FamilyExactnessReport:
    image_intersection_trivial: bool
    samples_all_fail: bool
    sample_count: int
    nonvanishing_on_samples: bool


MAX_POLARIZATION_N = 3


def family_qsg_obstruction(geom: Geometry, samples: int = 6,
                           seed: int = 11) -> FamilyExactnessReport:
    """Family-level test that no invariant metric is q-strongly-Gauduchon.

    Certifies that the (complex) span of del(Omega^{n-1}) over all q-real
    Omega meets the image of the twisted differential only in zero - a
    sufficient certificate, since the complex span contains the real one -
    and additionally exhausts a diagonal grid plus random q-real samples.
    The polarisation enumeration grows as binom(dim + n - 2, n - 1), so the
    certificate is limited to small quaternionic dimension.
    """
    import random as _random
    fr = geom.frame
    n, N, dim = geom.n, geom.N, geom.algebra.dim
    if n > MAX_POLARIZATION_N:
        raise ValueError(
            f"family certificate implemented for n <= {MAX_POLARIZATION_N}; "
            "use the diagonal-family interpolation and grid exhaustion instead"
        )
    basis = q_real_basis(geom)
    # span of del(Omega^{n-1}) by polarisation: del(m_1 ^ ... ^ m_{n-1})
    span_forms = []
    for combo in itertools.combinations_with_replacement(range(len(basis)), n - 1):
        prod = Form.constant(dim, C_ONE)
        for i in combo:
            prod = prod.wedge(basis[i])
        df = fr.del_(prod)
        if not df.is_zero():
            span_forms.append(df)
    # image of del_J on (2n-2, 0)
    image_forms = []
    for key in itertools.combinations(range(N), 2 * n - 2):
        img = fr.del_j(Form.monomial(dim, key))
        if not img.is_zero():
            image_forms.append(img)
    all_keys = sorted({k for f in span_forms + image_forms for k in f.terms})
    index = {k: i for i, k in enumerate(all_keys)}

    def row(f):
        v = [C_ZERO] * len(all_keys)
        for k, c in f.terms.items():
            v[index[k]] = c
        return v

    span_rows = [row(f) for f in span_forms]
    image_rows = [row(f) for f in image_forms]
    r_span = linalg.rank(span_rows) if span_rows else 0
    r_image = linalg.rank(image_rows) if image_rows else 0
    r_union = linalg.rank(span_rows + image_rows) if span_rows or image_rows else 0
    trivial = r_union == r_span + r_image

    rng = _random.Random(seed)
    all_fail = True
    nonvanishing = True
    count = 0
    for combo in itertools.product((ONE, rational(2), rational(1, 2)), repeat=n):
        m = Metric.diagonal(geom, list(combo))
        dp = fr.del_(m.omega_power(n - 1))
        if dp.is_zero():
            nonvanishing = False
        w, _ = solve_exactness(geom, "del_j", dp, (2 * n - 2, 0))
        if w is not None:
            all_fail = False
        count += 1
        if count >= samples:
            break
    for _ in range(samples):
        diag = [rational(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n)]
        m = Metric.diagonal(geom, diag)
        dp = fr.del_(m.omega_power(n - 1))
        if dp.is_zero():
            nonvanishing = False
        w, _ = solve_exactness(geom, "del_j", dp, (2 * n - 2, 0))
        if w is not None:
            all_fail = False
        count += 1
    return FamilyExactnessReport(
        image_intersection_trivial=trivial,
        samples_all_fail=all_fail,
        sample_count=count,
        nonvanishing_on_samples=nonvanishing,
    )


def qgau_family_symbolic_check(geom: Geometry) -> bool:
    """Multilinear-interpolation proof of the diagonal-family derivative formula.

    For the graded family with del z^{2n} the only nonclosed holomorphic
    generator, del(Omega^{n-1}) of a diagonal metric diag(t_1..t_n) equals
    -((n-1)!/2) (sum_{k<n} prod_{i != k} t_i) z^1...z^{2n-1}; both sides are
    multilinear in t, so agreement on {1,2}^n points proves the identity.
    The right side is minus a sum of products of positive entries, hence
    nonzero on every q-positive diagonal metric.
    """
    import math as _math
    fr = geom.frame
    n, N, dim = geom.n, geom.N, geom.algebra.dim
    target_key = tuple(range(2 * n - 1))
    for point in itertools.product((ONE, rational(2)), repeat=n):
        m = Metric.diagonal(geom, list(point))
        dp = fr.del_(m.omega_power(n - 1))
        expected_coeff = ZERO
        for k in range(n - 1):
            prod = ONE
            for i in range(n):
                if i != k:
                    prod = prod * point[i]
            expected_coeff = expected_coeff + prod
        expected_coeff = expected_coeff * rational(-_math.factorial(n - 1), 2)
        expect = Form.monomial(dim, target_key, ComplexScalar(expected_coeff))
        if dp != expect:
            return False
    return True
