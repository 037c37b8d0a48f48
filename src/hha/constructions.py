"""Generative constructions: direct sums, central gluing, quaternionic
semidirect extensions, and the compact-group block builder with its
Einstein metric.

The first three are block sums, all assembled by :func:`_block_sum_geometry`:
the inputs side by side, ``k`` new standard quaternionic blocks, the
construction's own brackets, the block-diagonal structure, and Omega the
inputs' Omegas plus the unitary term on each new block.

All outputs are fully re-validated (Jacobi, integrability, metric axioms);
the constructions also verify the structural identities they promise
(pullback of canonical forms, the exact Einstein identity, flag closure).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .classify import classify_metric, einstein_factor
from .forms import Form, indices, mask
from .hermitian import ConsistencyError, Metric
from .hypercomplex import Geometry, HypercomplexStructure
from .liealg import LieAlgebraData
from .linalg import _apply, _columns, add_scaled
from .scalars import (
    C_ONE,
    ONE,
    Scalar,
    ScalarField,
    ZERO,
    rational,
)


class ConstructionError(ValueError):
    pass


def exact_inv_sqrt(m: int) -> Scalar:
    """1/sqrt(m) as an exact scalar (rational or quadratic)."""
    if m <= 0:
        raise ConstructionError("inverse square root needs a positive integer")
    s, d = 1, m
    k = 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    if d == 1:
        return rational(1, s)
    return Scalar(Fraction(0), Fraction(1, s * d), d)


def embed_complex_form(form: Form, n_src: int, n_dst: int, hol_offset: int) -> Form:
    """Re-index a complex-frame form into a larger frame.

    z^k goes to z^{k + hol_offset} and conj(z^k) to conj(z^{k + hol_offset});
    the index map increases, so every key stays sorted.
    """
    index = [k + hol_offset if k < n_src else k - n_src + n_dst + hol_offset
             for k in range(2 * n_src)]
    terms = {mask(index[i] for i in indices(key)): c for key, c in form.terms.items()}
    return Form(2 * n_dst, form.degree, terms)


def _block_structure(structs) -> HypercomplexStructure:
    """The block-diagonal sum of hypercomplex structures, from sparse columns."""
    def block_sum(label):
        out = []
        for H in structs:
            out += [{len(out) + r: x for r, x in col.items()} for col in H.columns[label]]
        return out
    return HypercomplexStructure.from_columns(block_sum("I"), block_sum("J"))


def _merge_fields(*fields):
    kinds = {f.kind for f in fields}
    if "float" in kinds:
        return ScalarField("float")
    ds = {f.d for f in fields if f.kind == "quadratic"}
    if len(ds) > 1:
        raise ConstructionError("inputs live in different quadratic fields")
    if ds:
        return ScalarField("quadratic", ds.pop())
    return ScalarField("rational")


def _block_sum_geometry(parts, k: int = 0, extra=None) -> tuple:
    """``(geometry, metric)`` of the block sum of the ``(geometry, metric)``
    ``parts`` and ``k`` standard blocks, with the brackets ``extra`` (keys on
    the sum's basis) after the parts' own, each shifted past the parts before."""
    brackets, shift = {}, 0
    for g, _ in parts:
        for (i, j), comps in g.algebra.brackets.items():
            brackets[(shift + i, shift + j)] = {shift + c: x for c, x in comps.items()}
        shift += g.algebra.dim
    brackets.update(extra or {})
    algebra = LieAlgebraData(shift + 4 * k, brackets,
                             field=_merge_fields(*(g.algebra.field for g, _ in parts)))
    structs = [g.structure for g, _ in parts]
    if k:
        structs.append(HypercomplexStructure.standard(k))
    geom = Geometry(algebra, _block_structure(structs))
    n_dst, offset = geom.N, 0
    omega = Form(2 * n_dst, 2, {})
    for g, m in parts:
        omega = omega + embed_complex_form(m.omega, g.N, n_dst, offset)
        offset += g.N
    omega = omega + Form(2 * n_dst, 2, {mask((offset + 2 * b, offset + 2 * b + 1)): C_ONE
                                        for b in range(k)})
    return geom, Metric(geom, omega)


@dataclass
class DirectSumResult:
    geometry: Geometry
    metric: Metric
    propagated_flags: dict


PRODUCT_CLOSED_FLAGS = ("hyperkaehler", "hkt", "q_balanced")


def direct_sum(geom_a: Geometry, metric_a: Metric,
               geom_b: Geometry, metric_b: Metric) -> DirectSumResult:
    """Block sum of two hyperhermitian algebras with Omega = Omega_1 + Omega_2."""
    geom, metric = _block_sum_geometry([(geom_a, metric_a), (geom_b, metric_b)])
    flags = {}
    rep_a = classify_metric(metric_a, flags_only=True)
    rep_b = classify_metric(metric_b, flags_only=True)
    rep = classify_metric(metric, flags_only=True)
    for name in PRODUCT_CLOSED_FLAGS:
        expected = rep_a.flag(name) and rep_b.flag(name)
        if expected and not rep.flag(name):
            raise ConsistencyError(f"direct sum failed to propagate {name}")
        flags[name] = rep.flag(name)
    return DirectSumResult(geometry=geom, metric=metric, propagated_flags=flags)


@dataclass
class GluingResult:
    geometry: Geometry
    metric: Metric
    input_reports: tuple
    output_report: object

    def iff_flags_hold(self) -> bool:
        """Output metric carries hkt, q_balanced, q_strongly_gauduchon iff both inputs do."""
        rep_a, rep_b = self.input_reports
        return all(
            self.output_report.flag(n) == (rep_a.flag(n) and rep_b.flag(n))
            for n in ("hkt", "q_balanced", "q_strongly_gauduchon")
        )


def arroyo_nicolini(geom_a: Geometry, metric_a: Metric, e1_index: int,
                    geom_b: Geometry, metric_b: Metric, e2_index: int) -> GluingResult:
    """Glue two nilpotent hyperhermitian algebras along central directions.

    Adds a quaternionic block (X, Y, Z, W) with [X, Y] = -[Z, W] = e1 + e2,
    where each e_i must be central and outside the derived subalgebra; the
    metric gains the unitary term on the new block.
    """
    for geo, idx in ((geom_a, e1_index), (geom_b, e2_index)):
        alg = geo.algebra
        if not (1 <= idx <= alg.dim):
            raise ConstructionError(f"basis index {idx} out of range")
        vec = {idx - 1: ONE}
        centre_ok = all(not alg.bracket(vec, {j: ONE}) for j in range(alg.dim))
        if not centre_ok:
            raise ConstructionError(f"e{idx} is not central")
        if alg.in_derived_subalgebra(vec):
            raise ConstructionError(f"e{idx} lies in the derived subalgebra")
        if not alg.nilpotent:
            raise ConstructionError("gluing requires nilpotent inputs")
    da, db = geom_a.algebra.dim, geom_b.algebra.dim
    X, Y, Z, W = range(da + db, da + db + 4)
    target = {e1_index - 1: ONE, da + e2_index - 1: ONE}
    geom, metric = _block_sum_geometry(
        [(geom_a, metric_a), (geom_b, metric_b)], 1,
        {(X, Y): target, (Z, W): {k: -c for k, c in target.items()}})
    rep_a = classify_metric(metric_a, flags_only=True)
    rep_b = classify_metric(metric_b, flags_only=True)
    rep = classify_metric(metric, flags_only=True)
    return GluingResult(geometry=geom, metric=metric,
                        input_reports=(rep_a, rep_b), output_report=rep)


# -- quaternionic representations ----------------------------------------------


# right multiplication by i, j, k on H = R^4 with basis (1, i, j, k), as
# sparse columns; the left multiplications are the standard I, J and K
_RIGHT_MULT = (
    [{1: ONE}, {0: -ONE}, {3: -ONE}, {2: ONE}],    # q -> q i: 1->i, i->-1, j->-k, k->j
    [{2: ONE}, {3: ONE}, {0: -ONE}, {1: -ONE}],    # q -> q j: 1->j, i->k, j->-1, k->-i
    [{3: ONE}, {2: -ONE}, {1: ONE}, {0: -ONE}],    # q -> q k: 1->k, i->-j, j->i, k->-1
)


def _commutator(a: list, b: list) -> list:
    """Sparse columns of ab - ba, for a and b given by theirs."""
    out = []
    for x, y in zip(a, b):
        col = _apply(a, y)
        add_scaled(col, -ONE, _apply(b, x))
        out.append(col)
    return out


def _check_image_indices(algebra: LieAlgebraData, images: dict) -> None:
    """Refuse an image keyed by anything but a 0-based basis index."""
    for idx in images:
        if idx not in range(algebra.dim):
            raise ConstructionError(
                f"image index {idx!r} is not a basis index 0..{algebra.dim - 1} "
                "of the algebra")


class QuaternionicRep:
    """Linear map of the algebra into quaternion-linear endomorphisms of H^k.

    Each image is kept as the sparse columns of a 4k x 4k real matrix;
    ``__init__`` takes the dense matrices and :meth:`from_columns` their
    columns (``linalg._columns``).  Every image must commute with the left
    multiplications carrying the hypercomplex structure of the fiber, the
    standard I, J and K; equivalently it lies in the algebra generated by
    right multiplications.
    """

    def __init__(self, algebra: LieAlgebraData, k: int, images: dict):
        _check_image_indices(algebra, images)
        n = 4 * k
        for idx, mat in images.items():
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ConstructionError(
                    f"representation matrix of e{idx + 1} has wrong size: expected {n} x {n}")
        self._set_images(algebra, k, {idx: _columns(mat) for idx, mat in images.items()})

    @classmethod
    def from_columns(cls, algebra: LieAlgebraData, k: int, images: dict) -> "QuaternionicRep":
        """The representation whose images have the sparse columns given."""
        _check_image_indices(algebra, images)
        rep = cls.__new__(cls)
        rep._set_images(algebra, k, images)
        return rep

    def _set_images(self, algebra: LieAlgebraData, k: int, images: dict) -> None:
        self.algebra = algebra
        self.k = k
        left = HypercomplexStructure.standard(k).columns.values()
        for idx, cols in images.items():
            if any(any(_commutator(cols, L)) for L in left):
                raise ConstructionError(
                    f"image of e{idx + 1} does not commute with the "
                    "quaternionic structure of the fiber"
                )
        self.images = images
        self._check_homomorphism()

    def _check_homomorphism(self):
        alg = self.algebra
        zero = [{}] * (4 * self.k)
        for i in range(alg.dim):
            mi = self.images.get(i, zero)
            for j in range(i + 1, alg.dim):
                comm = _commutator(mi, self.images.get(j, zero))
                for t, c in alg.bracket_basis(i, j).items():
                    mt = self.images.get(t)
                    if mt is not None:
                        for col, image in zip(comm, mt):
                            add_scaled(col, -c, image)
                if any(comm):
                    raise ConstructionError(
                        f"representation fails the bracket on (e{i + 1}, e{j + 1})"
                    )

    def is_skew(self) -> bool:
        """True when every image is skew-symmetric (compact-type values)."""
        return all(x == -cols[r].get(c, ZERO)
                   for cols in self.images.values()
                   for c, col in enumerate(cols) for r, x in col.items())

    @classmethod
    def zero(cls, algebra: LieAlgebraData, k: int) -> "QuaternionicRep":
        return cls(algebra, k, {})


@dataclass
class ExtensionResult:
    geometry: Geometry
    metric: Metric
    rep_is_skew: bool
    pullback_verified: bool
    output_report: object


def barberis_fino(geom_base: Geometry, metric_base: Metric,
                  rho: QuaternionicRep) -> ExtensionResult:
    """Semidirect extension by H^k through a quaternionic representation.

    Brackets: [(X, U), (Y, V)] = ([X, Y], rho_X V - rho_Y U); the structure
    acts on the new block by left quaternion multiplication and the metric
    extends orthogonally by the unitary block metric.  For skew-valued rho
    the canonical forms pull back from the base; this is verified exactly.
    """
    base = geom_base.algebra
    if rho.algebra is not base:
        raise ConstructionError("representation is attached to a different algebra")
    d0 = base.dim
    geom, metric = _block_sum_geometry(
        [(geom_base, metric_base)], rho.k,
        {(idx, d0 + a): {d0 + b: c for b, c in col.items()}
         for idx, cols in rho.images.items() for a, col in enumerate(cols) if col})
    n_dst, n0 = geom.N, geom_base.N
    skew = rho.is_skew()
    pullback_ok = False
    if skew:
        cf0 = metric_base.canonical_forms()
        cf1 = metric.canonical_forms()
        a_emb = embed_complex_form(cf0.alpha, n0, n_dst, 0)
        b_emb = embed_complex_form(cf0.beta, n0, n_dst, 0)
        if cf1.alpha != a_emb or cf1.beta != b_emb:
            raise ConsistencyError("canonical forms failed to pull back")
        cur0, cur1 = metric_base.curvature(), metric.curvature()
        for f0, f1 in ((cur0.ric_ch, cur1.ric_ch), (cur0.ric_bis, cur1.ric_bis)):
            fr0 = geom_base.frame
            real0 = fr0.to_real(f0)
            emb_real = Form(geom.algebra.dim, real0.degree, dict(real0.terms))
            if geom.frame.to_real(f1) != emb_real:
                raise ConsistencyError("Ricci forms failed to pull back")
        pullback_ok = True
    rep = classify_metric(metric, flags_only=True)
    return ExtensionResult(
        geometry=geom,
        metric=metric,
        rep_is_skew=skew,
        pullback_verified=pullback_ok,
        output_report=rep,
    )


def sp1_spin_rep(algebra: LieAlgebraData, su2_indices=(1, 2, 3)) -> QuaternionicRep:
    """The weight-1/2 action of a rescaled su(2) block on H.

    ``su2_indices`` are the 0-based positions of the cyclic triple with
    [x, y] = s z; images are -(s/2) R_i, -(s/2) R_j, -(s/2) R_k, the unique
    nontrivial scaling compatible with the bracket (right multiplications
    satisfy [R_i, R_j] = -2 R_k).
    """
    i1, i2, i3 = su2_indices
    s = algebra.bracket_basis(i1, i2).get(i3)
    if s is None:
        raise ConstructionError("indices do not carry an su(2) block")
    c = -(s / 2)
    images = {idx: [{r: c * x for r, x in col.items()} for col in R]
              for idx, R in zip(su2_indices, _RIGHT_MULT)}
    return QuaternionicRep.from_columns(algebra, 1, images)


# -- block builder for compact-type algebras ------------------------------------


@dataclass
class JoyceBlock:
    d: int
    mu: Scalar | None = None


@dataclass
class JoyceData:
    """Blocks (R + su(2) + module) and the extra bracket table.

    ``extra_brackets`` holds the module-module and scalar-module brackets
    over the assembled 0-based basis; the su(2) and action brackets are
    generated from the block data.
    """
    blocks: list
    extra_brackets: dict = field(default_factory=dict)
    field_descriptor: ScalarField = field(
        default_factory=lambda: ScalarField("quadratic", 2))

    def block_base(self, j: int) -> int:
        off = 0
        for b in self.blocks[:j]:
            off += 4 + 4 * b.d
        return off

    def dimension(self) -> int:
        return self.block_base(len(self.blocks))


@dataclass
class JoyceResult:
    geometry: Geometry
    metric: Metric
    einstein_factor: Scalar
    mus: list


class JoyceDataError(ConstructionError):
    pass


def joyce_build(data: JoyceData) -> JoyceResult:
    """Assemble the block algebra, structure, and Einstein metric.

    Per block: orthonormal quadruple with [e2, e3] = 2 mu e4 (cyclic) and
    module action [e2, f] = mu I f (likewise J, K), mu = 1/sqrt(2(1+d)).
    The Einstein metric is half the unitary one; with default weights the
    identity del_J alpha = Omega is verified exactly and the factor is 1.
    """
    dim = data.dimension()
    brackets: dict = {}
    mus = []
    default_weights = all(b.mu is None for b in data.blocks)
    left = HypercomplexStructure.standard(1).columns
    for j, blk in enumerate(data.blocks):
        base = data.block_base(j)
        mu = blk.mu if blk.mu is not None else exact_inv_sqrt(2 * (1 + blk.d))
        mus.append(mu)
        two_mu = mu * 2
        e2, e3, e4 = base + 1, base + 2, base + 3
        brackets[(e2, e3)] = {e4: two_mu}
        brackets[(e4, e2)] = {e3: two_mu}
        brackets[(e3, e4)] = {e2: two_mu}
        for q in range(blk.d):
            fb = base + 4 + 4 * q
            for gen, label in ((e2, "I"), (e3, "J"), (e4, "K")):
                for col, image in enumerate(left[label]):
                    brackets[(gen, fb + col)] = {fb + r: mu * x for r, x in image.items()}
    for (i, j), comps in data.extra_brackets.items():
        _validate_extra_pair(data, i, j)
        key = (i, j) if i < j else (j, i)
        vals = {k: Scalar._coerce(c) for k, c in comps.items()}
        if i > j:
            vals = {k: -c for k, c in vals.items()}
        if key in brackets:
            raise JoyceDataError(f"extra bracket {key} collides with a generated one")
        brackets[key] = vals
    algebra = LieAlgebraData(dim, brackets, field=data.field_descriptor)
    _validate_block_axioms(data, algebra)
    geom = Geometry(algebra, HypercomplexStructure.standard(dim // 4))
    metric = Metric.diagonal(geom, [rational(1, 2)] * (dim // 4))
    dja = metric.curvature().del_j_alpha
    if default_weights:
        if dja != metric.omega:
            raise ConsistencyError(
                "Einstein identity del_J alpha = Omega failed for default weights"
            )
        lam = ONE
    else:
        lam, _res = einstein_factor(metric)
        if lam is None:
            raise ConsistencyError("overridden weights yield a non-Einstein metric")
    return JoyceResult(geometry=geom, metric=metric, einstein_factor=lam, mus=mus)


def _slot_kind(data: JoyceData, idx: int):
    for j, blk in enumerate(data.blocks):
        base = data.block_base(j)
        if base <= idx < base + 4 + 4 * blk.d:
            if idx == base:
                return ("scalar", j)
            if idx < base + 4:
                return ("su2", j)
            return ("module", j)
    raise JoyceDataError(f"index {idx} outside the assembled basis")


def _validate_extra_pair(data: JoyceData, i: int, j: int):
    ki, kj = _slot_kind(data, i), _slot_kind(data, j)
    kinds = {ki[0], kj[0]}
    if "su2" in kinds:
        raise JoyceDataError(
            "extra brackets may not touch the su(2) blocks "
            f"(offending pair ({i + 1}, {j + 1}))"
        )


def _validate_block_axioms(data: JoyceData, algebra: LieAlgebraData):
    """The block axioms: scalar slots commute with su(2) blocks, distinct
    blocks commute, earlier modules are untouched by later blocks, and each
    block action is the quaternionic spin action on its own module."""
    for j, bj in enumerate(data.blocks):
        base_j = data.block_base(j)
        su2_j = range(base_j + 1, base_j + 4)
        for t, bt in enumerate(data.blocks):
            base_t = data.block_base(t)
            if algebra.bracket_basis(base_t, base_j + 1) and t != j:
                raise JoyceDataError(f"scalar slot of block {t + 1} acts on block {j + 1}")
            if algebra.bracket_basis(base_j, base_j + 1):
                raise JoyceDataError(f"scalar slot of block {j + 1} acts on its su(2)")
            if t == j:
                continue
            for a in su2_j:
                for b in range(base_t + 1, base_t + 4):
                    if algebra.bracket_basis(a, b):
                        raise JoyceDataError(
                            f"su(2) blocks {j + 1} and {t + 1} do not commute"
                        )
            if t > j:
                for a in su2_j:
                    for q in range(bt.d * 4):
                        if algebra.bracket_basis(a, base_t + 4 + q):
                            raise JoyceDataError(
                                f"block {j + 1} acts on the later module {t + 1}"
                            )


def joyce_su2_tori(m: int) -> JoyceData:
    """m copies of the 4-dimensional scalar + su(2) block (no modules)."""
    return JoyceData(blocks=[JoyceBlock(d=0) for _ in range(m)],
                     field_descriptor=ScalarField("quadratic", 2))


def joyce_su3_data() -> JoyceData:
    """The rank-two block decomposition with one quaternionic module.

    Basis: e1 scalar slot, (e2, e3, e4) the su(2) block with [e2, e3] = e4,
    (e5..e8) the module quadruple; module-module and scalar-module brackets
    close the 8-dimensional compact simple algebra over Q(sqrt(3)).
    """
    h = rational(1, 2)
    r32 = exact_inv_sqrt(3) * rational(3, 2)  # sqrt(3)/2
    extra = {
        (0, 4): {7: r32},
        (0, 5): {6: -r32},
        (0, 6): {5: r32},
        (0, 7): {4: -r32},
        (4, 5): {1: h},
        (4, 6): {2: h},
        (4, 7): {3: h, 0: r32},
        (5, 6): {3: h, 0: -r32},
        (5, 7): {2: -h},
        (6, 7): {1: h},
    }
    return JoyceData(
        blocks=[JoyceBlock(d=1)],
        extra_brackets=extra,
        field_descriptor=ScalarField("quadratic", 3),
    )
