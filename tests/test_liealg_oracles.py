"""The sparse Lie-algebra and frame layer against the dense routes it replaced.

Loading an algebra reads only its nonzero brackets: the Killing form sums
c_{ik}^l c_{jl}^k over nonzero columns, the centre solves one equation per
nonzero (i, k), the profile fields are computed on first read, and the
Nijenhuis check, ``is_abelian`` and the adapted basis apply I, J and K by
their sparse columns.  The oracles below are the dense routes:

- the Jacobi check as the loop over triples of nested brackets that the
  d^2 = 0 check replaced;
- the Killing form as tr(ad e_i ad e_j) of dense ad matrices;
- the centre as the nullspace of the dim^2 x dim stack of ad matrices;
- the eager profile, with dense row reduction of spans;
- the Nijenhuis check applying L as a dense matrix;
- the adapted basis reduced as dense rows of complex scalars;
- both frame image tables by dense dim x dim loops over the frame matrix P
  and its inverse.

They are compared over every catalog algebra and over random direct sums
and central gluings of catalog entries, some in a rotated frame.  Every
elimination here is the dense ``_row_echelon``, so none of the oracles reads
``linalg.echelon_add``, the kernel behind the sparse routes.
"""
import functools
import hashlib
import io
import itertools
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dense_matrices import dense
from hha import linalg
from hha.catalog import entry_names, get_example
from hha.classify import classify_metric
from hha.cli import main
from hha.constructions import arroyo_nicolini, direct_sum
from hha.forms import Form, mask
from hha.hypercomplex import (
    HypercomplexStructure,
    IntegrabilityError,
    SpherePoint,
    StructureError,
    is_abelian,
    validate_hypercomplex,
)
from hha.liealg import JacobiError, LieAlgebraData
from hha.scalars import C_ONE, C_ZERO, ComplexScalar, HALF, ONE, ZERO, rational

_constructions = settings(max_examples=20, deadline=None, database=None)


@functools.lru_cache(maxsize=None)
def _loaded(name):
    return get_example(name).load()


# -- oracles ---------------------------------------------------------------------


def table_bracket(table, u, v):
    """[u, v] of sparse vectors under a table {(i, j): {k: c}}, i < j."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            if i != j:
                sign, comps = (ONE, table.get((i, j), {})) if i < j else (-ONE, table.get((j, i), {}))
                for k, c in comps.items():
                    out[k] = out.get(k, ZERO) + sign * a * b * c
    return out


def jacobi_failures(table, dim):
    """{(i, j, k): Jacobiator in index order} over the triples i < j < k where it is
    nonzero: [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] by nested brackets."""
    out = {}
    for i, j, k in itertools.combinations(range(dim), 3):
        ei, ej, ek = {i: ONE}, {j: ONE}, {k: ONE}
        total = {}
        for u, v, w in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)):
            for m, c in table_bracket(table, table_bracket(table, u, v), w).items():
                total[m] = total.get(m, ZERO) + c
        residual = {m: c for m, c in sorted(total.items()) if not c.is_zero()}
        if residual:
            out[(i, j, k)] = residual
    return out


def ad_matrix(alg, vec):
    """Matrix of ad(v) acting on the algebra, columns = images of e_j."""
    n = alg.dim
    cols = [alg.bracket(vec, {j: ONE}) for j in range(n)]
    return [[cols[j].get(i, ZERO) for j in range(n)] for i in range(n)]


def dense_killing_form(alg):
    n = alg.dim
    ads = [ad_matrix(alg, {i: ONE}) for i in range(n)]
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = ZERO
            for r in range(n):
                for s in range(n):
                    a, b = ads[i][r][s], ads[j][s][r]
                    if not (a.is_zero() or b.is_zero()):
                        tr = tr + a * b
            out[i][j] = out[j][i] = tr
    return out


def dense_center_basis(alg):
    """The nullspace of the stacked ad matrices, one vector per free column."""
    n = alg.dim
    rows = []
    for j in range(n):
        adj = ad_matrix(alg, {j: ONE})
        rows.extend([ComplexScalar(x) for x in row] for row in adj)
    pivots = _row_echelon(rows)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            v = {fc: ONE}
            for r, p in enumerate(pivots):
                if not rows[r][fc].is_zero():
                    v[p] = -rows[r][fc].re
            basis.append(v)
    return basis


def _row_echelon(m):
    """In-place reduced row echelon; returns pivot column list."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        inv = prow[c].inverse()
        # the pivot row is often sparse: scale and subtract only its nonzeros
        support = [j for j in range(cols) if not prow[j].is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        for i in range(rows):
            row = m[i]
            if i != r and not row[c].is_zero():
                f = row[c]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def dense_inverse(a):
    """A^-1 from the dense reduced rows of [A | 1]."""
    n = len(a)
    m = [[ComplexScalar._coerce(x) for x in row] + [C_ONE if j == i else C_ZERO for j in range(n)]
         for i, row in enumerate(a)]
    assert _row_echelon(m) == list(range(n)), "singular matrix"
    return [row[n:] for row in m]


def dense_reduce_span(vectors, dim):
    rows = [[ComplexScalar(v.get(i, ZERO)) for i in range(dim)] for v in vectors]
    if not rows:
        return []
    pivots = _row_echelon(rows)
    return [{i: rows[r][i].re for i in range(dim) if not rows[r][i].is_zero()}
            for r in range(len(pivots))]


def dense_profile(alg, killing, centre, derived):
    """The eager profile: every field, from dense spans and dense ad matrices."""
    n = alg.dim
    basis = [{i: ONE} for i in range(n)]

    def span(us, vs):
        return dense_reduce_span([w for u in us for v in vs if (w := alg.bracket(u, v))], n)

    lcs, step, nilpotent = derived, 1, False
    while True:
        if not lcs:
            nilpotent = True
            break
        nxt = span(basis, lcs)
        if len(nxt) == len(lcs):
            break
        lcs, step = nxt, step + 1
    ds, solvable = derived, False
    while True:
        if not ds:
            solvable = True
            break
        nxt = span(ds, ds)
        if len(nxt) == len(ds):
            break
        ds = nxt
    traces = [sum((alg.bracket_basis(i, j).get(j, ZERO) for j in range(n)), ZERO)
              for i in range(n)]
    kmat = [[ComplexScalar(x) for x in row] for row in killing]
    return {
        "nilpotent": nilpotent,
        "nilpotency_step": step if nilpotent else None,
        "solvable": solvable,
        "unimodular": all(t.is_zero() for t in traces),
        "center_dim": len(centre),
        "derived_dim": len(derived),
        "semisimple": not linalg.det(kmat).is_zero(),
    }


def dense_derived_basis(alg):
    basis = [{i: ONE} for i in range(alg.dim)]
    return dense_reduce_span(
        [w for u in basis for v in basis if (w := alg.bracket(u, v))], alg.dim)


def dense_in_derived(derived, vec, dim):
    """vec lies in the span of ``derived`` iff the dense system is consistent."""
    target = [ComplexScalar(vec.get(i, ZERO)) for i in range(dim)]
    if not derived:
        return all(x.is_zero() for x in target)
    # column k of the system is derived[k]; it is consistent iff b is no pivot
    system = [[ComplexScalar(b.get(i, ZERO)) for b in derived] + [target[i]]
              for i in range(dim)]
    return len(derived) not in _row_echelon(system)


def apply_matrix(mat, vec):
    out = {}
    for j, c in vec.items():
        for i in range(len(mat)):
            m = mat[i][j]
            if m.is_zero():
                continue
            acc = out.get(i, ZERO) + m * c
            if acc.is_zero():
                out.pop(i, None)
            else:
                out[i] = acc
    return out


def dense_nijenhuis_failure(alg, H):
    """(label, pair, value) of the first pair where N_L does not vanish, or None."""
    for label, cols in H.columns.items():
        mat = dense(cols)
        for i in range(alg.dim):
            Lei = {r: mat[r][i] for r in range(alg.dim) if not mat[r][i].is_zero()}
            for j in range(i + 1, alg.dim):
                ei, ej = {i: ONE}, {j: ONE}
                Lej = {r: mat[r][j] for r in range(alg.dim) if not mat[r][j].is_zero()}
                out = {}
                for vec, sign in ((alg.bracket(Lei, Lej), 1),
                                  (apply_matrix(mat, alg.bracket(Lei, ej)), -1),
                                  (apply_matrix(mat, alg.bracket(ei, Lej)), -1),
                                  (alg.bracket(ei, ej), -1)):
                    for k, c in vec.items():
                        v = out.get(k, ZERO) + (c if sign > 0 else -c)
                        if v.is_zero():
                            out.pop(k, None)
                        else:
                            out[k] = v
                if out:
                    return label, (i + 1, j + 1), out
    return None


def dense_is_abelian(alg, H):
    n = alg.dim
    for mat in (dense(H.columns["I"]), dense(H.columns["J"])):
        for i in range(n):
            for j in range(i + 1, n):
                Lei = {r: mat[r][i] for r in range(n) if not mat[r][i].is_zero()}
                Lej = {r: mat[r][j] for r in range(n) if not mat[r][j].is_zero()}
                if alg.bracket(Lei, Lej) != alg.bracket_basis(i, j):
                    return False
    return True


def dense_adapted_basis(H):
    dim = H.dim
    rows, chosen = [], []

    def try_add(vec_dense):
        row = [ComplexScalar(x) for x in vec_dense]
        for piv, r in rows:
            if not row[piv].is_zero():
                f = row[piv]
                row = [row[c] - f * r[c] for c in range(dim)]
        for c in range(dim):
            if not row[c].is_zero():
                inv = row[c].inverse()
                rows.append((c, [x * inv for x in row]))
                return True
        return False

    for i in range(dim):
        cand = [ZERO] * dim
        cand[i] = ONE
        if not try_add(cand):
            continue
        block = [cand]
        for mat in map(dense, H.columns.values()):
            img = [mat[r][i] for r in range(dim)]
            block.append(img)
            if not try_add(img):
                raise StructureError("quaternionic block failed to extend the span")
        chosen.extend(block)
        if len(chosen) == dim:
            break
    return chosen


def dense_frame_images(H):
    """(e^i in the complex frame, z^r and conj(z^r) in the real coframe), by
    dense dim x dim loops over P, whose columns are the adapted basis, and P^-1."""
    dim, N = H.dim, H.dim // 2
    basis = dense_adapted_basis(H)
    P = [[basis[a][i] for a in range(dim)] for i in range(dim)]
    P_inv = dense_inverse(P)
    real_images = []
    for i in range(dim):
        terms = {}
        for a in range(dim):
            coeff = ComplexScalar(P[i][a])
            if coeff.is_zero():
                continue
            # u^{2r} = (z^{r+1} + conj)/2 and u^{2r+1} = -i (z^{r+1} - conj)/2
            r = a // 2
            base = ComplexScalar(HALF) if a % 2 == 0 else ComplexScalar(ZERO, -HALF)
            for key, c in ((mask((r,)), base), (mask((N + r,)), base.conjugate())):
                terms[key] = terms.get(key, C_ZERO) + c * coeff
        real_images.append(Form(dim, 1, {k: v for k, v in terms.items() if not v.is_zero()}))
    hol = []
    for r in range(N):
        coeffs = [P_inv[2 * r][i] + P_inv[2 * r + 1][i].times_i() for i in range(dim)]
        hol.append(Form(dim, 1, {mask((i,)): c for i, c in enumerate(coeffs) if not c.is_zero()}))
    conj = [Form(dim, 1, {k: c.conjugate() for k, c in z.terms.items()}) for z in hol]
    return real_images, hol + conj


# -- comparisons -------------------------------------------------------------------


def assert_algebra_matches_oracles(alg):
    killing, centre = dense_killing_form(alg), dense_center_basis(alg)
    derived = dense_derived_basis(alg)
    assert alg.killing_form() == killing
    assert alg.center_basis() == centre
    assert alg.derived_basis() == derived
    for k in range(alg.dim):
        e = {k: ONE}
        assert alg.in_derived_subalgebra(e) == dense_in_derived(derived, e, alg.dim)
    prof, expected = alg.validate(), dense_profile(alg, killing, centre, derived)
    assert {name: getattr(prof, name) for name in expected} == expected


def assert_matches_oracles(geom):
    alg, H = geom.algebra, geom.structure
    assert_algebra_matches_oracles(alg)
    assert dense_nijenhuis_failure(alg, H) is None
    assert validate_hypercomplex(alg, H)["nijenhuis"] == dict.fromkeys("IJK", "integrable")
    assert is_abelian(alg, H) == dense_is_abelian(alg, H)
    fr, dim = geom.frame, alg.dim
    assert [[u.get(i, ZERO) for i in range(dim)] for u in fr.basis] == dense_adapted_basis(H)
    assert (fr._real_images, fr._complex_images) == dense_frame_images(H)
    for k in range(dim):
        # e^k for the real coframe, then z^k (conj(z^{k-N}) from k = N) for the frame
        gen = Form.monomial(dim, (k,))
        assert fr.to_real(fr.to_complex(gen)) == gen
        assert fr.to_complex(fr.to_real(gen)) == gen


@pytest.mark.parametrize("name", entry_names())
def test_sparse_routes_match_dense_oracles_on_catalog(name):
    assert_matches_oracles(_loaded(name)[0])


@pytest.mark.parametrize("brackets", [
    # [e1, e2] = e1 and [e2, e3] = e3: the two terms of tr ad(e2) cancel
    {(0, 1): {0: ONE}, (1, 2): {2: ONE}},
    # su(2): semisimple, with a definite Killing form
    {(0, 1): {2: rational(2)}, (2, 0): {1: rational(2)}, (1, 2): {0: rational(2)}},
    # Heisenberg: nilpotent, with a one-dimensional centre
    {(0, 1): {2: ONE}},
])
def test_sparse_profile_matches_dense_oracle_on_small_algebras(brackets):
    assert_algebra_matches_oracles(LieAlgebraData(3, brackets))


@st.composite
def bracket_tables(draw):
    """(dim, table) over Q, dim 3..8: random sparse brackets, most failing Jacobi,
    or two-step nilpotent ones (brackets of the first generators land among the
    last, which bracket with nothing), which satisfy it."""
    dim = draw(st.integers(min_value=3, max_value=8))
    if draw(st.booleans()):
        split = draw(st.integers(min_value=2, max_value=dim - 1))
        pairs, targets = list(itertools.combinations(range(split), 2)), range(split, dim)
    else:
        pairs, targets = list(itertools.combinations(range(dim), 2)), range(dim)
    coeff = st.builds(rational, st.integers(-3, 3), st.integers(1, 2))
    table = {}
    for ij, k, c in draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(targets),
                                            coeff), max_size=6)):
        if not c.is_zero():
            table.setdefault(ij, {})[k] = c
    return dim, table


@settings(max_examples=200, deadline=None, database=None)
@given(case=bracket_tables())
def test_jacobi_check_matches_the_triple_loop_oracle(case):
    dim, table = case
    failures = jacobi_failures(table, dim)
    if not failures:
        LieAlgebraData(dim, table)
        return
    with pytest.raises(JacobiError) as exc:
        LieAlgebraData(dim, table)
    # the smallest failing triple, with its Jacobiator as the residual
    triple = min(failures)
    assert exc.value.triple == tuple(t + 1 for t in triple)
    assert str(exc.value) == str(JacobiError(*triple, failures[triple]))


def test_jacobi_error_names_the_smallest_triple_in_index_order():
    # [e2, e6] = e3, [e1, e3] = e5, [e4, e5] = e5 fails Jacobi on (e1, e2, e6)
    # and (e1, e3, e4) only; as monomial keys the second is the smaller
    table = {(1, 5): {2: ONE}, (0, 2): {4: ONE}, (3, 4): {4: ONE}}
    failures = jacobi_failures(table, 6)
    assert sorted(failures) == [(0, 1, 5), (0, 2, 3)]
    assert mask((0, 2, 3)) < mask((0, 1, 5))
    with pytest.raises(JacobiError) as exc:
        LieAlgebraData(6, table)
    assert exc.value.triple == (1, 2, 6)
    assert str(exc.value) == str(JacobiError(0, 1, 5, failures[(0, 1, 5)]))


_SUMMANDS = ("abelian4", "abelian8", "joyce_su2", "qbal12", "qgau8", "qsg12",
             "solv_aff_c", "solv_rank1", "solv_third")
_NILPOTENT = ("abelian4", "abelian8", "qbal12", "qgau8", "qsg12")
_PAIRS = (
    None,
    (SpherePoint(0, 1, 0), SpherePoint(1, 0, 0)),
    (SpherePoint(rational(3, 5), rational(4, 5), 0), SpherePoint(0, 0, 1)),
)


def _glue_indices(alg):
    """1-based central basis vectors outside the derived algebra, by the oracles."""
    centre, derived = dense_center_basis(alg), dense_derived_basis(alg)
    return [k + 1 for k in range(alg.dim)
            if {k: ONE} in centre and not dense_in_derived(derived, {k: ONE}, alg.dim)]


@_constructions
@given(data=st.data())
def test_sparse_routes_match_dense_oracles_on_constructions(data):
    kind = data.draw(st.sampled_from(("direct_sum", "arroyo_nicolini")))
    pool = _SUMMANDS if kind == "direct_sum" else _NILPOTENT
    (ga, ma), (gb, mb) = (_loaded(data.draw(st.sampled_from(pool))) for _ in range(2))
    if kind == "direct_sum":
        geom = direct_sum(ga, ma, gb, mb).geometry
    else:
        ia = data.draw(st.sampled_from(_glue_indices(ga.algebra)))
        ib = data.draw(st.sampled_from(_glue_indices(gb.algebra)))
        geom = arroyo_nicolini(ga, ma, ia, gb, mb, ib).geometry
    pair = data.draw(st.sampled_from(_PAIRS))
    if pair is not None:
        geom = geom.rotated(*pair)
    assert_matches_oracles(geom)


@pytest.mark.parametrize("swap", [False, True])
def test_nonintegrable_structure_fails_on_the_oracle_pair(swap):
    # Heisenberg + R: with the standard pair J fails on (e1, e2); with I and J
    # swapped it is I that fails
    alg = LieAlgebraData(4, {(0, 1): {2: ONE}})
    H = HypercomplexStructure.standard(1)
    if swap:
        H = HypercomplexStructure.from_columns(H.columns["J"], H.columns["I"])
    label, pair, value = dense_nijenhuis_failure(alg, H)
    with pytest.raises(IntegrabilityError) as exc:
        validate_hypercomplex(alg, H)
    assert exc.value.pair == pair
    assert str(exc.value) == str(IntegrabilityError(label, pair[0] - 1, pair[1] - 1, value))


# -- laziness ----------------------------------------------------------------------


def test_classification_never_reads_killing_form_or_centre(monkeypatch):
    def refuse(self):
        raise AssertionError("classification read a lazy profile field")

    # loading plus classify_metric, not check_entry: the joyce_* entries'
    # "semisimple" expectation is meant to read the Killing form
    monkeypatch.setattr(LieAlgebraData, "killing_form", refuse)
    monkeypatch.setattr(LieAlgebraData, "center_basis", refuse)
    for name in entry_names():
        _geom, metric = get_example(name).load()
        classify_metric(metric)


def _cli(args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    assert code == 0
    return out.getvalue()


CHECK_LINES = {
    "abelian4": "nilpotent: True (step 1), solvable: True, unimodular: True",
    "qsg12": "nilpotent: True (step 2), solvable: True, unimodular: True",
    "qgau8": "nilpotent: True (step 2), solvable: True, unimodular: True",
    "solv_rank1": "nilpotent: False (step None), solvable: True, unimodular: False",
    "joyce_su3": "nilpotent: False (step None), solvable: False, unimodular: True",
}

# sha256 of the 21 `hha check` outputs, concatenated in entry order, as the
# eager profile printed them
CHECK_DIGEST = "bb94a39b74708c0dbda7d4f9da242b37e15c1499642dc2a4dc187e641a9edc17"


def test_check_output_pinned_on_every_catalog_export(tmp_path):
    outputs = []
    for name in entry_names():
        path = tmp_path / f"{name}.json"
        path.write_text(_cli(["catalog", "export", name]))
        outputs.append(_cli(["check", str(path)]))
        if name in CHECK_LINES:
            assert outputs[-1].splitlines()[2] == "  " + CHECK_LINES[name]
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == CHECK_DIGEST
