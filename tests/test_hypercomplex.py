import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import nil12_qbal, nil12_qsg
from dense_matrices import dense, mat_add, mat_mul, mat_scale
from hha.documents import geometry_to_input, load_document, parse_input
from hha.forms import Form
from hha.hypercomplex import (
    ComplexFrame,
    Geometry,
    HypercomplexStructure,
    IntegrabilityError,
    SpherePoint,
    StructureError,
    is_abelian,
    validate_hypercomplex,
)
from hha import hypercomplex, linalg
from hha.catalog import entry_names, get_example
from hha.constructions import _block_structure
from hha.liealg import LieAlgebraData
from hha.linalg import _apply
from hha.scalars import (
    C_I,
    C_ONE,
    ComplexScalar,
    HALF,
    ONE,
    ZERO,
    complex_ints,
    rational,
    root,
)


def geom(alg):
    return Geometry.standard(alg)


def rand_complex_form(rng, geo, degree, nterms=3):
    dim = geo.algebra.dim
    keys = list(itertools.combinations(range(dim), degree))
    f = Form.zero(dim, degree)
    for _ in range(nterms):
        c = ComplexScalar(rational(rng.randint(-3, 3), rng.randint(1, 2)),
                          rational(rng.randint(-3, 3), rng.randint(1, 2)))
        f = f + Form.monomial(dim, rng.choice(keys), c)
    return f


# -- structure basics ---------------------------------------------------------


def test_standard_structure_relations():
    H = HypercomplexStructure.standard(2)
    K = dense(H.columns["K"])
    # K anticommutes with I and J
    for M in (dense(H.columns["I"]), dense(H.columns["J"])):
        anti = mat_add(mat_mul(K, M), mat_mul(M, K))
        assert all(x.is_zero() for row in anti for x in row)
    assert not {"I", "J", "K"} & set(dir(H))   # the columns are the only form


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_columns_pass_the_checked_constructor(n):
    # standard() writes I, J and K = IJ without checking the relations;
    # from_columns checks them and computes K itself
    H = HypercomplexStructure.standard(n)
    checked = HypercomplexStructure.from_columns(H.columns["I"], H.columns["J"])
    assert checked.dim == H.dim == 4 * n
    assert checked.columns == H.columns
    assert [list(col) for col in checked.columns["K"]] == [list(col) for col in H.columns["K"]]


@pytest.mark.parametrize("n", range(1, 7))
def test_the_standard_adapted_basis_is_the_eliminated_one(n):
    """standard() writes the identity basis and coframe; the elimination on
    the same columns, which from_columns keeps, finds them."""
    H = HypercomplexStructure.standard(n)
    assert "adapted_basis" in vars(H)
    checked = HypercomplexStructure.from_columns(H.columns["I"], H.columns["J"])
    assert "adapted_basis" not in vars(checked)
    assert H.adapted_basis == checked.adapted_basis
    assert H.adapted_basis == ([{i: ONE} for i in range(4 * n)],) * 2


@pytest.mark.parametrize("name", entry_names())
def test_a_standard_frame_builds_the_eliminated_frames_tables(name):
    """The d table's lane of a catalog geometry, each on the standard
    structure, is the one the frame of the eliminated basis builds, key by
    key and number by number, and loading its export eliminates nothing."""
    geometry, metric = get_example(name).load()
    data = geometry_to_input(name, geometry, metric)
    assert data["hypercomplex"] == "standard"
    H = geometry.structure
    checked = ComplexFrame(geometry.algebra,
                           HypercomplexStructure.from_columns(H.columns["I"], H.columns["J"]))
    assert geometry.frame._d_table.lane == checked._d_table.lane
    doc = parse_input(json.dumps(data))
    calls = []
    original = linalg.echelon_add

    def counting(*args):
        calls.append(args)
        return original(*args)

    with mock.patch.object(linalg, "echelon_add", counting), \
            mock.patch.object(hypercomplex, "echelon_add", counting):
        load_document(doc)
    assert calls == []


def test_sphere_combo_squares_to_minus_identity():
    H = HypercomplexStructure.standard(1)
    p = SpherePoint(rational(3, 5), rational(4, 5), 0)
    L = dense(H.combo(p))
    assert mat_mul(L, L) == [[-ONE if i == j else ZERO for j in range(4)] for i in range(4)]


@st.composite
def orthogonal_points(draw):
    """Two orthogonal exact points of the unit sphere: the first two rows of
    the rotation of an integer quaternion (w, x, y, z)."""
    w, x, y, z = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(any))
    n = w * w + x * x + y * y + z * z
    rows = ((w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)))
    return tuple(SpherePoint(*(rational(t, n) for t in row)) for row in rows)


@settings(max_examples=40, deadline=None, database=None)
@given(orthogonal_points(), st.integers(1, 3), st.booleans())
def test_combo_and_rotated_columns_match_the_dense_products(pair, n, rotated_first):
    H = HypercomplexStructure.standard(n)
    if rotated_first:   # a structure whose columns hold several entries
        H = H.rotate_pair(SpherePoint(rational(3, 5), rational(4, 5), 0),
                          SpherePoint(0, 0, 1))
    p, q = pair
    cols = H.combo(p)
    # (aI + bJ + cK)^2 = -1 through linalg's _apply, and each column is sorted
    assert [_apply(cols, col) for col in cols] == [{j: -ONE} for j in range(4 * n)]
    assert all(list(col) == sorted(col) for col in cols)
    I, J = dense(H.columns["I"]), dense(H.columns["J"])
    K = mat_mul(I, J)
    assert dense(H.columns["K"]) == K

    def combo(t):
        return mat_add(mat_scale(t.a, I), mat_scale(t.b, J), mat_scale(t.c, K))

    assert dense(cols) == combo(p)
    rotated = H.rotate_pair(p, q)
    assert dense(rotated.columns["I"]) == combo(p)
    assert dense(rotated.columns["J"]) == combo(q)
    assert dense(rotated.columns["K"]) == mat_mul(combo(p), combo(q))


def test_structure_relations_name_the_failing_relation():
    # __init__ on dense matrices and from_columns on their columns alike
    H = HypercomplexStructure.standard(1)
    cols_i, cols_j = H.columns["I"], H.columns["J"]
    ident = [{j: ONE} for j in range(4)]
    twice_j = [{r: x * rational(2) for r, x in col.items()} for col in cols_j]
    for I, J, message in ((ident, cols_j, "I^2 != -Id"),
                          (cols_i, twice_j, "J^2 != -Id"),
                          (cols_i, cols_i, "I and J do not anticommute")):
        for build in (lambda: HypercomplexStructure(dense(I), dense(J)),
                      lambda: HypercomplexStructure.from_columns(I, J)):
            with pytest.raises(StructureError) as exc:
                build()
            assert str(exc.value) == message


def test_sphere_point_validation():
    with pytest.raises(StructureError):
        SpherePoint(1, 1, 0)
    SpherePoint(0, 0, 1)


def test_rotate_pair_requires_orthogonality():
    H = HypercomplexStructure.standard(1)
    with pytest.raises(StructureError):
        H.rotate_pair(SpherePoint(1, 0, 0), SpherePoint(1, 0, 0))
    rotated = H.rotate_pair(SpherePoint(0, 0, 1), SpherePoint(1, 0, 0))
    assert rotated.columns["I"] == H.columns["K"] and rotated.columns["J"] == H.columns["I"]


def test_j_acts_on_frame_as_block_convention():
    g = geom(LieAlgebraData.abelian(4))
    z1 = g.zeta(1)
    jz1 = g.frame.j_action(z1)
    assert jz1 == -g.zeta_bar(2)
    z2 = g.zeta(2)
    assert g.frame.j_action(z2) == g.zeta_bar(1)


def test_i_action_eigenvalues():
    g = geom(LieAlgebraData.abelian(4))
    assert g.frame.i_action(g.zeta(1)) == g.zeta(1) * C_I
    assert g.frame.i_action(g.zeta_bar(1)) == g.zeta_bar(1) * (-C_I)


def test_j_squared_on_two_forms_is_identity():
    g = geom(LieAlgebraData.abelian(8))
    rng = random.Random(7)
    for _ in range(10):
        f = rand_complex_form(rng, g, 2)
        assert g.frame.j_action(g.frame.j_action(f)) == f


def test_validate_hypercomplex_abelian_and_nilpotent():
    validate_hypercomplex(LieAlgebraData.abelian(8), HypercomplexStructure.standard(2))
    validate_hypercomplex(nil12_qbal(), HypercomplexStructure.standard(3))
    validate_hypercomplex(nil12_qsg(), HypercomplexStructure.standard(3))


def test_validate_hypercomplex_rejects_nonintegrable():
    # Heisenberg + R: J fails the Nijenhuis condition on (e1, e2)
    alg = LieAlgebraData(4, {(0, 1): {2: ONE}})
    with pytest.raises(IntegrabilityError) as exc:
        validate_hypercomplex(alg, HypercomplexStructure.standard(1))
    assert exc.value.pair == (1, 2)
    assert "J" in str(exc.value)


def test_split_differentials_need_an_integrable_i():
    # the same Heisenberg + R algebra with I and J swapped: I is not integrable,
    # so d z^k has a (0,2) part and del, delbar are not derivations
    alg = LieAlgebraData(4, {(0, 1): {2: ONE}})
    H = HypercomplexStructure.standard(1)
    fr = ComplexFrame(alg, HypercomplexStructure.from_columns(H.columns["J"], H.columns["I"]))
    assert fr.d(Form.monomial(4, (0,))).coefficient((2, 3)) == ComplexScalar(ZERO, rational(-1, 4))
    with pytest.raises(StructureError, match="not integrable"):
        fr.del_(Form.monomial(4, (0,)))


def test_is_abelian():
    assert is_abelian(LieAlgebraData.abelian(8), HypercomplexStructure.standard(2))
    assert not is_abelian(nil12_qbal(), HypercomplexStructure.standard(3))
    assert not is_abelian(nil12_qsg(), HypercomplexStructure.standard(3))


def test_is_abelian_invariant_under_rotation():
    alg = nil12_qsg()
    H = HypercomplexStructure.standard(3)
    rot = H.rotate_pair(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    assert is_abelian(alg, H) == is_abelian(alg, rot)


# -- the adapted basis and its coframe ----------------------------------------------


_THIRDS = (SpherePoint(rational(1, 3), rational(2, 3), rational(2, 3)),
           SpherePoint(rational(2, 3), rational(1, 3), rational(-2, 3)))
_SQRT2 = (SpherePoint(HALF * root(2), HALF * root(2), 0), SpherePoint(0, 0, 1))


def _adapted_cases():
    std1, std2 = HypercomplexStructure.standard(1), HypercomplexStructure.standard(2)
    thirds, sqrt2 = std1.rotate_pair(*_THIRDS), std1.rotate_pair(*_SQRT2)
    yield "standard", std2
    yield "sqrt2", std2.rotate_pair(*_SQRT2)
    yield "thirds", std2.rotate_pair(*_THIRDS)
    yield "thirds+standard", _block_structure([thirds, std1])
    yield "standard+sqrt2+thirds", _block_structure([std1, sqrt2, thirds])
    yield "swapped+thirds", _block_structure([
        HypercomplexStructure.from_columns(std1.columns["J"], std1.columns["I"]), thirds])


@pytest.mark.parametrize("label, H", list(_adapted_cases()))
def test_the_coframe_read_off_the_adapted_basis_inverts_it(label, H):
    """u^a(u_b) is 1 when a = b and 0 otherwise, and the coframe is the
    inverse of the matrix P with columns u_a, row by row."""
    basis, coframe = H.adapted_basis
    dim = H.dim
    assert len(basis) == len(coframe) == dim
    for a, row in enumerate(coframe):
        for b, u in enumerate(basis):
            value = sum((row.get(p, ZERO) * x for p, x in u.items()), ZERO)
            assert value == (ONE if a == b else ZERO), (a, b)
    P = [[u.get(i, ZERO) for u in basis] for i in range(dim)]
    inverse = [{p: x.re for p, x in enumerate(row) if not x.is_zero()}
               for row in linalg.inverse(P)]
    assert coframe == inverse
    assert all(list(row) == sorted(row) for row in coframe)


@pytest.mark.parametrize("label, H", list(_adapted_cases()))
def test_the_image_numerators_are_those_of_the_image_forms(label, H):
    """The d table reads both image tables as numerators off the coframe and
    P: key for key and in order, they are ``complex_ints`` of the ``Form``
    images, radicand and denominator included."""
    fr = ComplexFrame(LieAlgebraData.abelian(H.dim), H)
    for lane, images in zip(fr._image_ints(), (fr._complex_images[:fr.N], fr._real_images)):
        d, den, ints = complex_ints([c for form in images for c in form.terms.values()])
        ints = iter(ints)
        expect = [[(key, next(ints)) for key in form.terms] for form in images]
        assert (lane[0], lane[1], [list(row.items()) for row in lane[2]]) == (d, den, expect)


@pytest.mark.parametrize("name", entry_names())
def test_the_written_standard_tables_are_those_the_general_read_finds(name):
    """The standard structure's frame writes its image tables; the same
    columns through ``from_columns`` take the elimination and the general
    read.  Both give the same image tables and the same d, del, delbar and
    del_J lanes, key for key and in order."""
    algebra = get_example(name).load()[0].algebra
    std = HypercomplexStructure.standard(algebra.dim // 4)
    read = HypercomplexStructure.from_columns(std.columns["I"], std.columns["J"])
    assert std.is_standard and not read.is_standard
    written, general = ComplexFrame(algebra, std), ComplexFrame(algebra, read)

    def in_order(lane):
        d, den, rows = lane
        return d, den, [list(row.items()) for row in rows]

    for mine, theirs in zip(written._image_ints(), general._image_ints()):
        assert in_order(mine) == in_order(theirs)
    assert written._d_table.lane == general._d_table.lane
    for table in ("del", "delbar", "del_j"):
        assert written._table(table).lane == general._table(table).lane


# -- frames and conversions ---------------------------------------------------


def test_standard_frame_is_identity_change():
    g = geom(LieAlgebraData.abelian(4))
    z1_real = g.frame.to_real(g.zeta(1))
    assert z1_real == Form.monomial(4, (0,)) + Form.monomial(4, (1,), C_I)


def test_conversion_round_trip():
    g = geom(nil12_qsg())
    rng = random.Random(10)
    for deg in (1, 2):
        for _ in range(5):
            f = rand_complex_form(rng, g, deg)
            assert g.frame.to_complex(g.frame.to_real(f)) == f


def test_conjugation_is_involution_and_q_real_detection():
    g = geom(nil12_qbal())
    rng = random.Random(12)
    for _ in range(5):
        f = rand_complex_form(rng, g, 2)
        assert g.frame.conjugate(g.frame.conjugate(f)) == f
    omega = g.monomial((1, 2)) + g.monomial((3, 4)) + g.monomial((5, 6))
    assert g.frame.is_q_real(omega)
    # sign flips on diagonal blocks stay q-real (only positivity is lost)
    assert g.frame.is_q_real(g.monomial((1, 2)) - g.monomial((3, 4)))
    # an imaginary diagonal coefficient or an unpaired off-diagonal term is not
    assert not g.frame.is_q_real(g.monomial((1, 2), coeff=C_I))
    assert not g.frame.is_q_real(g.monomial((1, 3)))


# -- differentials -------------------------------------------------------------


def test_structure_equation_dzeta5_qbal12():
    g = geom(nil12_qbal())
    dz5 = g.frame.d(g.zeta(5))
    expect = (g.zeta(1).wedge(g.zeta(3)) + g.zeta_bar(1).wedge(g.zeta(3))) * HALF
    assert dz5 == expect


def test_structure_equations_qsg12():
    g = geom(nil12_qsg())
    dz5 = g.frame.d(g.zeta(5))
    expect5 = (
        g.zeta(1).wedge(g.zeta(2))
        + g.zeta_bar(1).wedge(g.zeta(2))
        - g.zeta(4).wedge(g.zeta_bar(4))
    ) * HALF
    assert dz5 == expect5
    dz6 = g.frame.d(g.zeta(6))
    expect6 = (
        g.zeta(3).wedge(g.zeta(4))
        + g.zeta_bar(3).wedge(g.zeta(4))
        + g.zeta(2).wedge(g.zeta_bar(2))
    ) * HALF
    assert dz6 == expect6


def test_split_differentials_qsg12():
    g = geom(nil12_qsg())
    fr = g.frame
    assert fr.del_(g.zeta(5)) == g.zeta(1).wedge(g.zeta(2)) * HALF
    assert fr.del_j(g.zeta(5)) == g.zeta(3).wedge(g.zeta(4)) * (-HALF)
    assert fr.del_(g.zeta(6)) == g.zeta(3).wedge(g.zeta(4)) * HALF
    assert fr.del_j(g.zeta(6)) == g.zeta(1).wedge(g.zeta(2)) * HALF
    assert fr.del_(Form.constant(12, C_ONE)).is_zero()


def test_split_recomposes_total_differential():
    g = geom(nil12_qsg())
    rng = random.Random(20)
    for _ in range(5):
        f = rand_complex_form(rng, g, 2)
        assert g.frame.del_(f) + g.frame.delbar(f) == g.frame.d(f)


def test_differential_identities_on_random_forms():
    g = geom(nil12_qsg())
    fr = g.frame
    rng = random.Random(21)
    for deg in (1, 2, 3):
        for _ in range(4):
            f = rand_complex_form(rng, g, deg)
            assert fr.del_(fr.del_(f)).is_zero()
            assert fr.delbar(fr.delbar(f)).is_zero()
            assert fr.del_j(fr.del_j(f)).is_zero()
            anti = fr.del_(fr.del_j(f)) + fr.del_j(fr.del_(f))
            assert anti.is_zero()


def test_delbar_is_conjugate_of_del():
    g = geom(nil12_qsg())
    fr = g.frame
    rng = random.Random(22)
    for _ in range(5):
        f = rand_complex_form(rng, g, 2)
        assert fr.delbar(f) == fr.conjugate(fr.del_(fr.conjugate(f)))


def test_rotated_pair_reproduces_total_differential():
    alg = nil12_qsg()
    g = Geometry.standard(alg)
    rot = g.rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    rng = random.Random(23)
    for _ in range(3):
        f = rand_complex_form(rng, rot, 2)
        real = rot.frame.to_real(f)
        lhs = rot.frame.to_real(rot.frame.d(f))
        assert lhs == alg.ce_differential(real)


def test_rotated_ji_frame_matches_printed_coframe():
    # the (J, I) coframe is w^{2k-1} = e^{4k-3} + i e^{4k-1}, w^{2k} = e^{4k-2} - i e^{4k}
    alg = nil12_qsg()
    g = Geometry.standard(alg).rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    for k in (1, 2, 3):
        w_odd = g.frame.to_real(g.zeta(2 * k - 1))
        expect_odd = Form.monomial(12, (4 * k - 4,)) + Form.monomial(12, (4 * k - 2,), C_I)
        assert w_odd == expect_odd
        w_even = g.frame.to_real(g.zeta(2 * k))
        expect_even = Form.monomial(12, (4 * k - 3,)) - Form.monomial(12, (4 * k - 1,), C_I)
        assert w_even == expect_even


def test_rotated_ji_structure_equations():
    # with respect to (J, I): del w6 = (i w1^w2 + w3^w4)/2, twisted del of w5 = (i w1^w2 - w3^w4)/2
    alg = nil12_qsg()
    g = Geometry.standard(alg).rotated(SpherePoint(0, 1, 0), SpherePoint(1, 0, 0))
    fr = g.frame
    dw6 = fr.del_(g.zeta(6))
    expect6 = (g.zeta(1).wedge(g.zeta(2)) * C_I + g.zeta(3).wedge(g.zeta(4))) * HALF
    assert dw6 == expect6
    tw5 = fr.del_j(g.zeta(5))
    expect5 = (g.zeta(1).wedge(g.zeta(2)) * C_I - g.zeta(3).wedge(g.zeta(4))) * HALF
    assert tw5 == expect5
    for i in (1, 2, 3, 4, 5):
        assert fr.del_(g.zeta(i)).is_zero()
    for i in (1, 2, 3, 4, 6):
        assert fr.del_j(g.zeta(i)).is_zero()
