"""Building a geometry against the routes the coframe, conjugation, integer
and corank-two shortcuts replaced.

``validate_hypercomplex`` decides each Nijenhuis tensor N_L on the coframe,
from the structure constants, and scans the basis pairs only for a label
that fails there.  ``ComplexFrame._d_table`` and ``_table`` build the five
generator tables of d, del, delbar, del_J and delbar_J on int numerators,
read off the algebra's structure constants and the frame's image ints, and
``ComplexFrame.corank_two_images`` reads del and del_J of every (N-2, 0)
monomial off those tables.  The oracles are the routes they replaced:

- the scan of N_L over all basis pairs (e_i, e_j), i < j, for I, J and K in
  turn, stopping at the first nonzero value (per label for the coframe
  verdict);
- d of every one of the 2N frame generators as ``to_complex`` of the CE
  differential of its real image, and the split tables built from it with
  ``Form.scale(+-1)``;
- the object route on ``Form``s: ``to_complex`` of the CE differential for
  the N holomorphic generators, ``conjugate`` for the barred ones,
  ``bidegree_project`` for the split and ``j_action`` for the twist;
- del and del_J applied to each (N-2, 0) monomial by the Leibniz kernel;
- for ``is_abelian``, which reads the frame's d table, the bracket of every
  basis pair under I and J.

The new routes must accept and reject the same structures, naming the same
label, pair and value, and give the same generator tables and the same
images of the (N-2, 0) monomials, key by key and in order (bit for bit on a
float frame).  Against the
object route the five tables agree in keys, values and insertion order.
Against the direct route the barred half of the d table holds the same terms
but not always in the same insertion order, because the direct route's
order comes from cancellations inside the substitution; the holomorphic half
is compared in order.
"""
import functools
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from hha import hypercomplex
from hha.catalog import entry_names, get_example
from hha.classify import classify_metric
from hha.documents import geometry_to_input, load_document, parse_input
from hha.forms import Form, bidegree_project, indices, mask
from hha.hypercomplex import (
    ComplexFrame,
    Geometry,
    HypercomplexStructure,
    IntegrabilityError,
    SpherePoint,
    StructureError,
    _coframe_integrable,
    is_abelian,
    validate_hypercomplex,
)
from hha.liealg import LieAlgebraData
from hha.linalg import add_scaled, add_term
from hha.scalars import HALF, ONE, FieldMismatchError, ScalarField, rational, root

_PAIRS = (
    None,
    (SpherePoint(0, 1, 0), SpherePoint(1, 0, 0)),
    (SpherePoint(rational(3, 5), rational(4, 5), 0), SpherePoint(0, 0, 1)),
)


# -- oracles ---------------------------------------------------------------------


def _apply(cols, vec):
    out = {}
    for j, c in vec.items():
        add_scaled(out, c, cols[j])
    return out


def label_scan_failure(alg, cols):
    """(i, j, N_L(e_i, e_j)) at the first basis pair, 0-based, where the
    Nijenhuis tensor of L, given by its columns, does not vanish, or None."""
    for i, j in itertools.combinations(range(alg.dim), 2):
        ei, ej, Lei, Lej = {i: ONE}, {j: ONE}, cols[i], cols[j]
        out = alg.bracket(Lei, Lej)
        for vec in (_apply(cols, alg.bracket(Lei, ej)), _apply(cols, alg.bracket(ei, Lej)),
                    alg.bracket(ei, ej)):
            for k, c in vec.items():
                add_term(out, k, -c)
        if out:
            return i, j, out
    return None


def full_scan_failure(alg, H):
    """(label, i, j, N_L(e_i, e_j)) at the first basis pair, 0-based, where a
    Nijenhuis tensor of I, J or K does not vanish, or None."""
    for label, cols in H.columns.items():
        failure = label_scan_failure(alg, cols)
        if failure is not None:
            return (label, *failure)
    return None


def abelian_scan(alg, H):
    """[LX, LY] = [X, Y] for L in {I, J}, bracketing every basis pair."""
    for label in ("I", "J"):
        cols = H.columns[label]
        for i, j in itertools.combinations(range(alg.dim), 2):
            if alg.bracket(cols[i], cols[j]) != alg.bracket_basis(i, j):
                return False
    return True


def per_monomial_images(frame, name):
    """del or del_J of each (N-2, 0) monomial, one Leibniz kernel call each:
    the system builder ``solve_exactness`` used before the corank-two read."""
    op = {"del": frame.del_, "del_j": frame.del_j}[name]
    return {mask(idx): op(Form.monomial(frame.dim, idx)).terms
            for idx in itertools.combinations(range(frame.N), frame.N - 2)}


def direct_d_table(frame):
    """d of all 2N generators, each from the CE differential of its real image."""
    return [frame.to_complex(frame.algebra.ce_differential(real))
            for real in frame._complex_images]


def direct_tables(frame):
    """The split tables from the direct d table, J signs applied by ``scale``."""
    N = frame.N
    tables = {"del": [], "delbar": []}
    for k, dg in enumerate(direct_d_table(frame)):
        p = 1 if k < N else 0
        tables["del"].append(bidegree_project(dg, N, p + 1, 1 - p))
        tables["delbar"].append(bidegree_project(dg, N, p, 2 - p))
        if tables["del"][k] + tables["delbar"][k] != dg:
            raise StructureError(f"I is not integrable: d z^{k % N + 1} has a (0,2) part")
    jmap = sorted(frame._j_form_map.items())
    for name, inner in (("del_j", "delbar"), ("delbar_j", "del")):
        tables[name] = [frame.j_action(tables[inner][j]).scale(s) for _, (j, s) in jmap]
    return tables


TABLES = ("d", "del", "delbar", "del_j", "delbar_j")


def object_tables(frame):
    """The five tables on ``Form``s: d z^r = to_complex(CE d of its real image),
    d conj(z^r) = conj(d z^r), the bidegree split and the J twist."""
    N = frame.N
    hol = [frame.to_complex(frame.algebra.ce_differential(real))
           for real in frame._complex_images[:N]]
    tables = {"d": hol + [frame.conjugate(dz) for dz in hol], "del": [], "delbar": []}
    for k, dg in enumerate(tables["d"]):
        p = 1 if k < N else 0
        tables["del"].append(bidegree_project(dg, N, p + 1, 1 - p))
        tables["delbar"].append(bidegree_project(dg, N, p, 2 - p))
        if tables["del"][k] + tables["delbar"][k] != dg:
            raise StructureError(f"I is not integrable: d z^{k % N + 1} has a (0,2) part")
    jmap = sorted(frame._j_form_map.items())
    for name, inner in (("del_j", "delbar"), ("delbar_j", "del")):
        tables[name] = [frame.j_action(tables[inner][j]) if s > 0
                        else -frame.j_action(tables[inner][j]) for _, (j, s) in jmap]
    return tables


def split_tables(frame):
    """The four tables read off the d table, each requested by name."""
    return {name: frame._table(name) for name in TABLES[1:]}


def frame_tables(frame):
    return {"d": frame._d_table, **split_tables(frame)}


def _ordered(forms):
    return [list(f.terms.items()) for f in forms]


# -- comparisons -----------------------------------------------------------------


def assert_validation_matches_full_scan(alg, H):
    failure = full_scan_failure(alg, H)
    if failure is None:
        assert validate_hypercomplex(alg, H)["nijenhuis"] == dict.fromkeys("IJK", "integrable")
        return
    label, i, j, value = failure
    with pytest.raises(IntegrabilityError) as exc:
        validate_hypercomplex(alg, H)
    assert exc.value.pair == (i + 1, j + 1)
    assert str(exc.value) == str(IntegrabilityError(label, i, j, value))
    assert f"structure {label} " in str(exc.value)


def assert_tables_match_direct_route(alg, H):
    frame = Geometry(alg, H, check_integrability=False).frame
    N, direct = frame.N, direct_d_table(frame)
    assert list(frame._d_table) == direct
    for new, old in zip(frame._d_table[:N], direct[:N]):
        assert list(new.terms.items()) == list(old.terms.items())
    try:
        expected = direct_tables(frame)
    except StructureError as exc:
        for name in TABLES[1:]:
            with pytest.raises(StructureError) as got:
                frame._table(name)
            assert str(got.value) == str(exc)
        return
    assert {name: list(t) for name, t in split_tables(frame).items()} == expected


def assert_tables_match_object_route(alg, H):
    """All five tables equal the object route's in keys, values and order, or
    both routes raise the same error; returns the frame's tables, or None."""
    frame = Geometry(alg, H, check_integrability=False).frame
    try:
        expected = object_tables(Geometry(alg, H, check_integrability=False).frame)
    except (StructureError, FieldMismatchError) as exc:
        with pytest.raises(type(exc)) as got:
            frame_tables(frame)
        assert str(got.value) == str(exc)
        return None
    got = frame_tables(frame)
    for name in TABLES:
        assert _ordered(got[name]) == _ordered(expected[name]), name
    return got


def _structures(H):
    """The structure, its rotations by ``_PAIRS``, and the pair with I and J swapped."""
    yield H
    for pair in _PAIRS[1:]:
        yield H.rotate_pair(*pair)
    yield HypercomplexStructure.from_columns(H.columns["J"], H.columns["I"])


@functools.lru_cache(maxsize=None)
def _catalog_algebra(name):
    return get_example(name).load()[0].algebra


@pytest.mark.parametrize("name", entry_names())
def test_catalog_geometries_match_the_oracles(name):
    alg = _catalog_algebra(name)
    for H in _structures(HypercomplexStructure.standard(alg.dim // 4)):
        assert_validation_matches_full_scan(alg, H)
        assert_tables_match_direct_route(alg, H)
        assert_tables_match_object_route(alg, H)


@st.composite
def two_step_tables(draw):
    """(dim, table, abelian): a random two-step nilpotent bracket table over Q in
    dimension 4 or 8, brackets of the first generators landing among the last.
    When ``abelian``, the bracket B is first replaced by its average
    B(X, Y) + B(IX, IY) + B(JX, JY) + B(KX, KY) over the standard structure on
    a complement of the last quaternionic block, so that [LX, LY] = [X, Y] for
    L = I, J, K and the structure is integrable."""
    abelian = draw(st.booleans())
    dim = 8 if abelian else draw(st.sampled_from((4, 8)))
    split = 4 if abelian else draw(st.integers(min_value=2, max_value=dim - 1))
    coeff = st.builds(rational, st.integers(-3, 3), st.integers(1, 2))
    pairs = list(itertools.combinations(range(split), 2))
    raw = {}
    for ij, k, c in draw(st.lists(st.tuples(st.sampled_from(pairs),
                                            st.sampled_from(range(split, dim)), coeff),
                                  max_size=6)):
        raw.setdefault(ij, {})[k] = c
    if not abelian:
        return dim, {ij: comps for ij, comps in raw.items()
                     if any(not c.is_zero() for c in comps.values())}, False
    alg = LieAlgebraData(dim, raw)
    cols = HypercomplexStructure.standard(dim // 4).columns
    table = {}
    for i, j in pairs:
        total = {}
        for L in (None, "I", "J", "K"):
            x, y = ({i: ONE}, {j: ONE}) if L is None else (cols[L][i], cols[L][j])
            for k, c in alg.bracket(x, y).items():
                add_term(total, k, c)
        if total:
            table[(i, j)] = total
    return dim, table, True


@settings(max_examples=120, deadline=None, database=None)
@given(case=two_step_tables(), which=st.integers(min_value=0, max_value=3))
def test_random_geometries_match_the_oracles(case, which):
    dim, table, abelian = case
    alg = LieAlgebraData(dim, table)
    H = list(_structures(HypercomplexStructure.standard(dim // 4)))[which]
    if abelian:
        assert full_scan_failure(alg, H) is None
        assert is_abelian(alg, H)
    assert_validation_matches_full_scan(alg, H)
    assert_tables_match_direct_route(alg, H)
    assert_tables_match_object_route(alg, H)


def test_a_label_failing_on_the_coframe_reports_the_first_basis_pair():
    # [e1, e3] = e5 on R^8: N_I(e1, e3) = -e5, so I fails on the coframe, the
    # basis scan runs and names (e1, e3), the first basis pair where N_I does
    # not vanish
    alg = LieAlgebraData(8, {(0, 2): {4: ONE}})
    H = HypercomplexStructure.standard(2)
    assert full_scan_failure(alg, H) == ("I", 0, 2, {4: -ONE})
    with pytest.raises(IntegrabilityError) as exc:
        validate_hypercomplex(alg, H)
    assert exc.value.pair == (1, 3)
    assert str(exc.value) == "structure I is not integrable on (e1, e3): Nijenhuis value {e5: -1}"


# -- the integer tables --------------------------------------------------------------

# a rotation out of Q: the frame's images lie in Q(sqrt(2))
SQRT2_PAIR = (SpherePoint(HALF * root(2), HALF * root(2), 0), SpherePoint(0, 0, 1))


@pytest.mark.parametrize("name", entry_names())
def test_a_sqrt2_rotation_matches_the_object_route(name):
    """Over Q and Q(sqrt(2)) the tables are built on ints in Q(sqrt(2)) (some
    of them, qsg12 among them, keep a sqrt(2) part); joyce_su3, over
    Q(sqrt(3)), raises ``FieldMismatchError`` on both routes."""
    alg = _catalog_algebra(name)
    H = HypercomplexStructure.standard(alg.dim // 4).rotate_pair(*SQRT2_PAIR)
    tables = assert_tables_match_object_route(alg, H)
    assert (tables is None) == (alg.field.d == 3)
    assert tables is None or all(tables[t].lane is not None for t in TABLES)


def test_exact_classification_builds_its_tables_without_form_arithmetic(monkeypatch):
    """No ``Form.substitute`` or ``Form.wedge`` runs while a frame builds its
    tables in an exact classification of any catalog entry."""
    building, builds, calls = [], [], []

    def build(fn):
        def wrapper(frame, *args):
            building.append(fn)
            builds.append(fn)
            try:
                return fn(frame, *args)
            finally:
                building.pop()
        return wrapper

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if building:
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    prop = ComplexFrame.__dict__["_d_table"]
    monkeypatch.setattr(prop, "func", build(prop.func))
    monkeypatch.setattr(ComplexFrame, "_table", build(ComplexFrame._table))
    for attr in ("substitute", "wedge"):
        monkeypatch.setattr(Form, attr, counting(attr, getattr(Form, attr)))
    for name in entry_names():
        builds.clear()
        classify_metric(get_example(name).load()[1])
        assert builds and calls == [], name


def test_classification_never_builds_the_delbar_j_table(monkeypatch):
    """Each table is built on its first request, and classifying a catalog
    entry never asks for delbar_J, which no flag reads."""
    built = []
    table = ComplexFrame._table

    def counting(frame, name):
        if name not in frame._tables:
            built.append(name)
        return table(frame, name)

    monkeypatch.setattr(ComplexFrame, "_table", counting)
    for name in entry_names():
        built.clear()
        geometry, metric = get_example(name).load()
        classify_metric(metric)
        assert "del" in built and "delbar_j" not in built, name
        assert sorted(built) == sorted(set(built)) == sorted(geometry.frame._tables), name


def test_classification_never_differentiates_a_full_three_form(monkeypatch):
    """SKT for J and K and strong HKT are read off the halves of d Omega (see
    the ``classify`` module docstring): classifying a catalog entry never
    asks for del_J of conj(Omega), never asks for delbar, and never
    differentiates a form with both a (3,0) and a (0,3) part, as forming
    d(J* d omega_J), d(J* I* d omega_K) or del_J conj(Omega) would.  For
    n = 1 the Gauduchon route's mixed power Omega^{n-1} ^ conj(Omega^n) is
    conj(Omega) itself, and it is the one del_J of conj(Omega) there."""
    differentiated, del_j_of, delbar_calls = [], [], []
    kernel, del_j, delbar = (hypercomplex.leibniz_differential, ComplexFrame.del_j,
                             ComplexFrame.delbar)
    monkeypatch.setattr(hypercomplex, "leibniz_differential",
                        lambda form, table: differentiated.append(form) or kernel(form, table))
    monkeypatch.setattr(ComplexFrame, "del_j",
                        lambda frame, form: del_j_of.append(form) or del_j(frame, form))
    monkeypatch.setattr(ComplexFrame, "delbar",
                        lambda frame, form: delbar_calls.append(form) or delbar(frame, form))
    for name in entry_names():
        differentiated.clear()
        del_j_of.clear()
        geometry, metric = get_example(name).load()
        classify_metric(metric)
        N = geometry.N
        omega_bar = sum(form == metric.omega_bar() for form in del_j_of)
        assert del_j_of and omega_bar == (metric.n == 1), name
        assert differentiated and not delbar_calls, name
        for form in differentiated:
            types = {(key & ((1 << N) - 1)).bit_count() for key in form.keys()}
            assert form.degree != 3 or not {0, 3} <= types, name


def _float_geometry(name):
    """The catalog entry's geometry under ``--float``: every coefficient a float."""
    data = geometry_to_input(name, *get_example(name).load())
    data["scalar_field"] = {"kind": "float"}
    return load_document(parse_input(json.dumps(data)))[0]


@pytest.mark.parametrize("name", ["qsg12", "joyce_su2xsu2"])
def test_a_float_geometry_builds_its_tables_on_forms(name, monkeypatch):
    frame = _float_geometry(name).frame
    expected = object_tables(_float_geometry(name).frame)
    substitutions = []
    substitute = Form.substitute

    def counting(form, images):
        substitutions.append(form)
        return substitute(form, images)

    monkeypatch.setattr(Form, "substitute", counting)
    got = frame_tables(frame)
    assert len(substitutions) == frame.N
    for table in TABLES:
        assert got[table].lane is None, table
        assert _ordered(got[table]) == _ordered(expected[table]), table


def test_a_sqrt5_algebra_in_a_sqrt2_frame_still_raises():
    # d e^3 = -sqrt(5) e^1 ^ e^2: the structure constants lie in Q(sqrt(5))
    alg = LieAlgebraData(4, {(0, 1): {2: root(5)}}, ScalarField("quadratic", 5))
    H = HypercomplexStructure.standard(1).rotate_pair(*SQRT2_PAIR)
    frame = Geometry(alg, H, check_integrability=False).frame
    with pytest.raises(FieldMismatchError, match="cannot mix"):
        frame._d_table
    for name in TABLES[1:]:
        with pytest.raises(FieldMismatchError, match="cannot mix"):
            frame._table(name)


# -- the coframe verdict and the corank-two systems --------------------------------


def assert_coframe_matches_the_label_scans(alg, H):
    """Per label, or None where the scan cannot mix the two fields."""
    verdicts = _coframe_integrable(alg, H.columns)
    try:
        scans = {label: label_scan_failure(alg, cols) is None
                 for label, cols in H.columns.items()}
    except FieldMismatchError:
        assert verdicts is None
        return
    assert verdicts == scans


def _fields(c):
    """Every field of a complex scalar, floats by ``repr`` so that -0.0 counts."""
    return repr([(x.p, x.q, x.r, x.d) for x in (c.re, c.im)])


def assert_abelian_matches_the_scan(alg, H):
    assert is_abelian(alg, H) == abelian_scan(alg, H)
    assert Geometry(alg, H, check_integrability=False).is_abelian() == abelian_scan(alg, H)


def assert_systems_match_the_oracle(frame):
    for name in ("del", "del_j"):
        got, want = frame.corank_two_images(name), per_monomial_images(frame, name)
        assert list(got) == list(want), name
        for key, terms in want.items():
            assert [(k, _fields(c)) for k, c in got[key].items()] == \
                [(k, _fields(c)) for k, c in terms.items()], (name, indices(key))


@pytest.mark.parametrize("name", entry_names())
def test_catalog_systems_and_verdicts_match_the_oracles(name):
    """On the standard structure, its rotations, the swapped pair and the
    sqrt(2) rotation (whose tables joyce_su3, over Q(sqrt(3)), cannot build)."""
    alg = _catalog_algebra(name)
    standard = HypercomplexStructure.standard(alg.dim // 4)
    for H in (*_structures(standard), standard.rotate_pair(*SQRT2_PAIR)):
        assert_coframe_matches_the_label_scans(alg, H)
        if assert_tables_match_object_route(alg, H) is not None:
            assert_abelian_matches_the_scan(alg, H)
            assert_systems_match_the_oracle(Geometry(alg, H, check_integrability=False).frame)


@pytest.mark.parametrize("name", ["qsg12", "joyce_su2xsu2", "qgau16"])
def test_float_systems_match_the_oracle_bit_for_bit(name):
    geom = _float_geometry(name)
    assert geom.frame._table("del_j").lane is None
    assert _coframe_integrable(geom.algebra, geom.structure.columns) is None
    assert_systems_match_the_oracle(geom.frame)


def _sqrt2_table(table):
    """The bracket table times sqrt(2), over Q(sqrt(2)): the same Nijenhuis
    zeros, with every structure constant irrational."""
    return {ij: {k: c * root(2) for k, c in comps.items()} for ij, comps in table.items()}


@settings(max_examples=120, deadline=None, database=None)
@given(case=two_step_tables(), which=st.integers(min_value=0, max_value=4),
       irrational=st.booleans())
def test_random_systems_and_verdicts_match_the_oracles(case, which, irrational):
    """Each label's coframe verdict is the scan's, with the structure
    constants in Q or Q(sqrt(2)) and the structure's entries in Q or, for the
    fifth structure, the sqrt(2) rotation, in Q(sqrt(2))."""
    dim, table, _ = case
    if irrational:
        alg = LieAlgebraData(dim, _sqrt2_table(table), ScalarField("quadratic", 2))
    else:
        alg = LieAlgebraData(dim, table)
    standard = HypercomplexStructure.standard(dim // 4)
    H = [*_structures(standard), standard.rotate_pair(*SQRT2_PAIR)][which]
    assert_coframe_matches_the_label_scans(alg, H)
    if assert_tables_match_object_route(alg, H) is not None:
        assert_abelian_matches_the_scan(alg, H)
        assert_systems_match_the_oracle(Geometry(alg, H, check_integrability=False).frame)
