"""Building a geometry against the routes the half-basis and conjugation
shortcuts replaced.

``validate_hypercomplex`` evaluates each Nijenhuis tensor N_L on pairs from a
half basis S (S and LS together a basis) and scans the basis pairs only when
one of them fails; ``ComplexFrame._d_table`` computes d z^r for the N
holomorphic generators and takes d conj(z^r) = conj(d z^r).  The oracles are
the routes they replaced:

- the scan of N_L over all basis pairs (e_i, e_j), i < j, for I, J and K in
  turn, stopping at the first nonzero value;
- d of every one of the 2N frame generators as ``to_complex`` of the CE
  differential of its real image, and the split tables built from it with
  ``Form.scale(+-1)``.

The new routes must accept and reject the same structures, naming the same
label, pair and value, and give the same generator tables.  The barred
half of the d table holds the same terms as the direct route but not always
in the same insertion order, because the direct route's order comes from
cancellations inside the substitution; the holomorphic half is computed the
same way on both routes and is compared in order.
"""
import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hha.catalog import entry_names, get_example
from hha.forms import bidegree_project
from hha.hypercomplex import (
    Geometry,
    HypercomplexStructure,
    IntegrabilityError,
    SpherePoint,
    StructureError,
    validate_hypercomplex,
)
from hha.liealg import LieAlgebraData
from hha.linalg import add_scaled, add_term
from hha.scalars import ONE, rational

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


def full_scan_failure(alg, H):
    """(label, i, j, N_L(e_i, e_j)) at the first basis pair, 0-based, where a
    Nijenhuis tensor of I, J or K does not vanish, or None."""
    for label, cols in H.columns.items():
        for i, j in itertools.combinations(range(alg.dim), 2):
            ei, ej, Lei, Lej = {i: ONE}, {j: ONE}, cols[i], cols[j]
            out = alg.bracket(Lei, Lej)
            for vec in (_apply(cols, alg.bracket(Lei, ej)), _apply(cols, alg.bracket(ei, Lej)),
                        alg.bracket(ei, ej)):
                for k, c in vec.items():
                    add_term(out, k, -c)
            if out:
                return label, i, j, out
    return None


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
        with pytest.raises(StructureError) as got:
            frame._tables
        assert str(got.value) == str(exc)
        return
    assert {name: list(t) for name, t in frame._tables.items()} == expected


def _structures(H):
    """The structure, its rotations by ``_PAIRS``, and the pair with I and J swapped."""
    yield H
    for pair in _PAIRS[1:]:
        yield H.rotate_pair(*pair)
    yield HypercomplexStructure(H.J, H.I)


@functools.lru_cache(maxsize=None)
def _catalog_algebra(name):
    return get_example(name).load()[0].algebra


@pytest.mark.parametrize("name", entry_names())
def test_catalog_geometries_match_the_oracles(name):
    alg = _catalog_algebra(name)
    for H in _structures(HypercomplexStructure.standard(alg.dim // 4)):
        assert_validation_matches_full_scan(alg, H)
        assert_tables_match_direct_route(alg, H)


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
    assert_validation_matches_full_scan(alg, H)
    assert_tables_match_direct_route(alg, H)


def test_a_failing_half_basis_pair_reports_the_first_basis_pair():
    # [e1, e3] = e5 on R^8: N_I(e1, e3) = -e5 on the half-basis pair (v, Jv) of
    # the first block, so the basis scan runs and names (e1, e3), the first
    # basis pair where N_I does not vanish
    alg = LieAlgebraData(8, {(0, 2): {4: ONE}})
    H = HypercomplexStructure.standard(2)
    assert full_scan_failure(alg, H) == ("I", 0, 2, {4: -ONE})
    with pytest.raises(IntegrabilityError) as exc:
        validate_hypercomplex(alg, H)
    assert exc.value.pair == (1, 3)
    assert str(exc.value) == "structure I is not integrable on (e1, e3): Nijenhuis value {e5: -1}"
