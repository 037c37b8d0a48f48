"""The derivation kernel against the routes it replaced, and the calculus
identities, on random mixed-bidegree forms.

``ComplexFrame`` applies d, del, delbar, del_J and delbar_J, and
``LieAlgebraData`` the Chevalley-Eilenberg differential, by one Leibniz
kernel reading one generator table per operator.  The oracles below are the
routes that kernel replaced:

- the prefix/suffix-wedge Leibniz extension;
- d through the real coframe, from the structure constants;
- del and delbar by splitting a form by bidegree, differentiating each part
  and projecting;
- del_J and delbar_J as J^{-1} delbar J and J^{-1} del J, with
  J^{-1} = (-1)^k J on k-forms.

The three algebras cover a nilpotent one (qsg12), a unimodular one over
Q(sqrt 2) whose structure is not SL(n,H) and whose adapted frame is not the
standard one (joyce_su2xsu2), and a non-unimodular one (solv_aff_c).
"""
import functools
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from hha import forms, hypercomplex
from hha.catalog import get_example
from hha.forms import Form, bidegree_project, bidegree_split, indices
from hha.hypercomplex import ComplexFrame
from hha.scalars import ComplexScalar, Scalar

ENTRIES = ("qsg12", "joyce_su2xsu2", "solv_aff_c")
OPERATORS = ("d", "del_", "delbar", "del_j", "delbar_j")
SPLIT_TABLES = ("del", "delbar", "del_j", "delbar_j")   # ComplexFrame._table names

_calculus = settings(max_examples=30, deadline=None, database=None)


@functools.lru_cache(maxsize=None)
def _geometry(entry):
    return get_example(entry).load()[0]


# -- oracles ---------------------------------------------------------------------


def wedge_leibniz(form, table):
    """Sum over positions of (-1)^pos (prefix) ^ table[k_pos] ^ (suffix)."""
    nsym = form.nsym
    if form.degree >= nsym:
        return Form.zero(nsym, form.degree)
    out = Form.zero(nsym, form.degree + 1)
    for key, c in form.terms.items():
        idx_list = indices(key)
        for pos, idx in enumerate(idx_list):
            prefix = Form.monomial(nsym, idx_list[:pos])
            suffix = Form.monomial(nsym, idx_list[pos + 1:])
            signed = table[idx] if pos % 2 == 0 else -table[idx]
            out = out + prefix.wedge(signed).wedge(suffix).scale(c)
    return out


def real_table(alg):
    """d e^k = -sum_{i<j} c^k_{ij} e^i ^ e^j, read from the brackets."""
    out = [Form.zero(alg.dim, 2) for _ in range(alg.dim)]
    for (i, j), comps in alg.brackets.items():
        for k, c in comps.items():
            out[k] = out[k] + Form.monomial(alg.dim, (i, j), ComplexScalar(-c))
    return out


def d_oracle(fr, form):
    """d through the real coframe: to_real, extend the real table, to_complex."""
    real = wedge_leibniz(fr.to_real(form), real_table(fr.algebra))
    return fr.to_complex(real)


def split_oracle(fr, form, dp, dq):
    """The (p+dp, q+dq) part of d, applied per bidegree part and projected."""
    out = Form.zero(fr.dim, min(form.degree + 1, fr.dim))
    for (p, q), part in bidegree_split(form, fr.N).items():
        out = out + bidegree_project(d_oracle(fr, part), fr.N, p + dp, q + dq)
    return out


def twisted_oracle(fr, form, dp, dq):
    """J^{-1} D J for D the (dp, dq) split differential."""
    out = fr.j_action(split_oracle(fr, fr.j_action(form), dp, dq))
    return -out if (form.degree + 1) % 2 else out


ORACLES = {
    "d": d_oracle,
    "del_": lambda fr, f: split_oracle(fr, f, 1, 0),
    "delbar": lambda fr, f: split_oracle(fr, f, 0, 1),
    "del_j": lambda fr, f: twisted_oracle(fr, f, 0, 1),
    "delbar_j": lambda fr, f: twisted_oracle(fr, f, 1, 0),
}


# -- random forms ----------------------------------------------------------------


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _scalars(d):
    if d == 0:
        return st.builds(Scalar, _small)
    return st.builds(lambda a, b: Scalar(a, b, d), _small, _small)


@st.composite
def _forms(draw, entry, max_degree=4):
    """A form of one degree whose terms mix bidegrees, over the entry's field."""
    g = _geometry(entry)
    dim = g.algebra.dim
    d = g.algebra.field.d if g.algebra.field.kind == "quadratic" else 0
    degree = draw(st.integers(min_value=0, max_value=min(max_degree, dim)))
    form = Form.zero(dim, degree)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        key = draw(st.lists(st.integers(0, dim - 1), min_size=degree,
                            max_size=degree, unique=True))
        c = ComplexScalar(draw(_scalars(d)), draw(_scalars(d)))
        form = form + Form.monomial(dim, sorted(key), c)
    return form


def _entry_and_form(max_degree=4):
    return st.sampled_from(ENTRIES).flatmap(
        lambda e: st.tuples(st.just(e), _forms(e, max_degree)))


def _entry_and_two_forms():
    return st.sampled_from(ENTRIES).flatmap(
        lambda e: st.tuples(st.just(e), _forms(e, 2), _forms(e, 2)))


# -- the kernel against the oracles ---------------------------------------------


@_calculus
@given(_entry_and_form())
def test_each_operator_matches_its_oracle(case):
    entry, form = case
    fr = _geometry(entry).frame
    for name in OPERATORS:
        assert getattr(fr, name)(form) == ORACLES[name](fr, form), name


@_calculus
@given(_entry_and_form())
def test_ce_differential_matches_the_wedge_leibniz_extension(case):
    entry, form = case
    fr = _geometry(entry).frame
    alg = fr.algebra
    real = fr.to_real(form)
    assert alg.ce_differential(real) == wedge_leibniz(real, real_table(alg))


def test_top_degree_maps_to_zero():
    for entry in ENTRIES:
        fr = _geometry(entry).frame
        top = Form.monomial(fr.dim, range(fr.dim))
        for name in OPERATORS:
            out = getattr(fr, name)(top)
            assert out.is_zero() and out.degree == fr.dim


# -- identities -------------------------------------------------------------------


@_calculus
@given(_entry_and_form(max_degree=3))
def test_split_and_square_zero_identities(case):
    entry, form = case
    fr = _geometry(entry).frame
    assert fr.del_(form) + fr.delbar(form) == fr.d(form)
    assert fr.del_(fr.del_(form)).is_zero()
    assert fr.delbar(fr.delbar(form)).is_zero()
    assert fr.del_j(fr.del_j(form)).is_zero()
    assert (fr.del_(fr.del_j(form)) + fr.del_j(fr.del_(form))).is_zero()


@_calculus
@given(_entry_and_two_forms())
def test_graded_leibniz_rule(case):
    entry, a, b = case
    fr = _geometry(entry).frame
    assume(a.degree + b.degree < fr.dim)
    sign = -1 if a.degree % 2 else 1
    for op in (fr.del_, fr.del_j):
        lhs = op(a.wedge(b))
        rhs = op(a).wedge(b) + a.wedge(op(b)).scale(sign)
        assert lhs == rhs


# -- one kernel call per operator -------------------------------------------------


def test_each_operator_is_one_kernel_call(monkeypatch):
    fr = _geometry("joyce_su2xsu2").frame
    form = Form.monomial(fr.dim, (0, fr.N + 1)) + Form.monomial(fr.dim, (1, 2))
    for name in OPERATORS:      # build the cached tables first
        getattr(fr, name)(form)
    counts = {}

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            counts[label] = counts.get(label, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hypercomplex, "leibniz_differential",
                        counting("kernel", hypercomplex.leibniz_differential))
    monkeypatch.setattr(forms, "bidegree_project",
                        counting("project", forms.bidegree_project))
    for cls_attr in ("d", "j_action"):
        monkeypatch.setattr(ComplexFrame, cls_attr,
                            counting(cls_attr, getattr(ComplexFrame, cls_attr)))
    monkeypatch.setattr(forms, "bidegree_split", counting("split", forms.bidegree_split))
    for name in OPERATORS:
        counts.clear()
        getattr(fr, name)(form)
        expected = {"kernel": 1, "d": 1} if name == "d" else {"kernel": 1}
        assert counts == expected, name


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_table_entry_is_a_two_form(entry):
    # the kernel commutes each entry past the prefix, which needs even degree
    fr = _geometry(entry).frame
    tables = [fr.algebra._d_table, fr._d_table, *map(fr._table, SPLIT_TABLES)]
    assert all(len(t) == len(tables[0]) for t in tables)
    assert all(e.degree == 2 for e in itertools.chain(*tables))
