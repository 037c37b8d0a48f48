"""Bitmask monomial keys against the index-tuple route of ``tuple_keys``.

Each kernel must give the same keys with the same signs, in the same
insertion order, because the float backend sums in that order.
"""
from hypothesis import given, settings, strategies as st

from hha import forms
from hha.forms import DerivationTable, Form, indices, leibniz_differential, mask
from hha.scalars import C_ONE, ComplexScalar, rational
import tuple_keys

MAX_SYMBOLS = 64

_coeffs = st.builds(lambda re, im: ComplexScalar(rational(re), rational(im)),
                    st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: not c.is_zero())


def _monomial(data, nsym: int, degree: int) -> tuple:
    """Drawn directly when it is at most half the frame, else as a complement."""
    k = min(degree, nsym - degree)
    idx = set(data.draw(st.lists(st.integers(0, nsym - 1), min_size=k, max_size=k, unique=True)))
    return tuple(sorted(idx if k == degree else set(range(nsym)) - idx))


def _form(data, nsym: int, degree: int) -> Form:
    """A sum of up to three monomials of one degree."""
    f = Form.zero(nsym, degree)
    for _ in range(data.draw(st.integers(1, 3))):
        f = f + Form.monomial(nsym, _monomial(data, nsym, degree), data.draw(_coeffs))
    return f


def _items(terms: dict) -> list:
    return list(terms.items())


@settings(max_examples=100, deadline=None)
@given(idx=st.sets(st.integers(0, MAX_SYMBOLS - 1)))
def test_mask_and_indices_are_inverse(idx):
    key = mask(idx)
    assert indices(key) == tuple(sorted(idx))
    assert mask(indices(key)) == key
    f = Form.monomial(MAX_SYMBOLS, sorted(idx))
    assert f.terms == {key: C_ONE}
    assert f.coefficient(sorted(idx)) == C_ONE
    if len(idx) > 1:
        # a repeated or decreasing index sequence names no monomial
        assert f.coefficient(sorted(idx, reverse=True)).is_zero()
        assert f.coefficient([min(idx), *sorted(idx)]).is_zero()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_wedge_matches_the_tuple_route(data):
    nsym = data.draw(st.integers(1, MAX_SYMBOLS))
    da = data.draw(st.integers(0, nsym))
    db = data.draw(st.integers(0, nsym - da))
    a, b = _form(data, nsym, da), _form(data, nsym, db)
    want = tuple_keys.wedge(tuple_keys.tuple_terms(a), tuple_keys.tuple_terms(b))
    assert _items(tuple_keys.tuple_terms(a.wedge(b))) == _items(want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_contract_matches_the_tuple_route(data):
    nsym = data.draw(st.integers(1, MAX_SYMBOLS))
    f = _form(data, nsym, data.draw(st.integers(1, nsym)))
    vector = data.draw(st.dictionaries(st.integers(0, nsym - 1), _coeffs, max_size=4))
    want = tuple_keys.contract(tuple_keys.tuple_terms(f), vector)
    assert _items(tuple_keys.tuple_terms(f.contract(vector))) == _items(want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_map_indices_matches_the_tuple_route(data):
    nsym = data.draw(st.integers(1, MAX_SYMBOLS))
    f = _form(data, nsym, data.draw(st.integers(0, nsym)))
    images = data.draw(st.permutations(range(nsym)))
    if data.draw(st.booleans()):
        # a map that is not injective sends some monomials to zero
        images[data.draw(st.integers(0, nsym - 1))] = data.draw(st.integers(0, nsym - 1))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=nsym, max_size=nsym))
    mapping = dict(enumerate(zip(images, signs)))
    want = tuple_keys.map_indices(tuple_keys.tuple_terms(f), mapping)
    assert _items(tuple_keys.tuple_terms(f.map_indices(mapping))) == _items(want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_leibniz_differential_matches_the_tuple_route(data):
    nsym = data.draw(st.integers(2, MAX_SYMBOLS))
    f = _form(data, nsym, data.draw(st.integers(0, nsym - 1)))
    # generator 2-forms from one drawn generator: a draw per term would
    # dominate the run at 64 symbols
    rng = data.draw(st.randoms(use_true_random=True))
    table = [sum((Form.monomial(nsym, sorted(rng.sample(range(nsym), 2)),
                                ComplexScalar(rational(rng.choice((-2, -1, 1, 3)))))
                  for _ in range(rng.randint(1, 3))), Form.zero(nsym, 2))
             for _ in range(nsym)]
    want = tuple_keys.leibniz_differential(
        tuple_keys.tuple_terms(f), [tuple_keys.tuple_terms(t) for t in table])
    # the integer lane of a compiled table, and the scalar-object route
    compiled = DerivationTable(table)
    assert compiled.lane is not None
    assert _items(tuple_keys.tuple_terms(leibniz_differential(f, compiled))) == _items(want)
    assert _items(tuple_keys.tuple_terms(
        Form(nsym, f.degree + 1, forms._object_route(f, table)))) == _items(want)
