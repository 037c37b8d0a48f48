"""The index-tuple route of the exterior algebra, kept as an oracle.

``Form.terms`` is keyed by bitmasks (``hha.forms.mask``).  Along this route
a monomial is its strictly increasing index tuple instead: two monomials
merge by :func:`merge_keys`, and a list of images is sorted with its parity
by :func:`sort_sign`.  The kernels below follow that route on tuple-keyed
term dicts, so that the tests can check the bitmask kernels against it key
by key and sign by sign.
"""
from hha.forms import Form, indices
from hha.linalg import add_term


def merge_keys(ka: tuple, kb: tuple):
    """Merge two sorted index tuples; returns (merged, sign) or (None, 0)."""
    if not ka:
        return kb, 1
    if not kb:
        return ka, 1
    out = []
    i = j = 0
    flips = 0
    la, lb = len(ka), len(kb)
    while i < la and j < lb:
        x, y = ka[i], kb[j]
        if x == y:
            return None, 0
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
            flips += la - i
    out.extend(ka[i:])
    out.extend(kb[j:])
    return tuple(out), (-1 if flips & 1 else 1)


def sort_sign(idx: list):
    """Parity sort of a small index list; sign 0 when indices repeat."""
    sign = 1
    a = list(idx)
    n = len(a)
    for i in range(1, n):
        j = i
        while j > 0 and a[j - 1] > a[j]:
            a[j - 1], a[j] = a[j], a[j - 1]
            sign = -sign
            j -= 1
    for i in range(n - 1):
        if a[i] == a[i + 1]:
            return 0, a
    return sign, a


def tuple_terms(form: Form) -> dict:
    """The terms of ``form`` keyed by index tuples."""
    return {indices(key): c for key, c in form.terms.items()}


def wedge(ta: dict, tb: dict) -> dict:
    out: dict = {}
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            merged, sign = merge_keys(ka, kb)
            if merged is not None:
                c = ca * cb
                add_term(out, merged, c if sign > 0 else -c)
    return out


def contract(terms: dict, vector: dict) -> dict:
    out: dict = {}
    for key, c in terms.items():
        for pos, idx in enumerate(key):
            v = vector.get(idx)
            if v is not None:
                term = v * c
                add_term(out, key[:pos] + key[pos + 1:], -term if pos & 1 else term)
    return out


def map_indices(terms: dict, mapping) -> dict:
    out: dict = {}
    for key, c in terms.items():
        imgs = [mapping[i] for i in key]
        sign, sorted_idx = sort_sign([i for i, _ in imgs])
        for _, s in imgs:
            sign *= s
        if sign:
            add_term(out, tuple(sorted_idx), c if sign > 0 else -c)
    return out


def leibniz_differential(terms: dict, table: list) -> dict:
    """The derivation with generator 2-forms ``table`` (tuple-keyed dicts)."""
    out: dict = {}
    for key, c in terms.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            for tkey, tc in table[idx].items():
                merged, sign = merge_keys(tkey, rest)
                if merged is not None:
                    term = tc * c
                    add_term(out, merged, term if (sign > 0) == (pos % 2 == 0) else -term)
    return out
