"""Benchmark input files, generated from a seed with the standard library only.

Nothing here imports ``hha``: the program under test receives the files this
module writes and nothing else.

Random metrics are quaternionic-Hermitian n x n matrices Q with entries
q = a + b j (a, b complex), embedded in the 2n x 2n Hermitian frame matrix
by the blocks

    G[2p:2p+2, 2q:2q+2] = [[a, b], [-conj(b), conj(a)]],

the convention of ``Metric.from_hermitian_matrix`` (J conj(Z_{2i-1}) = Z_{2i};
README, "gram" metrics).  Q_qp is the quaternionic conjugate conj(a) - b j of
Q_pq, so the lower blocks are [[conj(a), -b], [conj(b), a]], and diagonal
blocks are a real multiple of the identity.  Positivity comes from exact
strict diagonal dominance: every real component x = u + v sqrt(D) is bounded
by |u| + |v| * ceil(sqrt(D)), and each diagonal entry exceeds the sum of the
bounds of its row.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Catalog algebras, exported once from the catalog; only their structure
# equations (and, for the constructions, their native metrics) are used.
ALGEBRAS = json.loads((DATA / "algebras.json").read_text(encoding="utf-8"))

DENSE_ALGEBRAS = ("abelian8", "solv_aff_c", "solv_rank1", "solv_third",
                  "qbal12", "qbal16", "qsg12", "qsg16", "qgau12")
# Verdict times cluster by dimension: 4 dimension-4 or -8 inputs, 5 in the
# 12-dimensional cluster, 3 in the 16-dimensional one.  Of twelve verdicts
# the median then falls in the middle of the 12-dimensional cluster and the
# 90th percentile between the two faster 16-dimensional ones, not on a gap
# between clusters or on the slowest input, where the quantile would jump
# with the seed.  Extra inputs go at the end, so that the earlier ones stay
# the same for a seed.
DENSE_INPUTS = DENSE_ALGEBRAS + ("qbal12", "qsg12", "qbal16")
QUADRATIC_FIELDS = (2, 5)
# Compact-type algebras whose structure constants already need a radical;
# their verdict times fall in the 12-dimensional cluster.
NATIVE_QUADRATIC = ("joyce_su2xsu2", "joyce_su3")
QUADRATIC_INPUTS = DENSE_ALGEBRAS + NATIVE_QUADRATIC + ("qbal16",)
CONSTRUCT_INPUTS = ("qbal12", "qsg12", "joyce_su2")

# Sizes of the random integer components: small, so that the cost of an
# input depends little on the seed.
_SIZES = (1, 2)


def _ceil_sqrt(d: int) -> int:
    return math.isqrt(d - 1) + 1


def _fmt(u: Fraction, v: Fraction, d: int) -> str:
    """u + v*sqrt(d) in the README scalar grammar."""
    if v == 0:
        return str(u)
    coef = abs(v)
    radical = f"sqrt({d})" if coef == 1 else f"{coef}*sqrt({d})"
    if u == 0:
        return radical if v > 0 else "-" + radical
    return f"{u}{'+' if v > 0 else '-'}{radical}"


def _integer(rng: random.Random, nonzero: bool) -> Fraction:
    size = rng.choice(_SIZES) if nonzero else rng.choice((0,) + _SIZES)
    return Fraction(size * rng.choice((-1, 1)))


def _component(rng: random.Random, d: int):
    """One nonzero real component; over Q(sqrt d) its radical part is nonzero."""
    if d == 0:
        return (_integer(rng, True), Fraction(0))
    return (_integer(rng, False), _integer(rng, True))


def _bound(x, d: int) -> Fraction:
    u, v = x
    return abs(u) + (abs(v) * _ceil_sqrt(d) if v else 0)


def _neg(x):
    return (-x[0], -x[1])


def random_gram(rng: random.Random, n: int, d: int):
    """Positive 2n x 2n frame Gram matrix of a random hyperhermitian metric.

    The first two quaternionic blocks are coupled by one random entry; the
    other off-diagonal entries are zero (coupling every pair made one
    16-dimensional input take 47 s).  Entries are pairs (re, im) of real
    components (u, v) meaning u + v sqrt(d).
    """
    zero = (Fraction(0), Fraction(0))
    N = 2 * n
    G = [[(zero, zero)] * N for _ in range(N)]
    row_bound = [Fraction(0)] * n
    if n > 1:
        p, q = 0, 1
        a_re, a_im, b_re, b_im = (_component(rng, d) for _ in range(4))
        size = sum(_bound(x, d) for x in (a_re, a_im, b_re, b_im))
        row_bound[p] += size
        row_bound[q] += size
        a, b = (a_re, a_im), (b_re, b_im)
        a_bar, b_bar = (a_re, _neg(a_im)), (b_re, _neg(b_im))
        minus_b = (_neg(b_re), _neg(b_im))
        minus_b_bar = (_neg(b_re), b_im)
        r, c = 2 * p, 2 * q
        G[r][c], G[r][c + 1] = a, b
        G[r + 1][c], G[r + 1][c + 1] = minus_b_bar, a_bar
        G[c][r], G[c][r + 1] = a_bar, minus_b
        G[c + 1][r], G[c + 1][r + 1] = b_bar, a
    for p in range(n):
        v = _integer(rng, True) if d else Fraction(0)
        slack = rng.choice(_SIZES)
        u = row_bound[p] + _bound((0, v), d) + slack
        G[2 * p][2 * p] = G[2 * p + 1][2 * p + 1] = ((u, v), zero)
    return G


def gram_document(name: str, algebra: str, d: int, G) -> dict:
    """An input file: the algebra's structure, Gram metric G over Q(sqrt d)."""
    base = ALGEBRAS[algebra]
    field = {"kind": "quadratic", "d": d} if d else {"kind": "rational"}
    return {
        "name": name,
        "dimension": base["dimension"],
        "scalar_field": field,
        "structure_equations": base["structure_equations"],
        "hypercomplex": base["hypercomplex"],
        "metric": {
            "type": "gram",
            "entries": [[[_fmt(*re, d), _fmt(*im, d)] for (re, im) in row]
                        for row in G],
        },
    }


def dense_documents(seed: int) -> list:
    """Random rational metrics on the dense algebras."""
    rng = random.Random(f"dense/{seed}")
    docs = []
    for i, alg in enumerate(DENSE_INPUTS):
        n = ALGEBRAS[alg]["dimension"] // 4
        docs.append(gram_document(f"{alg}.dense{seed}.{i}", alg, 0,
                                  random_gram(rng, n, 0)))
    return docs


def quadratic_documents(seed: int) -> list:
    """Random Q(sqrt D) metrics: the dense algebras plus two compact-type ones."""
    rng = random.Random(f"quadratic/{seed}")
    docs = []
    for i, alg in enumerate(QUADRATIC_INPUTS):
        native = ALGEBRAS[alg]["scalar_field"]
        d = native["d"] if native["kind"] == "quadratic" else rng.choice(QUADRATIC_FIELDS)
        n = ALGEBRAS[alg]["dimension"] // 4
        docs.append(gram_document(f"{alg}.quadratic{seed}.{i}", alg, d,
                                  random_gram(rng, n, d)))
    return docs


def construct_documents() -> list:
    """The fixed construction inputs, with their catalog metrics."""
    return [dict(ALGEBRAS[name]) for name in CONSTRUCT_INPUTS]


DOCUMENTS = {
    "dense": dense_documents,
    "quadratic": quadratic_documents,
    "construct": lambda seed: construct_documents(),
    "catalog": lambda seed: [],
}


def write_inputs(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's input files; returns their paths in input order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in DOCUMENTS[workload](seed):
        path = directory / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
        paths.append(path)
    return paths
