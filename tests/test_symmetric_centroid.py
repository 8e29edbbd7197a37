"""The symmetric centroid Gamma_s and its B-irreducibility certificate.

Gamma_s(q) is the even maps T with T(xy) = T(x)y = xT(y) and
B(Tx, y) = B(x, Ty).  An orthogonal split into k graded ideals puts k
orthogonal idempotents in Gamma_s, so the trace form (S, T) -> tr(ST) has
rank at least k there, and rank 1 proves that q does not split.  Each basis
map is checked against the defining identities through `core.product`, and
the certificate against the candidate loop that decided splits before it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (Element, GradedSubspace, QuadraticAlgebra, catalog_get,
                     center, change_basis_quadratic, direct_sum_quadratic,
                     linalg, product, quadratic, simplicity)
from qmalcev.core import _ideal_candidates, ideal_closure
from qmalcev.quadratic import _split, _symmetric_centroid, _trace_rank

from references import restricted
from test_decompose import oscillator


def fresh(q):
    """A copy of q with empty caches."""
    return QuadraticAlgebra(q.algebra, q.form, validated=q.validated)


def mixed(q, rng=None):
    """q in a unitriangular basis b_i + x b_j, j the next index of b_i's
    parity, x = 1 or drawn from rng; across a direct sum this mixes the
    summands."""
    n = q.dim
    cols = []
    for i in range(n):
        c = [0] * n
        c[i] = 1
        later = [j for j in range(i + 1, n)
                 if q.space.parity(j) == q.space.parity(i)]
        if later:
            c[later[0]] = 1 if rng is None else rng.choice(
                (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
        cols.append(c)
    return change_basis_quadratic(q, cols)


def _sum(*qs):
    out = qs[0]
    for q in qs[1:]:
        out = direct_sum_quadratic(out, q)
    return out


def _entry(name, **params):
    return catalog_get(name, **params).algebra


TABLE = [
    ("sl2", lambda: _entry("sl2"), 1, 1),
    ("osp12", lambda: _entry("osp12"), 1, 1),
    ("m7", lambda: _entry("m7"), 1, 1),
    ("abelian02", lambda: _entry("abelian", p=0, q=2), 1, 1),
    ("osc1", oscillator, 2, 1),
    ("example_gde1", lambda: _entry("example_gde", n=1, m=(2,)), 2, 1),
    ("gde_abelian12", lambda: _entry("gde_abelian12"), 2, 1),
    ("example_gde2", lambda: _entry("example_gde", n=2, m=(1, 2)), 4, 1),
    ("example_gde3", lambda: _entry("example_gde", n=3, m=(1, 2, 2)), 7, 1),
    ("sl2+osp12_mixed", lambda: mixed(_sum(_entry("sl2"), _entry("osp12"))),
     2, 2),
    ("sl2+sl2_mixed", lambda: mixed(_sum(_entry("sl2"), _entry("sl2"))),
     2, 2),
    ("abelian22", lambda: _entry("abelian", p=2, q=2), 4, 4),
]


def assert_in_centroid(q, t):
    """The sparse matrix T {n*r + c: x} is even, multiplies like a
    centroid map and is B-symmetric, read off the products of basis
    elements that `core.product` gives."""
    n = q.dim
    par = [q.space.parity(i) for i in range(n)]
    assert all(par[pos // n] == par[pos % n] for pos, x in t.items() if x)
    b = [Element.basis(n, i) for i in range(n)]
    prod = [[dict(enumerate(linalg.dense(product(q.algebra, x, y).entries,
                                         n))) for y in b]
            for x in b]
    col = [{r: t.get(n * r + i, 0) for r in range(n) if t.get(n * r + i, 0)}
           for i in range(n)]

    def combine(terms):
        out = [0] * n
        for x, vec in terms:
            for k, c in vec.items():
                out[k] += x * c
        return out

    g = q.form.gram
    for i in range(n):
        for j in range(n):
            txy = combine((c, col[k]) for k, c in prod[i][j].items())
            assert txy == combine((x, prod[m][j]) for m, x in col[i].items())
            assert txy == combine((x, prod[i][m]) for m, x in col[j].items())
            assert (sum(x * g[r][j] for r, x in col[i].items())
                    == sum(g[i][r] * x for r, x in col[j].items()))


@pytest.mark.parametrize("name,make,dim,rank", TABLE,
                         ids=[row[0] for row in TABLE])
def test_dimension_and_trace_rank(name, make, dim, rank):
    q = fresh(make())
    n = q.dim
    basis = _symmetric_centroid(q)
    assert (len(basis), _trace_rank(basis, n)) == (dim, rank)
    assert _trace_rank(basis, n, stop=2) == min(rank, 2)
    for t in basis:
        assert_in_centroid(q, t)
    flat = linalg.Span(n * n)
    for t in basis:
        flat.add(t)
    assert flat.dim == dim
    assert flat.contains({n * r + r: 1 for r in range(n)})
    assert _split(q)[1] == (rank == 1 or n <= 1
                            or simplicity(q.algebra).simple)


def test_certificate_is_cached_and_skips_the_search(monkeypatch):
    q = fresh(_entry("example_gde", n=2, m=(1, 2)))
    assert simplicity(q.algebra).simple is False
    candidates, solves = quadratic._ideal_candidates, []

    def single_vectors_only(a):
        # center columns, then basis vectors, then at most one more seed
        for count, seed in enumerate(candidates(a)):
            if count > len(center(a).rows) + a.dim:
                raise AssertionError("candidate search run")
            yield seed

    def counted(q):
        solves.append(q)
        return _symmetric_centroid(q)

    monkeypatch.setattr(quadratic, "_ideal_candidates", single_vectors_only)
    monkeypatch.setattr(quadratic, "_symmetric_centroid", counted)
    assert _split(q)[0] is None
    assert _split(q)[1] is True
    assert _split(q)[0] is None
    assert len(solves) == 1


@pytest.mark.parametrize("make", [
    lambda: _entry("abelian", p=3, q=0),
    lambda: _sum(oscillator(), _entry("abelian", p=1, q=0)),
    lambda: _sum(_entry("sl2"), _entry("sl2")),
], ids=["abelian30", "osc1+abelian10", "sl2+sl2"])
def test_single_vectors_split_before_the_certificate(monkeypatch, make):
    """A summand that a center column or a basis vector closes to is split
    off as before the certificate, and Gamma_s is not solved."""

    def refuse(_q):
        raise AssertionError("Gamma_s solved")

    monkeypatch.setattr(quadratic, "_symmetric_centroid", refuse)
    q = fresh(make())
    ideal, _proved = _split(q)
    assert ideal is not None and ideal == reference_split(fresh(q))


def reference_split(q):
    """The candidate loop that decided splits before the certificate."""
    a = q.algebra
    n = a.dim
    if simplicity(a).simple is True:
        return None
    seen = set()
    for seed in _ideal_candidates(a):
        sub = GradedSubspace.from_vectors(a.space, seed)
        if sub.dim == 0:
            continue
        ideal = ideal_closure(a, sub)
        if not 0 < ideal.dim < n:
            continue
        key = tuple(linalg.dense(r, n) for r in ideal.rows)
        if key in seen:
            continue
        seen.add(key)
        if linalg.det(restricted(q.form, ideal.rows).matrix) != 0:
            return ideal
    return None


PIECES = {
    "sl2": lambda: _entry("sl2"),
    "osp12": lambda: _entry("osp12"),
    "abelian10": lambda: _entry("abelian", p=1, q=0),
    "abelian02": lambda: _entry("abelian", p=0, q=2),
    "osc1": oscillator,
    "example_M1": lambda: _entry("example_M", n=1, m=(1,)),
    "example_gde1": lambda: _entry("example_gde", n=1, m=(2,)),
    "gde_abelian12": lambda: _entry("gde_abelian12"),
}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(sorted(PIECES)), min_size=1, max_size=3),
       st.lists(st.booleans(), min_size=4, max_size=4),
       st.integers(0, 2 ** 32))
def test_trace_rank_bounds_the_summands(names, mix, seed):
    rng = random.Random(seed)
    pieces = [PIECES[nm]() for nm in names]
    pieces = [mixed(p, rng) if m else p for p, m in zip(pieces, mix)]
    plain = _sum(*pieces)
    q = fresh(mixed(plain, rng) if mix[-1] else plain)
    basis = _symmetric_centroid(q)
    for t in basis:
        assert_in_centroid(q, t)
    # a change of basis conjugates Gamma_s and keeps the trace form
    ref = _symmetric_centroid(fresh(plain))
    n = q.dim
    assert ((len(basis), _trace_rank(basis, n))
            == (len(ref), _trace_rank(ref, n)))
    assert _trace_rank(basis, n) >= len(pieces)
    if _split(q)[1]:
        assert reference_split(fresh(q)) is None
        assert _split(q)[0] is None
