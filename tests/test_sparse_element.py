"""`Element` keeps its nonzeros; the dense `coords` is a view for the printers.

A dense tuple, `from_seq`, `zero`, `basis` and `Element.sparse` give equal
vectors with equal hashes, and `coords` gives the tuple back.  The
witnesses that the scans cache hold only their nonzeros, which the two
tracemalloc bounds pin.  `operator_from_cocycle` solves on the int Gram and
`BilinearForm._nondegenerate_on` reads ranks off the int pullback; both are
checked against the dense routines they replaced.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (BilinearForm, Cocycle, Element, GradedSubspace,
                     OperatorMap, QuadraticAlgebra, SuperAlgebra, SuperSpace,
                     check_jacobi, check_form, operator_from_cocycle)
from qmalcev import linalg
from qmalcev.core import _CERT_PRIME, _scan_kernel
from qmalcev.document import MAX_DIM, canonical_json, parse_document
from qmalcev.errors import PreconditionError

from test_packed_scan import _m7_sum

entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2),
                           Fraction(-2, 3), Fraction(0)])


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, max_size=9))
def test_dense_coords_round_trip(dense):
    n = len(dense)
    nonzero = {i: x for i, x in enumerate(dense) if x}
    el = Element(tuple(dense))
    assert el.coords == tuple(dense)
    assert el.entries == nonzero and len(el) == n
    same = [el, Element(list(dense)), Element.from_seq(dense),
            Element.sparse(n, nonzero),
            Element.sparse(n, dict(reversed(list(nonzero.items()))))]
    if not nonzero:
        same.append(Element.zero(n))
    if len(nonzero) == 1 and set(nonzero.values()) == {1}:
        same.append(Element.basis(n, next(iter(nonzero))))
    for other in same:
        assert other == el and hash(other) == hash(el)
        assert other.coords == tuple(dense)
    assert len({el, *same}) == 1
    assert Element(tuple(dense) + (0,)) != el  # another dimension


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(*[st.lists(entries, min_size=n, max_size=n)] * 2)),
    entries)
def test_arithmetic_follows_the_coordinates(pair, c):
    u, v = pair
    x, y = Element.from_seq(u), Element.from_seq(v)
    assert (x + y).coords == tuple(a + b for a, b in zip(u, v))
    assert (x - y).coords == tuple(a - b for a, b in zip(u, v))
    assert x.scale(c).coords == tuple(c * a for a in u)
    assert (x - x).is_zero() and (x - x).entries == {}
    assert x.scale(0) == Element.zero(len(u))


def test_zero_holds_no_entries():
    zero = Element.zero(5)
    assert zero.entries == {} and zero.is_zero()
    assert zero.coords == (Fraction(0),) * 5
    assert Element.basis(5, 2).entries == {2: 1}
    assert Element((0, 0)).entries == {}
    assert Element.zero(0).coords == ()


def test_parity_reads_the_nonzeros():
    space = SuperSpace(2, 2)
    mixed = Element.from_seq([1, 0, 0, 3])
    assert mixed.parity_part(space, 0) == Element.basis(4, 0)
    assert mixed.parity_part(space, 1).entries == {3: 3}
    assert Element.basis(4, 3).homogeneous_parity(space) == 1
    assert Element.zero(4).homogeneous_parity(space) is None


def test_cached_jacobi_report_keeps_only_nonzeros():
    """The Jacobi report of m7 summed 30 times (dim 210) holds 5040
    witnesses, cached on the algebra.  With the kernel already built, what
    check_jacobi leaves allocated is under 1.6 MB (1.25 MB measured); with
    a dense tuple of 210 Fractions per witness value it was 3.83 MB."""
    a = _m7_sum(30)
    _scan_kernel(a)
    tracemalloc.start()
    try:
        report = check_jacobi(a)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.witnesses) == 5040
    assert report is check_jacobi(a)
    assert all(len(w.lhs.entries) <= 7 for w in report.witnesses)
    assert kept < 1.6e6


def test_empty_form_at_the_cap_keeps_sparse_witnesses():
    """parse_document + check_form on the 1024-dimensional document with no
    Gram entries peak below 1.5 MiB (0.73 MiB measured): each of the 1024
    kernel witnesses holds one nonzero, not a dense lhs (8.6 MiB)."""
    n = MAX_DIM
    text = canonical_json({"format_version": 1, "name": "empty",
                           "even_dim": n, "odd_dim": 0, "constants": [],
                           "gram": []})
    tracemalloc.start()
    try:
        q, _op, _gde = parse_document(text)
        report = check_form(q.algebra, q.form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    witnesses = report.nondegenerate.witnesses
    assert [w.lhs for w in witnesses] == [Element.basis(n, i)
                                          for i in range(n)]
    assert peak < 1.5 * 2 ** 20


# ---------------------------------------------------------------------------
# the int solves, against the dense routines

@st.composite
def even_forms(draw):
    """(space, Gram rows) of an even supersymmetric form: symmetric on the
    even block, antisymmetric on the odd one, often degenerate."""
    p, q = draw(st.integers(0, 3)), draw(st.sampled_from([0, 2, 4]))
    n = p + q
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i < p) != (j < p) or (i == j and i >= p):
                continue
            x = draw(entries)
            gram[i][j], gram[j][i] = x, x if i < p else -x
    return SuperSpace(p, q), gram


@settings(max_examples=150, deadline=None)
@given(even_forms(), st.data())
def test_operator_from_cocycle_matches_the_dense_inverse(drawn, data):
    space, gram = drawn
    n = space.dim
    q = QuadraticAlgebra(SuperAlgebra(space, {}), BilinearForm(gram),
                         validated=True)
    parity = data.draw(st.sampled_from([0, 1]))
    w = Cocycle([[data.draw(entries) if (i < space.even_dim)
                  ^ (j < space.even_dim) == parity else 0
                  for j in range(n)] for i in range(n)], parity)
    ginv = linalg.inverse([list(row) for row in gram])
    if ginv is None:
        with pytest.raises(PreconditionError, match="form is degenerate"):
            operator_from_cocycle(q, w)
        return
    ft = linalg.mat_mul([list(r) for r in w.values], ginv)
    assert operator_from_cocycle(q, w) == OperatorMap(linalg.transpose(ft),
                                                      parity)


@settings(max_examples=150, deadline=None)
@given(even_forms(), st.data())
def test_nondegenerate_on_matches_the_restricted_form(drawn, data):
    space, gram = drawn
    n = space.dim
    form = BilinearForm(gram)
    cols = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                              max_size=3))
    sub = GradedSubspace.from_vectors(space, cols)
    restricted = [[sum(x * gram[r][s] * y for r, x in enumerate(u)
                       for s, y in enumerate(v)) for v in sub.columns]
                  for u in sub.columns]
    want = linalg.det(restricted) != 0
    assert form._nondegenerate_on(sub) is want
    assert form._verdicts[sub.key] is want


def test_a_deficit_mod_p_falls_back_to_the_rank_over_q():
    """diag(p, 1) with p = 2^61 - 1 has rank 1 mod p and 2 over Q."""
    form = BilinearForm([[_CERT_PRIME, 0], [0, 1]])
    assert form._nondegenerate_on(GradedSubspace(SuperSpace(2, 0),
                                                 [[1, 0], [0, 1]]))
    assert form._nondegenerate_on(GradedSubspace(SuperSpace(2, 0), [[1, 0]]))
    assert not BilinearForm([[0, 0], [0, 1]])._nondegenerate_on(
        GradedSubspace(SuperSpace(2, 0), [[1, 0]]))
