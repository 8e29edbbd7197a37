"""Odd double extensions are certified by their data, checked on ints.

generalized_double_extension returns its output validated without a scan:
data that verify_gde_data accepts give a quadratic Malcev superalgebra by
construction.  The first test keeps that scan, as a property of every
extension built from accepted data.  The other two compare
verify_gde_data's four per-pair conditions, now evaluated on ints, with the
Fraction evaluation they replaced, kept below as the reference: on
perturbed accepted data, and on random graded algebras.
"""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from qmalcev import (EVEN, ODD, Element, GdeData, OperatorMap,
                     QuadraticAlgebra, catalog_get, direct_sum_quadratic,
                     gde_abelian12_parts, generalized_double_extension,
                     reduce_odd, verify_gde_data)
from qmalcev.core import Witness, _vadd, _vscale, center, ksign
from qmalcev.errors import PreconditionError
from qmalcev.extensions import _gde_conditions
from qmalcev.linalg import frac

from references import _mul_vb, _mul_vv
from test_random_roundtrips import _combine, _skew_operator_basis
from test_scan_kernel import graded_algebras


# ---------------------------------------------------------------------------
# the Fraction evaluation of the four conditions, as a reference

def reference_conditions(a, d, a0):
    """(square, action, outer, inner) witness lists, each condition
    evaluated on every basis vector or pair in Fractions."""
    n = a.dim
    par = [a.space.parity(i) for i in range(n)]
    a0 = a0.entries
    da0 = d.apply_vec(a0)
    d2a0 = d.apply_vec(da0)
    half_sq = _vscale(_mul_vv(a, a0, a0), Fraction(1, 2))
    sq_wit = []
    if d2a0 != half_sq:
        sq_wit.append(Witness(("a0",), Element.sparse(n, d2a0),
                              Element.sparse(n, half_sq)))

    act_wit = []
    for i in range(n):
        lhs = d.apply_vec(_mul_vb(a, a0, i))
        rhs = _mul_vv(a, a0, d.column(i))
        _vadd(rhs, _mul_vb(a, da0, i), frac(-1))
        if lhs != rhs:
            act_wit.append(Witness((i,), Element.sparse(n, lhs),
                                   Element.sparse(n, rhs)))

    outer_wit = []
    inner_wit = []
    for i in range(n):
        di = d.column(i)
        d2i = d.apply_vec(di)
        for j in range(n):
            dj = d.column(j)
            d2j = d.apply_vec(dj)
            x, y = par[i], par[j]
            lhs = _mul_vb(a, _mul_vb(a, a0, i), j)
            rhs = d.apply_vec(_mul_vb(a, di, j))
            _vadd(rhs, d.apply_vec(d.apply_vec(a.basis_product(i, j))))
            _vadd(rhs, _mul_vv(a, di, dj), frac(ksign(x)))
            _vadd(rhs, _mul_vb(a, d2j, i), frac(ksign(x * y)))
            if lhs != rhs:
                outer_wit.append(Witness((i, j), Element.sparse(n, lhs),
                                         Element.sparse(n, rhs)))
            lhs2 = _mul_vv(a, a0, a.basis_product(i, j))
            rhs2 = d.apply_vec(_mul_vb(a, di, j))
            _vadd(rhs2, _mul_vb(a, d2i, j))
            _vadd(rhs2, _mul_vb(a, d2j, i), frac(-ksign(x * y)))
            _vadd(rhs2, d.apply_vec(_mul_vb(a, dj, i)), frac(-ksign(x * y)))
            if lhs2 != rhs2:
                inner_wit.append(Witness((i, j), Element.sparse(n, lhs2),
                                         Element.sparse(n, rhs2)))
    return sq_wit, act_wit, outer_wit, inner_wit


# ---------------------------------------------------------------------------
# accepted data: reductions of catalog algebras and random abelian data

def _entry(name, **params):
    return catalog_get(name, **params).algebra


def _chain(q):
    """(base, gde) of each odd reduction of q, down to a base with no
    central odd vector."""
    out = []
    while q.dim > 1 and center(q.algebra).odd_rows():
        red = reduce_odd(q)
        out.append((red.n, red.gde))
        q = red.n
    return out


@functools.lru_cache(maxsize=None)
def accepted_pool():
    starts = [_entry("example_gde", n=n, m=m)
              for n, m in ((1, (1,)), (1, (2,)), (2, (1, 1)), (2, (1, 2)),
                           (3, (1, 2, 2)))]
    starts += [_entry("gde_abelian12"),
               direct_sum_quadratic(_entry("example_gde", n=1, m=(1,)),
                                    _entry("sl2")),
               direct_sum_quadratic(_entry("gde_abelian12"),
                                    _entry("abelian", p=1, q=2))]
    pool = [gde_abelian12_parts()]
    for q in starts:
        pool.extend(_chain(q))
    return tuple(pool)


@functools.lru_cache(maxsize=None)
def _abelian_base(p, q):
    base = _entry("abelian", p=p, q=q)
    return base, tuple(_skew_operator_basis(base, ODD))


small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2]))


@st.composite
def pool_data(draw):
    """Accepted data, with d scaled by t and a0 by t^2, which keeps every
    condition (each is homogeneous in (d, a0) of weights (1, 2))."""
    q, g = draw(st.sampled_from(accepted_pool()))
    t = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                              Fraction(1, 3)]))
    d = OperatorMap([[t * x for x in row] for row in g.d.matrix], ODD)
    return q, GdeData(d, g.a0.scale(t * t))


@st.composite
def abelian_data(draw):
    """A random skew odd d and a random even a0 on abelian(p, q); the data
    are admissible exactly when d^2(a0) = 0."""
    p, q = draw(st.sampled_from([(1, 2), (2, 2), (0, 4), (3, 2), (1, 4)]))
    base, basis = _abelian_base(p, q)
    ws = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
    d = _combine(basis, ws, base.dim, ODD)
    a0 = [draw(small) if i < p else 0 for i in range(p + q)]
    return base, GdeData(d, Element(a0))


@settings(max_examples=80, deadline=None)
@given(st.one_of(pool_data(), abelian_data()))
def test_extension_by_accepted_data_passes_the_scan(data):
    q, g = data
    if not verify_gde_data(q, g).passed:
        with pytest.raises(PreconditionError):
            generalized_double_extension(q, g)
        return
    out, _w = generalized_double_extension(q, g)
    assert out.validated
    scanned = QuadraticAlgebra.validate(out.algebra, out.form)
    assert scanned == out


# ---------------------------------------------------------------------------
# the integer conditions against the reference

def _perturbed(draw, q, g):
    """g.d plus a few odd entries and g.a0 plus a few even coordinates."""
    n = q.dim
    par = [q.space.parity(i) for i in range(n)]
    m = [list(row) for row in g.d.matrix]
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if par[r] != par[c]:
            m[r][c] += draw(small)
    a0 = [g.a0.entries.get(i, Fraction(0)) for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        if par[i] == EVEN:
            a0[i] += draw(small)
    return OperatorMap(m, ODD), Element(a0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_conditions_match_the_fraction_reference(data):
    q, g = data.draw(st.one_of(pool_data(), abelian_data()))
    d, a0 = _perturbed(data.draw, q, g)
    report = verify_gde_data(q, GdeData(d, a0))
    got = (report.square, report.compat_action, report.compat_outer,
           report.compat_inner)
    want = reference_conditions(q.algebra, d, a0)
    for rep, wit in zip(got, want):
        assert rep.passed == (not wit)
        assert list(rep.witnesses) == wit


@settings(max_examples=80, deadline=None)
@given(graded_algebras(), st.data())
def test_integer_conditions_on_any_graded_algebra(a, data):
    """On an algebra that need not be anticommutative, a0 a0 need not
    vanish, so the square rule's 1/2 is exercised too."""
    n = a.dim
    par = [a.space.parity(i) for i in range(n)]
    d = OperatorMap([[data.draw(small) if par[r] != par[c] else 0
                      for c in range(n)] for r in range(n)], ODD)
    a0 = Element([data.draw(small) if par[i] == EVEN else 0
                           for i in range(n)])
    got = _gde_conditions(a, d, a0)
    assert ([list(rep.witnesses) for rep in got]
            == list(reference_conditions(a, d, a0)))
