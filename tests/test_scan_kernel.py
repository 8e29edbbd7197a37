"""The integer scan kernel against a dense Fraction reference.

The reference evaluates every basis tuple through `core.product`, with no
pruning and no cleared denominators, so it shares no code with the kernel
beyond the structure constants themselves.
"""

from fractions import Fraction
from itertools import product as tuples

from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (EVEN, ODD, Cocycle, Element, SuperAlgebra, SuperSpace,
                     Witness, check_cocycle, check_jacobi, check_malcev,
                     product)
from qmalcev.core import ksign

SCALARS = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                    st.integers(1, 6))


@st.composite
def graded_algebras(draw):
    """Random graded algebras of dimension <= 5 with mixed denominators;
    anticommutative or not."""
    p = draw(st.integers(0, 4))
    q = draw(st.integers(0 if p else 1, 5 - p))
    space = SuperSpace(p, q)
    n = space.dim
    par = [space.parity(i) for i in range(n)]
    anti = draw(st.booleans())
    constants = {}
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        ks = [k for k in range(n) if par[k] == (par[i] + par[j]) % 2]
        if not ks:
            continue
        k = draw(st.sampled_from(ks))
        c = draw(SCALARS)
        constants[(i, j, k)] = c
        if anti:
            sign = -ksign(par[i] * par[j])
            if i == j and sign == -1:
                del constants[(i, j, k)]
            else:
                constants[(j, i, k)] = sign * c
    return SuperAlgebra(space, constants)


def basis(n):
    return [Element.basis(n, i) for i in range(n)]


def malcev_reference(a):
    n, par, b = a.dim, [a.space.parity(i) for i in range(a.dim)], basis(a.dim)

    def mul(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = product(a, acc, x)
        return acc

    out = []
    for i, j, k, l in tuples(range(n), repeat=4):
        x, y, z, t = par[i], par[j], par[k], par[l]
        lhs = product(a, mul(b[i], b[k]), mul(b[j], b[l])).scale(
            ksign(y * z))
        rhs = (mul(b[i], b[j], b[k], b[l])
               + mul(b[j], b[k], b[l], b[i]).scale(ksign(x * (y + z + t)))
               + mul(b[k], b[l], b[i], b[j]).scale(ksign((x + y) * (z + t)))
               + mul(b[l], b[i], b[j], b[k]).scale(ksign(t * (x + y + z))))
        if lhs != rhs:
            out.append(Witness((i, j, k, l), lhs, rhs))
    return out


def jacobi_reference(a):
    n, par, b = a.dim, [a.space.parity(i) for i in range(a.dim)], basis(a.dim)
    out = []
    for i, j, k in tuples(range(n), repeat=3):
        x, y, z = par[i], par[j], par[k]
        acc = (product(a, product(a, b[i], b[j]), b[k]).scale(ksign(x * z))
               + product(a, product(a, b[j], b[k]), b[i]).scale(ksign(y * x))
               + product(a, product(a, b[k], b[i]), b[j]).scale(ksign(z * y)))
        if not acc.is_zero():
            out.append(Witness((i, j, k), acc, Element.zero(n)))
    return out


def cocycle_reference(a, w):
    n, par, b = a.dim, [a.space.parity(i) for i in range(a.dim)], basis(a.dim)

    def mul3(u, v, s):
        return product(a, product(a, u, v), s)

    out = list(w.graded_skew_report(a.space).witnesses)
    for i, j, k, l in tuples(range(n), repeat=4):
        x, y, z, t = par[i], par[j], par[k], par[l]
        lhs = ksign(y * z) * w.value(product(a, b[i], b[k]),
                                     product(a, b[j], b[l]))
        rhs = (w.value(mul3(b[i], b[j], b[k]), b[l])
               + ksign(x * (y + z + t)) * w.value(mul3(b[j], b[k], b[l]), b[i])
               + ksign((x + y) * (z + t)) * w.value(mul3(b[k], b[l], b[i]),
                                                    b[j])
               + ksign(t * (x + y + z)) * w.value(mul3(b[l], b[i], b[j]),
                                                  b[k]))
        if lhs != rhs:
            out.append(Witness((i, j, k, l), lhs, rhs))
    return out


@st.composite
def algebras_with_cocycles(draw):
    a = draw(graded_algebras())
    n = a.dim
    parity = draw(st.sampled_from((EVEN, ODD)))
    vals = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ok = (a.space.parity(i) + a.space.parity(j)) % 2 == parity
            if ok and draw(st.booleans()):
                vals[i][j] = draw(SCALARS)
    return a, Cocycle(vals, parity)


@settings(max_examples=60, deadline=None)
@given(graded_algebras())
def test_malcev_kernel_matches_dense_reference(a):
    rep = check_malcev(a)
    assert list(rep.witnesses) == malcev_reference(a)
    assert rep.passed == (not rep.witnesses)


@settings(max_examples=60, deadline=None)
@given(graded_algebras())
def test_jacobi_kernel_matches_dense_reference(a):
    rep = check_jacobi(a)
    assert list(rep.witnesses) == jacobi_reference(a)


@settings(max_examples=40, deadline=None)
@given(algebras_with_cocycles())
def test_cocycle_kernel_matches_dense_reference(pair):
    a, w = pair
    rep = check_cocycle(a, w)
    assert list(rep.witnesses) == cocycle_reference(a, w)
