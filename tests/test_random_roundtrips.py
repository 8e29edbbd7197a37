"""Property tests: extension/reduction round trips on generated data.

On an abelian base every candidate operator satisfies the five-term
identity vacuously, so admissibility reduces to skewness plus
d^2(a0) = 0; that gives a large exactly-parametrized family of valid
extension data to drive the round-trip machinery through inputs the
catalog does not contain.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (Element, EVEN, ODD, OperatorMap, catalog_get,
                     change_basis_quadratic, check_skew_supersymmetric,
                     double_extension_even, generalized_double_extension,
                     reduce_odd, verified_gde_data)
from qmalcev import linalg
from qmalcev.quadratic import _split
from qmalcev.decompose import reduce_even

coeffs = st.lists(st.builds(Fraction,
                            st.integers(min_value=-3, max_value=3),
                            st.integers(min_value=1, max_value=2)),
                  min_size=4, max_size=4)


def _skew_operator_basis(q, parity):
    """Exact basis of the homogeneous skew-supersymmetric operators."""
    n = q.dim
    space = q.space
    slots = [(r, c) for c in range(n) for r in range(n)
             if (space.parity(c) + parity) % 2 == space.parity(r)]
    rows = []
    g = q.form.matrix()
    for i in range(n):
        sgn = -1 if (parity * space.parity(i)) % 2 else 1
        for j in range(n):
            # B(f(b_i), b_j) + (-1)^{alpha x} B(b_i, f(b_j)) = 0
            row = []
            for (r, c) in slots:
                val = Fraction(0)
                if c == i:
                    val += g[r][j]
                if c == j:
                    val += sgn * g[i][r]
                row.append(val)
            rows.append(row)
    basis = []
    for vec in linalg.kernel(rows, cols=len(slots)):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (r, c), v in zip(slots, vec):
            m[r][c] = v
        basis.append(OperatorMap(m, parity))
    return basis


def _combine(basis, weights, n, parity):
    m = [[Fraction(0)] * n for _ in range(n)]
    for op, w in zip(basis, weights):
        for r in range(n):
            for c in range(n):
                m[r][c] += w * op.matrix[r][c]
    return OperatorMap(m, parity)


ABELIAN = catalog_get("abelian", p=2, q=2).algebra
ODD_BASIS = _skew_operator_basis(ABELIAN, ODD)


@settings(max_examples=40, deadline=None)
@given(coeffs)
def test_random_odd_extension_reduction_round_trip(ws):
    q = ABELIAN
    d = _combine(ODD_BASIS, ws * (len(ODD_BASIS) // 4 + 1), q.dim, ODD)
    assert check_skew_supersymmetric(q.form, d, q.space).passed
    # a0 even with d^2(a0) = 0: solve exactly, fall back to zero
    d2 = [row[:] for row in linalg.mat_mul(
        [list(r) for r in d.matrix], [list(r) for r in d.matrix])]
    a0 = Element.zero(q.dim)
    for v in linalg.kernel(d2, cols=q.dim):
        cand = Element.from_seq(v).parity_part(q.space, EVEN)
        if not cand.is_zero() and all(
                sum(x * y for x, y in zip(row, cand.coords)) == 0
                for row in d2):
            a0 = cand
            break
    gde = verified_gde_data(q, d, a0)
    ext, _ = generalized_double_extension(q, gde)
    red = reduce_odd(ext)
    assert red.n.dim == q.dim
    back, _ = generalized_double_extension(red.n, red.gde)
    adapted = change_basis_quadratic(ext, [list(c) for c in red.basis])
    assert back.algebra.constants == adapted.algebra.constants
    assert back.form == adapted.form


EVEN_BASE = catalog_get("abelian", p=3, q=0).algebra
EVEN_BASIS = _skew_operator_basis(EVEN_BASE, EVEN)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(Fraction,
                          st.integers(min_value=-3, max_value=3),
                          st.integers(min_value=1, max_value=2)),
                min_size=3, max_size=3))
def test_random_even_extension_validates_and_reduces(ws):
    q = EVEN_BASE
    d = _combine(EVEN_BASIS, ws, q.dim, EVEN)
    ext, wit = double_extension_even(q, d)
    assert ext.validated
    assert ext.dim == q.dim + 2
    if _split(ext)[0] is None:
        red = reduce_even(ext)
        back, _ = double_extension_even(red.n, red.operator)
        adapted = change_basis_quadratic(ext, [list(c) for c in red.basis])
        assert back.algebra.constants == adapted.algebra.constants
        assert back.form == adapted.form
