from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import linalg

rationals = st.builds(Fraction,
                      st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def row_span(m, cols):
    span = linalg.Span(cols)
    for row in m:
        span.add(row)
    return span


def test_rref_identity():
    span = row_span(identity(3), 3)
    assert span.vectors() == identity(3)
    assert span.pivot_columns() == [0, 1, 2]


def test_kernel_of_zero_map():
    z = [[Fraction(0)] * 3 for _ in range(2)]
    basis = linalg.kernel(z)
    assert len(basis) == 3


def test_kernel_of_empty_matrix():
    assert len(linalg.kernel([], cols=4)) == 4


def test_solve_simple():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = linalg.solve(a, b)
    assert mat_vec(a, x) == b


def test_solve_inconsistent():
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert linalg.solve(a, [Fraction(0), Fraction(1)]) is None


def test_det_empty_is_one():
    assert linalg.det([]) == 1


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_rank_matches_kernel(m):
    r = row_span(m, 3).dim
    assert r + len(linalg.kernel(m)) == 3


@settings(max_examples=60, deadline=None)
@given(square_matrices(3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_recovers_consistent_rhs(m, x):
    b = mat_vec(m, x)
    sol = linalg.solve(m, b)
    assert sol is not None
    assert mat_vec(m, sol) == b


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_inverse_round_trip(m):
    inv = linalg.inverse(m)
    if linalg.det(m) == 0:
        assert inv is None
    else:
        assert linalg.mat_mul(inv, m) == identity(3)
        assert linalg.mat_mul(m, inv) == identity(3)


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_kernel_vectors_annihilate(m):
    for v in linalg.kernel(m):
        assert linalg.is_zero_vec(mat_vec(m, v))


def test_span_incremental():
    span = linalg.Span(3)
    assert span.add([Fraction(1), Fraction(1), Fraction(0)])
    assert span.add([Fraction(0), Fraction(1), Fraction(0)])
    assert not span.add([Fraction(2), Fraction(5), Fraction(0)])
    assert span.dim == 2
    assert span.contains([Fraction(-1), Fraction(7), Fraction(0)])
    assert not span.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_column_echelon_deterministic():
    v1 = [Fraction(0), Fraction(2), Fraction(0)]
    v2 = [Fraction(0), Fraction(2), Fraction(4)]
    cols = row_span([v2, v1], 3).vectors()
    # pivots normalized and ordered by first coordinate
    assert cols[0][1] == 1 and cols[0][2] == 0
    assert cols[1][1] == 0 and cols[1][2] == 1


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        linalg.frac(0.5)


# ---------------------------------------------------------------------------
# the sparse eliminator against a dense Fraction reference

def ref_rref(m):
    """Dense Gauss-Jordan elimination, column by column."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_rank(m):
    return len(ref_rref(m)[1])


def ref_det(m):
    """Dense elimination to upper triangular form, one sign per swap."""
    n = len(m)
    m = [row[:] for row in m]
    d = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def ref_kernel(m, n):
    red, pivots = ref_rref(m)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc]
            basis.append(v)
    return basis


def ref_solve(m, b):
    n = len(m[0])
    red, pivots = ref_rref([row + [x] for row, x in zip(m, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def ref_inverse(m):
    n = len(m)
    red, pivots = ref_rref([row + linalg.basis_vector(n, i)
                            for i, row in enumerate(m)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


# mixed denominators, and zeros often enough for zero rows, zero columns
# and pivot rows out of order
sparse_rationals = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.sampled_from([1, 2, 3, 5, 6, 7])))


@st.composite
def rectangular(draw, square=False):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = rows if square else draw(st.integers(min_value=1, max_value=6))
    m = draw(st.lists(st.lists(sparse_rationals, min_size=cols,
                               max_size=cols),
                      min_size=rows, max_size=rows))
    for i in draw(st.lists(st.integers(min_value=0, max_value=4),
                           max_size=2)):
        if i < rows:
            m[i] = [Fraction(0)] * cols
    return m


@settings(max_examples=200, deadline=None)
@given(rectangular(), st.data())
def test_eliminator_matches_dense_reference(m, data):
    cols = len(m[0]) if m else 0
    red, pivots = ref_rref(m)
    span = row_span(m, cols)
    assert span.vectors() == red[:len(pivots)]
    assert span.pivot_columns() == pivots
    assert linalg.kernel(m, cols=cols) == ref_kernel(m, cols)
    if m:
        b = data.draw(st.lists(sparse_rationals, min_size=len(m),
                               max_size=len(m)))
        assert linalg.solve(m, b) == ref_solve(m, b)


@settings(max_examples=200, deadline=None)
@given(rectangular(square=True))
def test_square_eliminator_matches_dense_reference(m):
    assert linalg.det(m) == ref_det(m)
    assert linalg.inverse(m) == ref_inverse(m)


@pytest.mark.parametrize("m,d", [
    ([[0, 1], [1, 0]], -1),
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1),
    ([[0, 2, 0], [3, 0, 0], [0, 0, 5]], -30),
    ([[1, 2], [2, 4]], 0),
])
def test_det_pivot_permutation_sign(m, d):
    m = [[Fraction(x) for x in row] for row in m]
    assert linalg.det(m) == ref_det(m) == d


def rank_mod_p(m, p):
    span = linalg.Span(len(m[0]) if m else 0, p)
    for row in m:
        span.add(row)
    return span.dim


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=4, max_size=4), max_size=5))
def test_rank_mod_p_never_exceeds_rank_over_q(m):
    assert rank_mod_p(m, CERT_PRIME) <= ref_rank(m)
    assert rank_mod_p(m, 5) <= ref_rank(m)


CERT_PRIME = (1 << 61) - 1


@pytest.mark.parametrize("m,over_q,mod_p", [
    # an entry equal to p vanishes mod p
    ([[CERT_PRIME]], 1, 0),
    ([[1, 2], [0, CERT_PRIME]], 2, 1),
    # the rows agree only after reduction: 2 * 3^-1 mod p is not 2/3
    ([[3, 1], [2, 2 * pow(3, -1, CERT_PRIME) % CERT_PRIME]], 2, 1),
    # the pivot 2 is inverted mod p, not over Q
    ([[2, 1, 0], [1, (CERT_PRIME + 1) // 2, 1], [0, 0, 1]], 3, 2),
])
def test_mod_p_rank_drops_where_p_divides_a_minor(m, over_q, mod_p):
    assert ref_rank(m) == over_q
    assert rank_mod_p(m, CERT_PRIME) == mod_p


def test_span_reports_pivots_and_reduces():
    span = linalg.Span(3)
    assert span.add([Fraction(0), Fraction(2), Fraction(4)]) == (1, 2)
    assert span.add([Fraction(3), Fraction(0), Fraction(1)]) == (0, 3)
    assert span.pivot_columns() == [0, 1]
    v = [Fraction(1), Fraction(1), Fraction(0)]
    rest = span.reduce(v)
    assert rest.keys() <= {2}
    # v = v[0] row_0 + v[1] row_1 + rest
    rows = span.vectors()
    assert [v[0] * x + v[1] * y + rest.get(i, 0)
            for i, (x, y) in enumerate(zip(*rows))] == v
