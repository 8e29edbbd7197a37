"""The integer callers of `linalg.Span` against their Fraction bodies.

`ideal_closure`, `center`, the symmetric centroid and `change_basis` read
the algebra's int pair table (the constants times D, the lcm of their
denominators) and the form's int Gram, and feed the span int rows.  The
references below are their old bodies, on the Fraction pair table and Gram
and the Fraction span of `test_int_span`.  On algebras drawn by
`test_scan_kernel.graded_algebras` with numerators up to 10^12 over
denominators up to 7, each gives the same subspace with the same key, the
same centroid as a span, and the same constants or the same error.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (BilinearForm, GradedSubspace, QuadraticAlgebra,
                     change_basis, ideal_closure)
from qmalcev.core import EVEN, ODD, center
from qmalcev.quadratic import _symmetric_centroid

from references import _mul_vb, _mul_vv
from test_int_span import FractionSpan, ref_sparse_kernel
from test_packed_scan import BIG
from test_scan_kernel import graded_algebras
from test_sparse_subspace import outcome, ref_change_basis

ONE = Fraction(1)
algebras = graded_algebras(scalars=BIG)
nonzero = st.one_of(st.sampled_from((1, -1, 2, Fraction(1, 2),
                                     Fraction(-2, 3))), BIG)
values = st.one_of(st.just(0), st.just(0), nonzero)


# ---------------------------------------------------------------------------
# the Fraction bodies

def ref_closure(a, rows):
    """The old ideal_closure: b_j v and v b_j on the Fraction table."""
    span = FractionSpan(a.dim)
    work = [row for row in rows if span.add(row)]
    while work:
        v = work.pop()
        for j in range(a.dim):
            for prod in (_mul_vv(a, {j: ONE}, v), _mul_vb(a, v, j)):
                if span.add(prod):
                    work.append(prod)
    return span.rows()


def ref_center(a):
    """The old center: one kernel of the Fraction constants."""
    rows = {}
    for (j, i, k), c in a.constants.items():
        rows.setdefault((j, k), {})[i] = c
    span = FractionSpan(a.dim)
    for v in ref_sparse_kernel(list(rows.values()), a.dim):
        span.add(v)
    return span.rows()


def ref_centroid(q):
    """The old _symmetric_centroid, on the Fraction table and Gram."""
    n = q.dim
    par = [q.space.parity(i) for i in range(n)]
    cells = [(r, c) for r in range(n) for c in range(n) if par[r] == par[c]]
    unknown = {cell: u for u, cell in enumerate(cells)}
    same = [[r for r in range(n) if par[r] == x] for x in (EVEN, ODD)]
    pairs = q.algebra.pair_table()
    right = {}
    for (m, j), vec in pairs.items():
        right.setdefault(j, []).append((m, vec))
    rows = []
    for i in range(n):
        for j in range(n):
            eqs = {}
            for k, c in pairs.get((i, j), {}).items():
                for r in same[par[k]]:
                    row = eqs.setdefault(r, {})
                    u = unknown[(r, k)]
                    row[u] = row.get(u, 0) + c
            for m, vec in right.get(j, ()):
                if par[m] == par[i]:
                    u = unknown[(m, i)]
                    for r, c in vec.items():
                        row = eqs.setdefault(r, {})
                        row[u] = row.get(u, 0) - c
            rows.extend(eqs.values())
    grows, gcols = q.form.rows, q.form.cols
    for i in range(n):
        for j in same[par[i]]:
            row = {}
            for r, g in gcols.get(j, {}).items():
                row[unknown[(r, i)]] = row.get(unknown[(r, i)], 0) + g
            for r, g in grows.get(i, {}).items():
                row[unknown[(r, j)]] = row.get(unknown[(r, j)], 0) - g
            rows.append(row)
    return [{n * cells[u][0] + cells[u][1]: x for u, x in vec.items()}
            for vec in ref_sparse_kernel(rows, len(cells))]


def echelon(vectors, n):
    span = FractionSpan(n)
    for v in vectors:
        span.add(v)
    return span.rows()


# ---------------------------------------------------------------------------
# strategies

@st.composite
def homogeneous(draw, space):
    """A nonzero-or-zero vector with the support of one parity."""
    idx = draw(st.sampled_from([r for r in (space.even_indices(),
                                            space.odd_indices()) if r]))
    return {i: x for i in idx if (x := draw(values))}


@st.composite
def forms(draw, space):
    """An even supersymmetric Gram: a symmetric even block and a skew odd
    block with drawn entries, degenerate now and then."""
    n, p = space.dim, space.even_dim
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i < p) != (j < p) or (i == j and i >= p):
                continue
            x = Fraction(draw(values))
            gram[i][j] = x
            gram[j][i] = x if i < p else -x
    return BilinearForm(gram)


@st.composite
def bases(draw, space):
    """Graded columns, even ones first, each block the identity plus drawn
    entries and a drawn nonzero diagonal; lists or dicts."""
    cols = []
    for block in (space.even_indices(), space.odd_indices()):
        for j in block:
            col = [0] * space.dim
            for i in block:
                col[i] = draw(nonzero if i == j else values)
            cols.append(col if draw(st.booleans())
                        else {i: x for i, x in enumerate(col) if x})
    return cols


def dense(v, n):
    return [v.get(i, 0) for i in range(n)] if isinstance(v, dict) else v


# ---------------------------------------------------------------------------
# the integer callers against the Fraction bodies

@settings(max_examples=150, deadline=None)
@given(algebras, st.data())
def test_ideal_closure_matches_the_fraction_closure(a, data):
    seeds = data.draw(st.lists(homogeneous(a.space), min_size=1,
                               max_size=2))
    seed = GradedSubspace(a.space, seeds)
    closed = ideal_closure(a, seed)
    want = ref_closure(a, seed.rows)
    assert closed.rows == want
    assert closed.key == GradedSubspace(a.space, want).key
    assert ideal_closure(a, GradedSubspace(a.space, want)) is closed


@settings(max_examples=150, deadline=None)
@given(algebras)
def test_center_matches_the_fraction_center(a):
    z = center(a)
    want = ref_center(a)
    assert z.rows == want
    assert z.key == GradedSubspace(a.space, want).key


@settings(max_examples=100, deadline=None)
@given(algebras.filter(lambda a: a.dim <= 4), st.data())
def test_symmetric_centroid_matches_the_fraction_centroid(a, data):
    q = QuadraticAlgebra(a, data.draw(forms(a.space)), validated=True)
    maps = _symmetric_centroid(q)
    assert all(type(x) is int for m in maps for x in m.values())
    want = ref_centroid(q)
    assert len(maps) == len(want)
    assert echelon(maps, q.dim ** 2) == echelon(want, q.dim ** 2)


@settings(max_examples=150, deadline=None)
@given(algebras, st.data())
def test_change_basis_on_full_bases_matches(a, data):
    cols = data.draw(bases(a.space))
    twist = data.draw(st.integers(0, 5))
    if twist == 0:
        cols = data.draw(st.permutations(cols))  # odd first, now and then
    elif twist == 1:
        cols[-1] = cols[0]  # dependent: InputError
    elif twist == 2:
        cols = cols + cols[:1]  # too many: InputError
    want = outcome(ref_change_basis, a, [dense(c, a.dim) for c in cols])
    assert outcome(change_basis, a, cols) == want


@settings(max_examples=150, deadline=None)
@given(algebras, st.data())
def test_change_basis_on_partial_bases_matches(a, data):
    n = a.dim
    if data.draw(st.booleans()):
        # a basis of a closure: closed, so the algebra on it
        seeds = data.draw(st.lists(homogeneous(a.space), min_size=1,
                                   max_size=2))
        rows = ref_closure(a, seeds)
        p = a.space.even_dim
        cols = []
        for part in ([r for r in rows if min(r) < p],
                     [r for r in rows if min(r) >= p]):
            # unitriangular per parity: the same subspace
            for i, row in enumerate(part):
                col = dict(row)
                for later in part[i + 1:]:
                    t = data.draw(values)
                    for r, x in later.items():
                        col[r] = col.get(r, 0) + t * x
                cols.append(col)
    else:
        # some columns of a graded basis: mostly not closed,
        # PreconditionError
        cols = data.draw(bases(a.space))
        p = a.space.even_dim
        ke, ko = data.draw(st.integers(0, p)), data.draw(st.integers(0, n - p))
        cols = cols[:ke] + cols[p:p + ko]
    want = outcome(ref_change_basis, a, [dense(c, n) for c in cols])
    assert outcome(change_basis, a, cols) == want
