"""The fraction-free `linalg.Span` over Q against the Fraction `Span` it
replaced.

The reference below is the old eliminator, kept as it was: rows of
Fractions in reduced echelon form, 1 at each pivot, each vector reduced by
v[c] times the row of pivot c.  The integer span keeps each row as a
primitive int multiple of the same echelon row, so on drawn matrices and
vectors, dense lists and sparse dicts, with entries in {0, +-1, 2, 1/2,
-2/3} and numerators up to 10^12 over denominators up to 7, both give the
same rows, pivots, reductions, memberships and `add` values, and the
routines built on them the same determinants, kernels, solutions and
inverses.  After each `add`, every stored row is checked to be primitive,
positive at its pivot and 0 at every other pivot.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import linalg

ZERO, ONE = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# the Fraction eliminator that the integer one replaced

def ref_sparse(v):
    items = v.items() if isinstance(v, dict) else enumerate(v)
    return {c: x for c, x in items if x}


def ref_subtract(v, f, row):
    for c, y in row.items():
        x = v.get(c, 0) - f * y
        if x:
            v[c] = x
        else:
            v.pop(c, None)


class FractionSpan:
    """The old `Span` at p = 0: reduced rows of Fractions, 1 at each
    pivot."""

    def __init__(self, n):
        self.n = n
        self._rows = {}

    def reduce(self, v):
        v = ref_sparse(v)
        for c in [c for c in v if c in self._rows]:
            ref_subtract(v, v[c], self._rows[c])
        return v

    def add(self, v):
        v = self.reduce(v)
        if not v:
            return None
        lead = min(v)
        x = v[lead]
        inv = ONE / x
        v = {c: y * inv for c, y in v.items()}
        for row in self._rows.values():
            f = row.get(lead)
            if f:
                ref_subtract(row, f, v)
        self._rows[lead] = v
        return lead, x

    def contains(self, v):
        return not self.reduce(v)

    @property
    def dim(self):
        return len(self._rows)

    def pivot_columns(self):
        return sorted(self._rows)

    def rows(self):
        return [self._rows[c] for c in self.pivot_columns()]

    def vectors(self):
        return [[self._rows[c].get(i, ZERO) for i in range(self.n)]
                for c in self.pivot_columns()]


def ref_span(m, cols):
    span = FractionSpan(cols)
    for row in m:
        span.add(row)
    return span


def ref_sparse_kernel(m, cols):
    rows = ref_span(m, cols)._rows
    basis = {f: {f: ONE} for f in range(cols) if f not in rows}
    for pc, row in rows.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def ref_solve(m, b):
    if not m:
        return [] if not any(b) else None
    n = len(m[0])
    rows = ref_span([list(r) + [x] for r, x in zip(m, b)], n + 1)._rows
    if n in rows:
        return None
    x = [ZERO] * n
    for pc, row in rows.items():
        x[pc] = row.get(n, ZERO)
    return x


def ref_inverse(m):
    n = len(m)
    span = ref_span([list(r) + [ONE if j == i else ZERO for j in range(n)]
                     for i, r in enumerate(m)], 2 * n)
    if span.pivot_columns() != list(range(n)):
        return None
    return [row[n:] for row in span.vectors()]


def ref_det(m):
    span = FractionSpan(len(m))
    d = ONE
    leads = []
    for row in m:
        pivot = span.add(row)
        if pivot is None:
            return ZERO
        leads.append(pivot[0])
        d *= pivot[1]
    inversions = sum(1 for i, x in enumerate(leads) for y in leads[i + 1:]
                     if x > y)
    return -d if inversions & 1 else d


# ---------------------------------------------------------------------------
# strategies

SMALL = (0, 0, 0, 1, -1, 2, Fraction(1), Fraction(-1), Fraction(2),
         Fraction(1, 2), Fraction(-2, 3))
entries = st.one_of(
    st.sampled_from(SMALL), st.sampled_from(SMALL),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 7)))


@st.composite
def vectors(draw, n):
    """A vector of length n, a dense list or a sparse dict with its keys
    in a drawn order (zeros kept now and then)."""
    v = draw(st.lists(entries, min_size=n, max_size=n))
    if draw(st.booleans()):
        return v
    keep_zeros = draw(st.booleans())
    return dict(draw(st.permutations([(i, x) for i, x in enumerate(v)
                                      if x or keep_zeros])))


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(1, 7))
    m = draw(st.lists(vectors(cols), min_size=rows, max_size=rows))
    # repeated and dependent rows now and then
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        t = draw(st.sampled_from(SMALL))
        m[i] = {c: t * x for c, x in ref_sparse(m[j]).items()}
    return cols, m


def dense(v, n):
    return [v.get(i, 0) for i in range(n)] if isinstance(v, dict) else v


def assert_invariant(span):
    """Every stored row is a primitive int row, positive at its pivot, its
    first column, and 0 at every other pivot."""
    pivots = span.pivot_columns()
    for c, row in zip(pivots, span.int_rows()):
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == c and row[c] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(row.get(other) for other in pivots if other != c)


# ---------------------------------------------------------------------------
# the integer span against the Fraction one

@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_span_matches_the_fraction_span(shape, data):
    cols, m = shape
    span, ref = linalg.Span(cols), FractionSpan(cols)
    for row in m:
        assert span.add(row) == ref.add(row)
        assert_invariant(span)
        assert span.rows() == ref.rows()
        assert span.pivot_columns() == ref.pivot_columns()
    assert span.vectors() == ref.vectors()
    for v in data.draw(st.lists(vectors(cols), max_size=3)) + m:
        assert span.reduce(v) == ref.reduce(v)
        assert span.contains(v) == ref.contains(v)
        s, w = span.int_reduce(v)
        assert s > 0 and {c: Fraction(x, s) for c, x in w.items()} == (
            ref.reduce(v))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_routines_match_the_fraction_span(shape, data):
    cols, m = shape
    assert linalg.sparse_kernel(m, cols) == ref_sparse_kernel(m, cols)
    ints = linalg.int_kernel(m, cols)
    assert len(ints) == len(ref_sparse_kernel(m, cols))
    for v, ref in zip(ints, ref_sparse_kernel(m, cols)):
        assert all(type(x) is int for x in v.values())
        f = min(set(v) - set(ref_span(m, cols)._rows))  # its free column
        assert {c: Fraction(x, v[f]) for c, x in v.items()} == ref
    if m:
        dm = [dense(row, cols) for row in m]
        b = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
        assert linalg.solve(dm, b) == ref_solve(dm, b)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_square_routines_match_the_fraction_span(shape):
    n, m = shape
    dm = [dense(row, n) for row in m]
    assert linalg.det(dm) == ref_det(dm)
    assert linalg.inverse(dm) == ref_inverse(dm)


# ---------------------------------------------------------------------------
# the integer steps

def test_a_pivot_that_divides_the_entry_does_not_scale():
    """v <- d v - x r with d and x divided by their gcd: a pivot value
    that divides v's entry leaves the multiplier at 1."""
    span = linalg.Span(3)
    span.add({0: 2, 1: 1})
    assert span.int_reduce({0: 4, 2: 1}) == (1, {1: -2, 2: 1})
    # 6 and 4 share 2: v is scaled by 4 / 2 = 2, not by 4
    span = linalg.Span(3)
    span.add({0: 4, 1: 1})
    assert span.int_reduce({0: 6, 2: 1}) == (2, {1: -3, 2: 2})


def test_one_subspace_has_one_set_of_int_rows():
    """The rows are the one primitive multiple of each echelon row with a
    positive pivot, whatever the scale and sign of what went in."""
    span = linalg.Span(3)
    assert span.add([-2, 4, Fraction(-2, 3)]) == (0, -2)
    assert span.int_rows() == [{0: 3, 1: -6, 2: 1}]
    other = linalg.Span(3)
    other.add({2: Fraction(1, 7), 1: Fraction(-6, 7), 0: Fraction(3, 7)})
    assert other.int_rows() == span.int_rows()
    # eliminating a new pivot keeps the old row primitive and positive
    span.add([0, -5, 10])
    assert span.int_rows() == [{0: 3, 2: -11}, {1: 1, 2: -2}]
    assert_invariant(span)


def test_reduce_is_exact_with_a_running_multiplier():
    """Two reduction steps, each scaling v: the Fractions read back are
    the Fraction span's."""
    rows = [[3, 0, 1, 1], [0, 5, 2, 0]]
    span, ref = linalg.Span(4), FractionSpan(4)
    for row in rows:
        span.add(row)
        ref.add(row)
    v = [1, 1, 0, 0]
    assert span.int_reduce(v)[0] == 15
    assert span.reduce(v) == ref.reduce(v) == {
        2: Fraction(-11, 15), 3: Fraction(-1, 3)}
