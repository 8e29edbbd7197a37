"""`GradedSubspace` on one sparse `linalg.Span`, against dense references.

The routines it replaced are kept below as references on dense lists of
Fraction, with their eliminations done by `test_linalg.ref_rref`, a dense
Gauss-Jordan elimination: `from_vectors` echelonized the even and the odd
parts of the vectors apart (`column_echelon_columns` per parity), and
`change_basis` solved for coordinates from the reduced form of [C^T | I]
(`rref`).  On drawn graded vectors, dense and sparse, with entries in
{0, +-1, 2, 1/2, -2/3}, the subspace has the reference's columns, parity
parts, dimension and membership; `change_basis` gives the reference's
constants, or the same error, on full and partial bases; and two spanning
sets of one subspace meet one entry of the closure memo.  A subspace or a
vector that does not fit the space is refused.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmalcev import (Element, GradedSubspace, SuperAlgebra, SuperSpace,
                     catalog_get, change_basis, direct_sum_quadratic,
                     ideal_closure, orthogonal_complement, orthogonal_split,
                     product)
from qmalcev.core import _ideal_candidates, _proper_ideals
from qmalcev.errors import GradingError, InputError, PreconditionError
from qmalcev.linalg import ONE, ZERO, frac

from test_linalg import ref_rref

VALUES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-2, 3))
entries = st.one_of(st.just(ZERO), st.just(ZERO), st.sampled_from(VALUES))


# ---------------------------------------------------------------------------
# the dense references

def ref_echelon(vectors):
    """column_echelon_columns: the nonzero rows of the dense RREF."""
    red, pivots = ref_rref([list(v) for v in vectors])
    return [tuple(row) for row in red[:len(pivots)]]


def ref_from_vectors(space, vectors):
    """The old from_vectors: the even and odd parts echelonized apart."""
    p, n = space.even_dim, space.dim
    evens, odds = [], []
    for v in vectors:
        v = list(v)
        ev = v[:p] + [ZERO] * (n - p)
        od = [ZERO] * p + v[p:]
        if any(ev):
            evens.append(ev)
        if any(od):
            odds.append(od)
    return ref_echelon(evens), ref_echelon(odds)


def ref_contains(columns, v):
    return len(ref_rref([list(c) for c in columns] + [list(v)])[1]) == len(
        columns)


def ref_change_basis(a, columns):
    """The old change_basis on dense lists: coordinates C[P]^-1 w[P] from
    the dense RREF of [C^T | I], each product w formed by core.product."""
    n = a.dim
    cols = [[frac(x) for x in c] for c in columns]
    k = len(cols)
    if k > n or any(len(c) != n for c in cols):
        raise InputError("need at most %d basis columns of length %d"
                         % (n, n))
    red, pivots = ref_rref([c + [ONE if m == i else ZERO for m in range(k)]
                            for i, c in enumerate(cols)])
    if pivots and pivots[-1] >= n:
        raise InputError("basis columns are linearly dependent")
    par = []
    for c in cols:
        kinds = {a.space.parity(r) for r, x in enumerate(c) if x}
        if len(kinds) != 1:
            raise GradingError("basis column is not parity-homogeneous")
        par.append(kinds.pop())
    if par != sorted(par):
        raise GradingError("basis columns must be ordered even-first")
    constants = {}
    for i in range(k):
        for j in range(k):
            w = product(a, Element(tuple(cols[i])), Element(tuple(cols[j])))
            wd = dense(w.entries, n)
            coords = [sum((red[s][n + m] * wd[r]
                           for s, r in enumerate(pivots)), ZERO)
                      for m in range(k)]
            back = [sum((c * col[r] for c, col in zip(coords, cols)), ZERO)
                    for r in range(n)]
            if k < n and back != list(wd):
                raise PreconditionError("subspace is not closed under the "
                                        "product")
            constants.update({(i, j, m): c for m, c in enumerate(coords)
                              if c})
    return SuperAlgebra(SuperSpace(par.count(0), par.count(1)), constants)


def outcome(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except (InputError, GradingError, PreconditionError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# strategies

spaces = st.builds(SuperSpace, st.integers(0, 4), st.integers(0, 3)).filter(
    lambda s: s.dim > 0)


@st.composite
def vectors(draw, space, homogeneous=False):
    """A vector of the space as a dense list or a sparse dict (zeros kept
    now and then, keys in a drawn order); homogeneous ones have the
    support of one parity."""
    v = draw(st.lists(entries, min_size=space.dim, max_size=space.dim))
    if homogeneous:
        odd = draw(st.booleans())
        v = [x if (i >= space.even_dim) == odd else ZERO
             for i, x in enumerate(v)]
    if draw(st.booleans()):
        return v
    keep_zeros = draw(st.booleans())
    return dict(draw(st.permutations([(i, x) for i, x in enumerate(v)
                                      if x or keep_zeros])))


def dense(v, n):
    return [v.get(i, ZERO) for i in range(n)] if isinstance(v, dict) else v


def _dense_row(row, n):
    return tuple(row.get(i, ZERO) for i in range(n))


# ---------------------------------------------------------------------------
# the subspace against the old from_vectors

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subspace_matches_the_dense_reference(data):
    space = data.draw(spaces)
    vecs = data.draw(st.lists(vectors(space), max_size=5))
    n = space.dim
    evens, odds = ref_from_vectors(space, [dense(v, n) for v in vecs])
    sub = GradedSubspace.from_vectors(space, vecs)
    assert tuple(_dense_row(r, n) for r in sub.rows) == tuple(evens + odds)
    assert sub.dim == len(evens) + len(odds)
    assert [_dense_row(r, n) for r in sub.even_rows()] == evens
    assert [_dense_row(r, n) for r in sub.odd_rows()] == odds
    for probe in data.draw(st.lists(vectors(space), max_size=3)) + vecs:
        assert sub.contains(probe) == ref_contains(evens + odds,
                                                   dense(probe, n))
    # the same vectors as dense lists, and the rows in reverse order, span
    # the same subspace: the same key
    assert GradedSubspace.from_vectors(
        space, [dense(v, n) for v in vecs]).key == sub.key
    assert GradedSubspace(space, sub.rows[::-1]).key == sub.key


# ---------------------------------------------------------------------------
# change_basis against the old dense rref body

ALGEBRAS = {
    "sl2": lambda: catalog_get("sl2").algebra,
    "osp12": lambda: catalog_get("osp12").algebra,
    "gde_abelian12": lambda: catalog_get("gde_abelian12").algebra,
    "example_gde1": lambda: catalog_get("example_gde", n=1, m=(2,)).algebra,
    "sl2+osp12": lambda: direct_sum_quadratic(
        catalog_get("sl2").algebra, catalog_get("osp12").algebra),
    "sl2+odd_hyperbolic": lambda: direct_sum_quadratic(
        catalog_get("sl2").algebra, catalog_get("odd_hyperbolic").algebra),
}


@st.composite
def graded_bases(draw, space):
    """Even columns, then odd ones, each block the identity plus drawn
    entries off the diagonal and a drawn nonzero diagonal, so mostly
    invertible; each column a dense list or a sparse dict."""
    cols = []
    for block in (space.even_indices(), space.odd_indices()):
        for j in block:
            col = [ZERO] * space.dim
            for i in block:
                col[i] = draw(st.sampled_from(VALUES) if i == j else entries)
            cols.append(col if draw(st.booleans())
                        else {i: x for i, x in enumerate(col) if x})
    return cols


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_change_basis_on_full_bases(name, data):
    a = ALGEBRAS[name]().algebra
    cols = data.draw(graded_bases(a.space))
    twist = data.draw(st.integers(0, 5))
    if twist == 0:
        cols = data.draw(st.permutations(cols))  # odd first, now and then
    elif twist == 1:
        cols[-1] = cols[0]  # dependent
    want = outcome(ref_change_basis, a, [dense(c, a.dim) for c in cols])
    assert outcome(change_basis, a, cols) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_change_basis_on_partial_bases(name, data):
    a = ALGEBRAS[name]().algebra
    n = a.dim
    ideals = list(_proper_ideals(a, _ideal_candidates(a)))
    if ideals and data.draw(st.booleans()):
        # a basis of an ideal, mixed by a unitriangular matrix per parity
        ideal = data.draw(st.sampled_from(ideals))
        cols = []
        for part in (ideal.even_rows(), ideal.odd_rows()):
            for i, row in enumerate(part):
                col = dict(row)
                for later in part[i + 1:]:
                    t = data.draw(entries)
                    for r, x in later.items():
                        col[r] = col.get(r, ZERO) + t * x
                cols.append(col)
    else:
        # some of the even and some of the odd columns of a graded basis
        cols = data.draw(graded_bases(a.space))
        p = a.space.even_dim
        ke, ko = data.draw(st.integers(0, p)), data.draw(st.integers(0, n - p))
        assume(0 < ke + ko < n)
        cols = cols[:ke] + cols[p:p + ko]
    want = outcome(ref_change_basis, a, [dense(c, n) for c in cols])
    assert outcome(change_basis, a, cols) == want


# ---------------------------------------------------------------------------
# one memo entry per subspace

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_two_spanning_sets_meet_one_closure(name, data):
    q = ALGEBRAS[name]()
    a = SuperAlgebra(q.space, q.algebra.constants)  # no memo yet
    vecs = data.draw(st.lists(vectors(a.space), min_size=1, max_size=3))
    # v_i + sum over j > i of t_ij v_j, in reverse order: the same span
    mixed = []
    for i, v in enumerate(vecs):
        w = dense(v, a.dim)
        for later in vecs[i + 1:]:
            t = data.draw(entries)
            w = [x + t * y for x, y in zip(w, dense(later, a.dim))]
        mixed.append(w)
    first = GradedSubspace.from_vectors(a.space, vecs)
    second = GradedSubspace.from_vectors(a.space, mixed[::-1])
    assert first.key == second.key
    if first.dim:
        closed = ideal_closure(a, first)
        entries_before = dict(a._closures)
        assert ideal_closure(a, second) is closed
        assert a._closures == entries_before


# ---------------------------------------------------------------------------
# a subspace or a vector that does not fit the space is refused

def test_a_subspace_of_another_space_is_refused():
    sl2 = catalog_get("sl2").algebra
    wider = GradedSubspace.from_vectors(SuperSpace(4, 0), [[0, 0, 0, 1]])
    other = GradedSubspace.from_vectors(SuperSpace(2, 1), [[1, 0, 0]])
    for seed in (wider, other):
        with pytest.raises(InputError):
            ideal_closure(sl2.algebra, seed)
        with pytest.raises(InputError):
            orthogonal_split(sl2, seed)
    with pytest.raises(InputError):
        orthogonal_complement(sl2.form, wider)


@pytest.mark.parametrize("bad", [[1, 0], [1, 0, 0, 0], {3: 1}, {-1: 1}],
                         ids=["short", "long", "index3", "negative"])
def test_a_vector_that_does_not_fit_is_refused(bad):
    space = SuperSpace(2, 1)
    with pytest.raises(InputError):
        GradedSubspace.from_vectors(space, [bad])
    with pytest.raises(InputError):
        GradedSubspace(space, [bad])
    with pytest.raises(InputError):
        GradedSubspace.from_vectors(space, [[1, 0, 0]]).contains(bad)


def test_a_mixed_column_is_still_a_grading_error():
    with pytest.raises(GradingError):
        GradedSubspace(SuperSpace(2, 1), [[1, 0, 1]])
    with pytest.raises(GradingError):
        GradedSubspace(SuperSpace(2, 1), [{0: 1, 2: 1}])
