"""`core.change_basis` on subspaces, against a per-pair solve reference.

The reference forms each product with `core.product` and solves for its
coordinates in the columns with one `linalg.solve` per basis pair, so it
shares nothing with `change_basis` beyond the structure constants.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (Element, GradedSubspace, SuperAlgebra, SuperSpace,
                     catalog_get, change_basis, direct_sum_quadratic,
                     ideal_closure, linalg, product)
from qmalcev.errors import GradingError, InputError, PreconditionError

POOL = [("sl2", {}), ("abelian", {"p": 1, "q": 0}),
        ("abelian", {"p": 0, "q": 2}), ("odd_hyperbolic", {}),
        ("example_M", {"n": 1, "m": (1,)}),
        ("example_gde", {"n": 1, "m": (2,)}), ("osp12", {})]


def restrict_reference(a, columns):
    """The algebra on the span of the columns, or None when a product of
    two columns leaves the span."""
    cols = [list(c) for c in columns]
    k = len(cols)
    cmat = [[cols[j][i] for j in range(k)] for i in range(a.dim)]
    constants = {}
    for i in range(k):
        for j in range(k):
            w = product(a, Element(cols[i]),
                        Element(cols[j]))
            coords = linalg.solve(cmat, list(linalg.dense(w.entries, a.dim)))
            if coords is None:
                return None
            for m, c in enumerate(coords):
                if c != 0:
                    constants[(i, j, m)] = c
    p = sum(1 for c in cols if all(x == 0 for x in c[a.space.even_dim:]))
    return SuperAlgebra(SuperSpace(p, k - p), constants)


@st.composite
def subspaces(draw):
    """A direct sum of two pool algebras and a graded subspace of it: the
    span of a few random vectors, or the ideal that they generate."""
    (na, pa), (nb, pb) = draw(st.lists(st.sampled_from(POOL), min_size=2,
                                       max_size=2))
    q = direct_sum_quadratic(catalog_get(na, **pa).algebra,
                             catalog_get(nb, **pb).algebra)
    a = q.algebra
    n = a.dim
    vectors = draw(st.lists(
        st.lists(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
                 min_size=n, max_size=n),
        min_size=1, max_size=3))
    sub = GradedSubspace.from_vectors(a.space, vectors)
    if draw(st.booleans()):
        sub = ideal_closure(a, sub)
    return a, sub


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_subspace_restriction_matches_solve_reference(case):
    a, sub = case
    want = restrict_reference(
        a, [linalg.dense(r, a.dim) for r in sub.rows])
    if want is None:
        with pytest.raises(PreconditionError):
            change_basis(a, sub.rows)
        return
    got = change_basis(a, sub.rows)
    assert got.space == want.space
    assert got.constants == want.constants
    assert got.name == a.name


def test_ideal_of_a_sum_is_its_summand(sl2, osp12):
    """The ideal generated by a vector of the first summand is that summand,
    with its own constants."""
    q = direct_sum_quadratic(sl2, osp12)
    sub = ideal_closure(q.algebra, GradedSubspace.from_vectors(
        q.space, [linalg.basis_vector(q.dim, 0)]))
    assert sub.dim == 3
    assert change_basis(q.algebra, sub.rows).constants == \
        sl2.algebra.constants


def test_subspace_not_closed_raises(sl2):
    # span{e, f} of sl2 is not closed: ef = h
    n = sl2.dim
    cols = [linalg.basis_vector(n, 1), linalg.basis_vector(n, 2)]
    assert restrict_reference(sl2.algebra, cols) is None
    with pytest.raises(PreconditionError):
        change_basis(sl2.algebra, cols)


@pytest.mark.parametrize("cols", [
    [[1, 0, 0], [2, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
    [[1, 0, 0], [0, 0, 0]],
], ids=["parallel", "full_rank_singular", "zero_column"])
def test_dependent_columns_raise(sl2, cols):
    with pytest.raises(InputError):
        change_basis(sl2.algebra, cols)


def test_columns_must_be_homogeneous_and_even_first(osp12):
    n = osp12.dim
    mixed = linalg.basis_vector(n, 0)
    mixed[3] = Fraction(1)
    with pytest.raises(GradingError):
        change_basis(osp12.algebra, [mixed])
    odd_first = [linalg.basis_vector(n, 3), linalg.basis_vector(n, 0)]
    with pytest.raises(GradingError):
        change_basis(osp12.algebra, odd_first)
