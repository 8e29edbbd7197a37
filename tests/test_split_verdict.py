"""The split verdict of `quadratic._split`: one cached (ideal, proved).

The reference below is the search and the certificate that decided splits
before the verdict, kept as they were but for their caches on q.  The
verdict must return the same ideal and the same proof on every piece of a
set of decomposition trees, in the identity basis and in two seeded
unitriangular bases.  A spy pins that abelian pieces solve no Gamma_s: a
(0|2) piece is irreducible by its shape, and a piece whose center is not
in A^2 splits, so Gamma_s cannot prove it irreducible.  The last test pins
the verdict that neither splits nor proves.
"""

import random

import pytest

from qmalcev import (GradedSubspace, catalog_get, center,
                     direct_sum_quadratic, inductive_decompose, quadratic,
                     reduce_odd, simplicity)
from qmalcev.core import _ideal_candidates, ideal_closure
from qmalcev.quadratic import (_solvable, _split, _symmetric_centroid,
                               _trace_rank, b_irreducible_components)

from test_decompose import oscillator
from test_solvable_certificate import ROOTS, _tree_algebras
from test_symmetric_centroid import fresh, mixed


def _entry(name, **params):
    return catalog_get(name, **params).algebra


# ---------------------------------------------------------------------------
# the reference: the search and the certificate before the verdict

def _structurally_irreducible(q):
    a = q.algebra
    return (q.dim <= 1 or simplicity(a).simple is True
            or (len(center(a).columns) == 1 and _solvable(a)))


def _certified_irreducible(q):
    return (_structurally_irreducible(q)
            or _trace_rank(_symmetric_centroid(q), q.dim, stop=2) == 1)


def _search_splitting_ideal(q):
    if _structurally_irreducible(q):
        return None
    a = q.algebra
    n = a.dim
    # the first candidates are the center columns, then the basis vectors
    single = len(center(a).columns) + n
    seen = set()
    for count, seed in enumerate(_ideal_candidates(a)):
        if count == single and _certified_irreducible(q):
            return None
        sub = GradedSubspace.from_vectors(a.space, seed)
        if sub.dim == 0:
            continue
        ideal = ideal_closure(a, sub)
        if not 0 < ideal.dim < n:
            continue
        key = ideal.columns
        if key in seen:
            continue
        seen.add(key)
        if q.form._nondegenerate_on(ideal):
            return ideal
    return None


# ---------------------------------------------------------------------------

TREES = dict(ROOTS, **{
    "sl2+sl2": lambda: direct_sum_quadratic(_entry("sl2"), _entry("sl2")),
    "osc+osc": lambda: direct_sum_quadratic(oscillator(), oscillator()),
    "sl2+oscillator": lambda: direct_sum_quadratic(_entry("sl2"),
                                                   oscillator()),
    "gde1+ab10": lambda: direct_sum_quadratic(
        _entry("example_gde", n=1, m=(2,)), _entry("abelian", p=1, q=0)),
    "abelian(0,8)": lambda: _entry("abelian", p=0, q=8),
    "abelian(1,2)": lambda: _entry("abelian", p=1, q=2),
    "abelian(2,2)": lambda: _entry("abelian", p=2, q=2),
    "even_hyperbolic+even_hyperbolic": lambda: direct_sum_quadratic(
        _entry("even_hyperbolic"), _entry("even_hyperbolic")),
})


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("root", sorted(TREES))
def test_verdict_matches_the_reference(root, seed):
    """Every piece of the root's tree, in a seeded unitriangular basis when
    seed is set: the same ideal (GradedSubspace compares columns), and
    proved exactly when the reference certifies the piece."""
    rng = random.Random(seed)
    for piece in _tree_algebras(inductive_decompose(TREES[root]()).root):
        q = piece if seed is None else mixed(piece, rng)
        want = _search_splitting_ideal(fresh(q))
        ideal, proved = _split(fresh(q))
        assert ideal == want
        assert proved is _certified_irreducible(fresh(q))


@pytest.mark.parametrize("p,q,dims", [
    (0, 2, [2]), (0, 4, [2, 2]), (0, 6, [2, 2, 2]), (0, 8, [2, 2, 2, 2]),
    (4, 4, [1, 1, 1, 1, 2, 2]),
])
def test_abelian_pieces_solve_no_centroid(monkeypatch, p, q, dims):
    """Each (0|2) piece is proved by its shape, and every larger piece has
    its center outside A^2 = 0, so none solves Gamma_s."""

    def refuse(_q):
        raise AssertionError("Gamma_s solved")

    monkeypatch.setattr(quadratic, "_symmetric_centroid", refuse)
    comps = b_irreducible_components(fresh(_entry("abelian", p=p, q=q)))
    assert sorted(c.dim for c in comps) == dims
    assert comps.exhaustive


def test_unproved_verdict_without_a_split():
    """example_gde(2; 1,1) + example_gde(2; 1,1): no candidate closes to a
    summand with a nondegenerate restriction, and the trace form on Gamma_s
    has rank 2, so the verdict is (None, False).  ROADMAP item 1 (splitting
    by idempotents of Gamma_s) is meant to turn this into a proved split."""
    gde = _entry("example_gde", n=2, m=(1, 1))
    q = direct_sum_quadratic(gde, gde)
    assert _split(fresh(q)) == (None, False)
    comps = b_irreducible_components(fresh(q))
    assert [c.dim for c in comps] == [14] and not comps.exhaustive
    assert reduce_odd(fresh(q)).irreducible_certified is None
