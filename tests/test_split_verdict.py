"""The split verdict of `quadratic._split`: one cached (ideal, proved).

The reference below is the search and the certificate that decided splits
before the verdict, kept as they were but for their caches on q.  The
verdict must return the same ideal and the same proof on every piece of a
set of decomposition trees, in the identity basis and in two seeded
unitriangular bases.  A spy pins that abelian pieces solve no Gamma_s: a
(0|2) piece is irreducible by its shape, and a piece whose center is not
in A^2 splits, so Gamma_s cannot prove it irreducible.  Two more spies pin
the order's work: each node of an example_gde chain is proved by Gamma_s
before any candidate past `simplicity`'s is closed, and a root that the
first candidate splits solves no Gamma_s.  Gamma_s comes first only on a
nilpotent piece: a sum with sl2 or an oscillator, whose center is also
isotropic, closes its candidates first, as before the order, and the
lower central series that decides it is checked against a dense
recomputation.  The last test pins the verdict that neither splits nor
proves.
"""

import random

import pytest

from qmalcev import (EVEN, BilinearForm, Element, GradedSubspace,
                     OperatorMap, QuadraticAlgebra, SuperAlgebra,
                     catalog_get, center, core, direct_sum_quadratic,
                     double_extension_even, inductive_decompose, linalg,
                     product, quadratic, reduce_odd, simplicity)
from qmalcev.core import _ideal_candidates, ideal_closure
from qmalcev.linalg import dense
from qmalcev.quadratic import (_nilpotent, _solvable, _split,
                               _symmetric_centroid, _trace_rank,
                               b_irreducible_components)

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
            or (len(center(a).rows) == 1 and _solvable(a)))


def _certified_irreducible(q):
    return (_structurally_irreducible(q)
            or _trace_rank(_symmetric_centroid(q), q.dim, stop=2) == 1)


def _search_splitting_ideal(q):
    if _structurally_irreducible(q):
        return None
    a = q.algebra
    n = a.dim
    # the first candidates are the center columns, then the basis vectors
    single = len(center(a).rows) + n
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
        key = tuple(dense(r, n) for r in ideal.rows)
        if key in seen:
            continue
        seen.add(key)
        if q.form._nondegenerate_on(ideal):
            return ideal
    return None


def rotation_and_shift():
    """The even double extension of the hyperbolic plane (x, y) plus
    abelian(3, 0) (u, r1, r2) by D: u -> x, y -> -u, r1 -> r2, r2 -> -r1,
    skew for the form.  Z is the lines of x and e*, isotropic; D is not
    nilpotent, so neither is the algebra; and Gamma_s proves it
    B-irreducible, after the candidates of a piece that is not nilpotent."""
    v = direct_sum_quadratic(_entry("even_hyperbolic"),
                             _entry("abelian", p=3, q=0))
    d = OperatorMap.from_images(5, {0: [0, 0, 0, 0, 0], 1: [0, 0, -1, 0, 0],
                                    2: [1, 0, 0, 0, 0], 3: [0, 0, 0, 0, 1],
                                    4: [0, 0, 0, -1, 0]}, EVEN)
    return double_extension_even(v, d)[0]


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
    "example_gde(6;1,2,3,5,7,11)": lambda: _entry(
        "example_gde", n=6, m=(1, 2, 3, 5, 7, 11)),
    "gde1(2)+gde1(3)": lambda: direct_sum_quadratic(
        _entry("example_gde", n=1, m=(2,)),
        _entry("example_gde", n=1, m=(3,))),
    "rotation_and_shift": rotation_and_shift,
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


def pristine(q):
    """A copy of q, its algebra and its form with empty caches, so that
    nothing a test run derived earlier is reused."""
    a = q.algebra
    return QuadraticAlgebra(SuperAlgebra(a.space, a.constants, name=a.name),
                            BilinearForm.from_entries(q.dim, q.form.entries,
                                                      q.form.parity),
                            validated=q.validated)


def spied_decompose(monkeypatch, q):
    """Decompose a pristine q; the closures made afresh, not read from
    `ideal_closure`'s memo, and the Gamma_s solves."""
    closures, solves = [], []
    close, solve = core.ideal_closure, quadratic._symmetric_centroid

    def new_closure(a, seed):
        if seed.key not in a._closures:
            closures.append(seed)
        return close(a, seed)

    def counted(q):
        solves.append(q)
        return solve(q)

    monkeypatch.setattr(core, "ideal_closure", new_closure)
    monkeypatch.setattr(quadratic, "_symmetric_centroid", counted)
    inductive_decompose(pristine(q))
    return len(closures), len(solves)


@pytest.mark.parametrize("n,m,closures,solves", [
    (1, (2,), 2, 1), (2, (1, 2), 3, 2), (3, (1, 2, 2), 4, 3),
], ids=["gde(1;2)", "gde(2;1,2)", "gde(3;1,2,2)"])
def test_gamma_s_proves_before_the_candidates_close(monkeypatch, n, m,
                                                    closures, solves):
    """Every B-irreducible node of an example_gde chain has an isotropic
    center, and the trace form on Gamma_s proves it so before any
    candidate past `simplicity`'s is closed: one solve a node, and a
    closure count that no longer grows with the basis (6, 13 and 22 when
    the center columns and basis vectors were closed first)."""
    q = _entry("example_gde", n=n, m=m)
    assert spied_decompose(monkeypatch, q) == (closures, solves)


@pytest.mark.parametrize("make,closures,solves", [
    (lambda: direct_sum_quadratic(_entry("sl2"), oscillator()), 4, 0),
    (lambda: direct_sum_quadratic(oscillator(), oscillator()), 7, 0),
    (lambda: direct_sum_quadratic(_entry("example_gde", n=1, m=(2,)),
                                  _entry("sl2")), 6, 1),
    (rotation_and_shift, 10, 1),
], ids=["sl2+oscillator", "osc+osc", "gde(1;2)+sl2", "rotation_and_shift"])
def test_pieces_that_are_not_nilpotent_search_first(monkeypatch, make,
                                                    closures, solves):
    """Each root has an isotropic center and a degenerate first ideal, and
    none is nilpotent, so each closes its center columns and basis vectors
    before any Gamma_s solve.  In the three sums a basis vector closes to a
    summand, and only the example_gde(1; 2) component solves Gamma_s, for
    its own proof, with 2 closures where the candidates first made 6 (10
    across the root where they came first).  rotation_and_shift is
    B-irreducible: its one solve proves it after its 10 closures, as
    before Gamma_s came first on nilpotent pieces."""
    assert spied_decompose(monkeypatch, make()) == (closures, solves)


def lower_central_dims(q):
    """The dimensions of A, A^2, A^2 A, ... until a term is 0 or equals
    the one before, each term the span of the previous one's basis times
    the basis vectors, multiplied densely by `core.product`."""
    n = q.dim
    basis = [Element.basis(n, i) for i in range(n)]
    term, dims = basis, [n]
    while term:
        span = linalg.Span(n)
        for x in term:
            for y in basis:
                span.add(product(q.algebra, x, y).entries)
        dims.append(span.dim)
        if span.dim == len(term):
            break
        term = [Element(tuple(v)) for v in span.vectors()]
    return dims


@pytest.mark.parametrize("root,dims", [
    ("sl2+sl2", [6, 6]),
    ("osc+osc", [8, 6, 6]),
    ("sl2+oscillator", [7, 6, 6]),
    ("abelian(1,2)", [3, 0]),
    ("example_gde(1;2)", [5, 3, 2, 0]),
    ("example_gde(3;1,2,2)", [9, 5, 4, 0]),
    ("gde1(2)+gde1(3)", [10, 6, 4, 0]),
])
def test_nilpotent_reads_the_lower_central_series(root, dims):
    q = TREES[root]()
    assert lower_central_dims(q) == dims
    assert _nilpotent(q.algebra) is (dims[-1] == 0)
    assert _nilpotent(mixed(q, random.Random(3)).algebra) is (dims[-1] == 0)


@pytest.mark.parametrize("make", [
    lambda: direct_sum_quadratic(_entry("sl2"), _entry("osp12")),
    lambda: direct_sum_quadratic(_entry("osp12"), _entry("osp12")),
    lambda: direct_sum_quadratic(_entry("example_gde", n=1, m=(2,)),
                                 _entry("abelian", p=1, q=0)),
], ids=["sl2+osp12", "osp12+osp12", "gde1+ab10"])
def test_first_candidate_splits_without_gamma_s(monkeypatch, make):
    """Where the first proper ideal of the candidates has a nondegenerate
    restriction, that ideal splits the root and Gamma_s is not solved."""

    def refuse(_q):
        raise AssertionError("Gamma_s solved")

    q = make()
    monkeypatch.setattr(quadratic, "_symmetric_centroid", refuse)
    ideal, proved = _split(pristine(q))
    monkeypatch.undo()
    assert ideal is not None and not proved
    assert ideal == _search_splitting_ideal(fresh(q))


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
