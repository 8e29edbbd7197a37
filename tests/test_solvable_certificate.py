"""The solvable-center certificate of B-irreducibility.

On a quadratic algebra Z = (A^2)^perp, so a nonzero solvable algebra has a
nonzero center.  An orthogonal split q = I + J of a solvable q therefore
gives dim Z(q) = dim Z(I) + dim Z(J) >= 2, and a solvable q with a
one-dimensional center is B-irreducible.  The splitting search reads this
before it closes any candidate.  The tests check the derived series
against a dense recomputation through `core.product`, check every piece
the certificate covers against the full candidate loop that decided
splits before any certificate, and pin the two ways of missing it: a
one-dimensional center on an algebra that is not solvable, and a solvable
algebra with a two-dimensional center.
"""

import random

import pytest

from qmalcev import (EVEN, Element, OperatorMap, catalog_get, center,
                     direct_sum_quadratic, double_extension_even,
                     inductive_decompose, linalg, product, quadratic)
from qmalcev.quadratic import _solvable, _split, b_irreducible_components

from test_decompose import oscillator
from test_symmetric_centroid import fresh, mixed, reference_split


def _entry(name, **params):
    return catalog_get(name, **params).algebra


def two_frequency_oscillator():
    """The even double extension of abelian(4, 0) by rotations of
    frequency 1 and 2 on its two planes: solvable, (6|0), center the line
    of e*."""
    ab4 = _entry("abelian", p=4, q=0)
    rot = OperatorMap.from_images(4, {0: [0, 1, 0, 0], 1: [-1, 0, 0, 0],
                                      2: [0, 0, 0, 2], 3: [0, 0, -2, 0]},
                                  EVEN)
    out, _ = double_extension_even(ab4, rot)
    return out


def derived_dims(q):
    """The dimensions of A, A^2, (A^2)^2, ... until a term is 0 or equals
    the one before, each term the span of the products of the previous
    one's basis, multiplied densely by `core.product`."""
    n = q.dim
    term = [Element.basis(n, i) for i in range(n)]
    dims = [n]
    while term:
        span = linalg.Span(n)
        for x in term:
            for y in term:
                span.add(product(q.algebra, x, y).entries)
        dims.append(span.dim)
        if span.dim == len(term):
            break
        term = [Element(tuple(v)) for v in span.vectors()]
    return dims


SERIES = [
    ("sl2", lambda: _entry("sl2"), [3, 3]),
    ("osp12", lambda: _entry("osp12"), [5, 5]),
    ("abelian(2,2)", lambda: _entry("abelian", p=2, q=2), [4, 0]),
    ("oscillator", oscillator, [4, 3, 1, 0]),
    ("two_frequency_oscillator", two_frequency_oscillator, [6, 5, 1, 0]),
    ("example_gde(1)", lambda: _entry("example_gde", n=1, m=(2,)),
     [5, 3, 0]),
    ("gde_abelian12", lambda: _entry("gde_abelian12"), [5, 3, 0]),
    ("sl2+oscillator",
     lambda: direct_sum_quadratic(_entry("sl2"), oscillator()),
     [7, 6, 4, 3, 3]),
]


@pytest.mark.parametrize("make,dims", [row[1:] for row in SERIES],
                         ids=[row[0] for row in SERIES])
def test_solvable_reads_the_derived_series(make, dims):
    q = make()
    assert derived_dims(q) == dims
    assert _solvable(q.algebra) is (dims[-1] == 0)
    assert _solvable(mixed(q, random.Random(3)).algebra) is (dims[-1] == 0)


def _tree_algebras(node):
    yield node.algebra
    for child in getattr(node, "children", ()):
        yield from _tree_algebras(child)
    if getattr(node, "child", None) is not None:
        yield from _tree_algebras(node.child)


ROOTS = {
    "oscillator": oscillator,
    "two_frequency_oscillator": two_frequency_oscillator,
    "example_gde(1;2)": lambda: _entry("example_gde", n=1, m=(2,)),
    "example_gde(2;1,1)": lambda: _entry("example_gde", n=2, m=(1, 1)),
    "example_gde(2;1,2)": lambda: _entry("example_gde", n=2, m=(1, 2)),
    "example_gde(3;1,2,2)": lambda: _entry("example_gde", n=3, m=(1, 2, 2)),
    "gde_abelian12": lambda: _entry("gde_abelian12"),
}


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("root", sorted(ROOTS))
def test_certified_pieces_have_no_split(root, seed):
    """Every piece of the root's decomposition tree (the root, its
    reductions and their components), in a seeded unitriangular basis
    when seed is set: where it is solvable with a one-dimensional center,
    no center column, basis vector, pair, sum or seeded vector closes to a
    proper ideal with a nondegenerate restriction.  Each root has such a
    piece of dimension at least 2."""
    rng = random.Random(seed)
    covered = 0
    for piece in _tree_algebras(inductive_decompose(ROOTS[root]()).root):
        q = fresh(piece if seed is None else mixed(piece, rng))
        if len(center(q.algebra).rows) == 1 and _solvable(q.algebra):
            covered += q.dim >= 2
            assert reference_split(fresh(q)) is None
            assert _split(q)[0] is None
            assert _split(q)[1] is True
    assert covered


@pytest.mark.parametrize("seed", [None, 4])
def test_one_dimensional_center_that_is_not_solvable_still_splits(seed):
    """sl2 + oscillator has the oscillator's center line only, but sl2 is
    perfect, so the derived series stops at sl2 and the sum splits."""
    q = direct_sum_quadratic(_entry("sl2"), oscillator())
    if seed is not None:
        q = mixed(q, random.Random(seed))
    q = fresh(q)
    assert len(center(q.algebra).rows) == 1
    assert not _solvable(q.algebra)
    comps = b_irreducible_components(q)
    assert sorted(c.dim for c in comps) == [3, 4]
    assert comps.exhaustive


@pytest.mark.parametrize("seed", [None, 4])
def test_solvable_with_two_central_lines_still_splits(seed):
    q = direct_sum_quadratic(oscillator(), oscillator())
    if seed is not None:
        q = mixed(q, random.Random(seed))
    q = fresh(q)
    assert len(center(q.algebra).rows) == 2 and _solvable(q.algebra)
    comps = b_irreducible_components(q)
    assert [c.dim for c in comps] == [4, 4]
    assert comps.exhaustive


def test_oscillator_search_closes_nothing_and_solves_no_centroid(
        monkeypatch):
    """decompose of the oscillator proves its root B-irreducible by the
    certificate alone: the search closes no candidate on it and Gamma_s is
    never solved.  (The reduced plane still splits by a closure.)"""
    q = fresh(oscillator())
    closed = []
    closure = quadratic._proper_ideals

    def spy(a, seeds):
        closed.append(a)
        return closure(a, seeds)

    def refuse(_q):
        raise AssertionError("Gamma_s solved")

    monkeypatch.setattr(quadratic, "_proper_ideals", spy)
    monkeypatch.setattr(quadratic, "_symmetric_centroid", refuse)
    tree = inductive_decompose(q)
    assert tree.root.kind == "even_de"
    assert closed and all(a.dim == 2 for a in closed)
    assert _split(q)[1] is True
