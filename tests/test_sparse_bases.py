"""Basis columns are sparse from the split to the printer.

Every basis column that `b_irreducible_components`, the two reductions,
`inductive_decompose` and `parse_tree` produce is a {row: value} dict
without zeros; only `document.vector_texts` writes it out as n scalars.
A node built in process with dense tuple columns, as the benchmark's
rebuild jobs build their roots, prints and rebuilds as its sparse twin.
The split walks a work list, so it holds no chain of shrinking parts:
its traced peak on abelian(20,20) is pinned below 1 MB (2.9 MB when it
recursed), with the tree's bytes unchanged.
"""

import hashlib
import tracemalloc

import pytest

from qmalcev import (SumNode, b_irreducible_components, catalog_get,
                     emit_document, emit_tree, inductive_decompose,
                     reduce_odd, rebuild)
from qmalcev.decompose import DecompositionTree, reduce_even
from qmalcev.document import parse_algebra_document, parse_tree
from qmalcev.errors import PreconditionError

from test_decompose import oscillator
from test_pipeline_golden import documents
from test_rebuild_certificate import _disguised_root

# the golden pipeline documents, and the oscillator for an even_de node
DOCUMENTS = {**documents(), "oscillator": emit_document(oscillator())}


def _sparse_columns(basis, k, n):
    """k columns of F^n, each a dict of nonzeros."""
    return (len(basis) == k
            and all(type(col) is dict and all(col.values())
                    and all(0 <= i < n for i in col) for col in basis))


def _nodes(node):
    yield node
    if node.kind == "sum":
        for child in node.children:
            yield from _nodes(child)
    elif node.kind != "leaf":
        yield from _nodes(node.child)


@pytest.mark.parametrize("label", sorted(DOCUMENTS))
def test_bases_are_sparse_dicts(label):
    q = parse_algebra_document(DOCUMENTS[label])[0]
    comps = b_irreducible_components(q)
    assert all(_sparse_columns(basis, comp.dim, q.dim)
               for comp, basis in zip(comps.components, comps.bases))
    assert sum(len(basis) for basis in comps.bases) == q.dim
    tree = inductive_decompose(q)
    parsed = parse_tree(emit_tree(tree))
    for root in (tree.root, parsed):
        for node in _nodes(root):
            if node.kind != "leaf":
                n = node.algebra.dim
                assert _sparse_columns(node.basis, n, n), label
    for reduce in (reduce_odd, reduce_even):
        try:
            red = reduce(q)
        except PreconditionError:
            continue
        assert _sparse_columns(red.basis, q.dim, q.dim), label


def test_golden_trees_hold_every_node_kind_and_both_reductions():
    kinds, reductions = set(), set()
    for text in DOCUMENTS.values():
        q = parse_algebra_document(text)[0]
        kinds |= {node.kind for node in _nodes(inductive_decompose(q).root)}
        for reduce in (reduce_odd, reduce_even):
            try:
                reduce(q)
                reductions.add(reduce.__name__)
            except PreconditionError:
                pass
    assert kinds == {"leaf", "sum", "odd_gde", "even_de"}
    assert reductions == {"reduce_odd", "reduce_even"}


@pytest.mark.parametrize("names, seed", [
    (("sl2", "abelian02"), 3), (("oscillator", "line", "abelian02"), 11),
    (("example_gde1", "line"), None)])
def test_dense_tuple_columns_print_and_rebuild_as_sparse(names, seed):
    """Seed None gives the identity basis, which rebuild compares without a
    pullback."""
    dense_root = _disguised_root(names, seed)
    assert all(type(col) is tuple for col in dense_root.basis)
    sparse_root = SumNode(
        dense_root.algebra, dense_root.children,
        tuple({i: x for i, x in enumerate(col) if x}
              for col in dense_root.basis), exhaustive=True)
    assert (seed is None) == all(col == {i: 1} for i, col
                                 in enumerate(sparse_root.basis))
    text = emit_tree(DecompositionTree(dense_root))
    assert text == emit_tree(DecompositionTree(sparse_root))
    want = dense_root.algebra
    for root in (dense_root, sparse_root, parse_tree(text)):
        got = rebuild(root)
        assert got.algebra.constants == want.algebra.constants
        assert got.form == want.form


def test_split_peak_memory_on_abelian_20_20():
    q = parse_algebra_document(
        emit_document(catalog_get("abelian", p=20, q=20).algebra))[0]
    tracemalloc.start()
    try:
        tree = inductive_decompose(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(emit_tree(tree).encode()).hexdigest().startswith(
        "ebf707b060a4f6db")
    assert peak <= 1.0e6
