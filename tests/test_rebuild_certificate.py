"""rebuild certifies each node once, by an exact integer isometry.

parse_tree scans only the leaves' documents.  rebuild checks that each sum
or extension node's basis carries the algebra rebuilt from its children
onto the node's stored one: parity-preserving, multiplicative on every
pair of basis vectors, and isometric.  The tests below count the scans,
and compare the certificate, and whole rebuilds, with the comparison that
rebuild made before: every stored document validated on reading, then the
rebuilt algebra rewritten in the node's basis by an inverse and compared.
"""

import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (BilinearForm, QuadraticAlgebra, catalog_get,
                     change_basis_quadratic, direct_sum_quadratic,
                     double_extension_even, emit_document, emit_tree,
                     generalized_double_extension, inductive_decompose,
                     linalg, rebuild)
from qmalcev import core, decompose, quadratic
from qmalcev.cli import run
from qmalcev.decompose import (DecompositionTree, SumNode, _carries,
                               _check_shape_tag)
from qmalcev.document import (canonical_json, parse_document, parse_scalar,
                              parse_tree, scalar_text)
from qmalcev.errors import AxiomError, GradingError, InputError

from test_decompose import oscillator


def _entry(name, **params):
    return catalog_get(name, **params).algebra


def _sum(*qs):
    return functools.reduce(direct_sum_quadratic, qs)


def _count_validate(monkeypatch):
    """The names of the algebras that QuadraticAlgebra.validate is called
    on from now on."""
    calls = []
    original = QuadraticAlgebra.validate.__func__

    def counting(cls, algebra, form):
        calls.append(algebra.name)
        return original(cls, algebra, form)

    monkeypatch.setattr(QuadraticAlgebra, "validate", classmethod(counting))
    return calls


@pytest.mark.parametrize("q,scans", [
    (_entry("example_gde", n=2, m=(1, 1)), 2),
    (_sum(_entry("sl2"), _entry("abelian", p=1, q=0)), 2),
    (oscillator(), 3),
], ids=["example_gde(2;1,1)", "sl2+abelian(1,0)", "oscillator"])
def test_rebuild_scans_leaves_and_extensions_once(monkeypatch, q, scans):
    """Leaves are scanned when parsed and even extensions when built; sums,
    odd extensions (certified by their verified gde data) and the stored
    documents of extensions are certified without a scan.  Reading every
    node's document and scanning each extension again made 9 calls on
    example_gde(2; 1,1); scanning each odd extension when built, 5."""
    text = emit_tree(inductive_decompose(q))
    kinds = [node["kind"] for _p, node in _tree_nodes(json.loads(text))]
    calls = _count_validate(monkeypatch)
    assert rebuild(parse_tree(text)) == q
    assert len(calls) == scans == sum(k in ("leaf", "even_de")
                                      for k in kinds)


def test_rebuild_inverts_nothing(monkeypatch):
    qs = (_entry("example_gde", n=2, m=(1, 1)), oscillator(),
          _sum(_entry("sl2"), _entry("osp12"), _entry("abelian", p=0, q=2)))
    trees = [emit_tree(inductive_decompose(q)) for q in qs]

    def refuse(*args, **kwargs):
        raise AssertionError("rebuild rewrote a basis")

    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(decompose, "_rewrite", refuse)
    monkeypatch.setattr(quadratic, "_change_basis", refuse)
    monkeypatch.setattr(core, "_change_basis", refuse)
    for q, text in zip(qs, trees):
        out = rebuild(parse_tree(text))
        assert out.validated and out == q and out.name == q.name


@pytest.mark.parametrize("seed", [None, 5])
def test_certified_node_keeps_its_name_and_bytes(seed):
    root = _disguised_root(("sl2", "line", "example_gde1"), seed)
    out = rebuild(parse_tree(emit_tree(DecompositionTree(root))))
    assert out.validated and out.name == "disguised"
    assert emit_document(out) == emit_document(root.algebra)


def test_certificate_preserves_parity():
    """abelian(0,2) and the (2|0) plane with the same skew Gram are both
    abelian and the identity is an isometry between them, but it is not
    graded: the plane's skew even block is not supersymmetric."""
    odd = _entry("abelian", p=0, q=2)
    doc = json.loads(emit_document(odd))
    doc.update(even_dim=2, odd_dim=0)
    plane, _op, _gde = parse_document(canonical_json(doc))
    identity = tuple(tuple(Fraction(int(r == c)) for r in range(2))
                     for c in range(2))
    assert plane.form == odd.form and not plane.algebra.constants
    assert not _carries(odd, plane, identity)
    tree = {"kind": "sum", "document": doc, "exhaustive": True,
            "basis": [["1/1", "0/1"], ["0/1", "1/1"]],
            "children": [json.loads(emit_tree(inductive_decompose(odd)))]}
    assert _outcome(rebuild, parse_tree(canonical_json(tree))) == (
        "AxiomError", "form axioms failed: supersymmetric")


# ---------------------------------------------------------------------------
# the comparison rebuild made before, as a reference

def reference_matches(ext, node):
    """ext rewritten in the node's basis equals the node's algebra."""
    if ext.dim != len(node.basis):
        return False
    inv = linalg.inverse(linalg.transpose(
        [linalg.dense(c, ext.dim) for c in node.basis]))
    if inv is None:
        raise InputError("corrupted witness: singular basis")
    return change_basis_quadratic(ext, linalg.transpose(inv)) == node.algebra


def _nodes(node):
    yield node
    for child in getattr(node, "children", None) or (
            [node.child] if hasattr(node, "child") else []):
        yield from _nodes(child)


def reference_rebuild(root):
    """Validate every stored document in pre-order, as reading did, then
    rebuild bottom-up with reference_matches."""
    valid = {id(n): QuadraticAlgebra.validate(n.algebra.algebra,
                                              n.algebra.form)
             for n in _nodes(root)}

    def walk(node):
        if node.kind == "leaf":
            _check_shape_tag(node)
            return valid[id(node)]
        if node.kind == "sum":
            ext = _sum(*map(walk, node.children))
        elif node.kind == "odd_gde":
            ext, _w = generalized_double_extension(walk(node.child), node.gde)
        else:
            ext, _w = double_extension_even(walk(node.child), node.operator)
        if reference_matches(ext, node):
            return valid[id(node)]
        raise AxiomError("rebuilt %s node %r does not match its stored "
                         "document" % (node.kind, node.algebra.name))

    return walk(root)


def _outcome(run, *args):
    """('ok', the emitted result) or the error's type and message."""
    try:
        q = run(*args)
    except (AxiomError, InputError) as exc:  # GradingError is an InputError
        return type(exc).__name__, str(exc)
    return "ok", emit_document(q)


# ---------------------------------------------------------------------------
# trees drawn from small catalog pieces

def _halved(q):
    """q with its Gram halved: still quadratic, and the Gram has a
    denominator."""
    return QuadraticAlgebra.validate(q.algebra, BilinearForm.from_entries(
        q.dim, {key: x / 2 for key, x in q.form.entries.items()}))


PIECES = {
    "sl2": lambda: _entry("sl2"),
    "half_sl2": lambda: _halved(_entry("sl2")),
    "osp12": lambda: _entry("osp12"),
    "line": lambda: _entry("abelian", p=1, q=0),
    "abelian02": lambda: _entry("abelian", p=0, q=2),
    "oscillator": oscillator,
    "example_gde1": lambda: _entry("example_gde", n=1, m=(2,)),
    "example_gde2": lambda: _entry("example_gde", n=2, m=(1, 1)),
    "gde_abelian12": lambda: _entry("gde_abelian12"),
}


@functools.cache
def piece(name):
    return PIECES[name]()


@functools.cache
def piece_tree(name):
    """The root of the decomposition of a piece: a leaf, a sum, an odd
    chain or an even extension."""
    return inductive_decompose(piece(name)).root


def _unitriangular(q, seed):
    """Columns b_i + x b_j, j the next index of b_i's parity, x drawn from
    a Random(seed); across a direct sum they mix the summands.  With seed
    None, the identity."""
    rng = random.Random(seed)
    n = q.dim
    cols = []
    for i in range(n):
        c = [0] * n
        c[i] = 1
        later = [j for j in range(i + 1, n)
                 if q.space.parity(j) == q.space.parity(i)]
        if later and seed is not None:
            c[later[0]] = rng.choice((0, 1, -1, 2, Fraction(1, 2),
                                      Fraction(-2, 3)))
        cols.append(c)
    return cols


def _disguised_root(names, seed):
    """A sum node over the decompositions of the named pieces whose stored
    document is their direct sum in _unitriangular(seed)."""
    total = _sum(*map(piece, names))
    n = total.dim
    cols = _unitriangular(total, seed)
    stored = change_basis_quadratic(total, cols, name="disguised")
    # the node's basis holds the sum's basis vectors in stored coordinates
    inv = linalg.inverse(linalg.transpose(cols))
    basis = tuple(tuple(inv[r][i] for r in range(n)) for i in range(n))
    return SumNode(stored, tuple(map(piece_tree, names)), basis,
                   exhaustive=True)


def _tree_nodes(obj, path=()):
    """(path, node object) for every node of a tree object below obj."""
    yield path, obj
    for k, child in enumerate(obj.get("children", [])):
        yield from _tree_nodes(child, path + (("children", k),))
    if "child" in obj:
        yield from _tree_nodes(obj["child"], path + (("child", None),))


def _follow(node, path):
    for attr, k in path:
        node = getattr(node, attr) if k is None else getattr(node, attr)[k]
    return node


SCALARS = ["0/1", "1/1", "-1/1", "2/1", "1/2", "-3/1"]


@st.composite
def mutated_trees(draw):
    """(tree text, path of the mutated node or None) for a sum of 1-3
    pieces, disguised or not, with at most one change to one non-leaf
    node: an entry of its basis, constants or Gram changed or dropped, or
    two of its basis columns swapped."""
    names = draw(st.lists(st.sampled_from(sorted(PIECES)), min_size=1,
                          max_size=3))
    seed = draw(st.one_of(st.none(), st.integers(0, 10 ** 6)))
    root = _disguised_root(tuple(names), seed)
    obj = json.loads(emit_tree(DecompositionTree(root)))
    if not draw(st.booleans()):
        return canonical_json(obj), None
    path, node = draw(st.sampled_from(
        [(p, n) for p, n in _tree_nodes(obj) if n["kind"] != "leaf"]))
    where = draw(st.sampled_from(["basis", "swap", "constants", "gram"]))
    cols = node["basis"]
    if where == "basis":
        col = draw(st.sampled_from(cols))
        col[draw(st.integers(0, len(col) - 1))] = draw(st.sampled_from(
            SCALARS))
    elif where == "swap":
        a, b = (draw(st.integers(0, len(cols) - 1)) for _ in range(2))
        cols[a], cols[b] = cols[b], cols[a]
    else:
        rows = node["document"][where]
        if rows:
            k = draw(st.integers(0, len(rows) - 1))
            value = draw(st.sampled_from(SCALARS + [None]))
            if value in (None, "0/1"):
                del rows[k]
            else:
                rows[k][-1] = value
    return canonical_json(obj), path


@settings(max_examples=80, deadline=None)
@given(mutated_trees())
def test_certificate_agrees_with_the_basis_rewrite(case):
    text, path = case
    tree = parse_tree(text)
    got = _outcome(rebuild, tree)
    assert got == _outcome(reference_rebuild, tree)
    if path is None:
        assert got[0] == "ok"
        return
    node = _follow(tree, path)
    # the children of the mutated node are untouched and rebuild
    if node.kind == "sum":
        ext = _sum(*map(rebuild, node.children))
    elif node.kind == "odd_gde":
        ext, _w = generalized_double_extension(rebuild(node.child), node.gde)
    else:
        ext, _w = double_extension_even(rebuild(node.child), node.operator)
    try:
        want = reference_matches(ext, node)
    except (GradingError, InputError):
        want = False
    assert _carries(ext, node.algebra, node.basis) == want


@pytest.mark.parametrize("factor", [Fraction(2), Fraction(1, 2)],
                         ids=["doubled", "halved"])
def test_scaled_sum_gram_is_not_carried(tmp_path, capsys, factor):
    """A sum node whose stored Gram is the rebuilt one times 2 or 1/2 holds
    a valid document, but no isometry carries the rebuilt algebra onto it.
    The node's basis, the rebuilt Gram and the stored one all have
    denominators, so the int Gram comparison must bring both sides to the
    one scale E_q E_r L^2."""
    root = _disguised_root(("half_sl2", "osp12", "oscillator"), 5)
    assert any(x.denominator > 1 for col in root.basis for x in col)
    obj = json.loads(emit_tree(DecompositionTree(root)))
    path = tmp_path / "tree.json"
    path.write_text(canonical_json(obj))
    assert run(["rebuild", str(path)]) == 0
    for entry in obj["document"]["gram"]:
        entry[-1] = scalar_text(parse_scalar(entry[-1]) * factor)
    scaled = parse_document(canonical_json(obj["document"]))[0]
    QuadraticAlgebra.validate(scaled.algebra, scaled.form)
    path.write_text(canonical_json(obj))
    capsys.readouterr()
    assert run(["rebuild", str(path)]) == 3
    assert capsys.readouterr().err == (
        "validation error (axiom): rebuilt sum node 'disguised' does not "
        "match its stored document\n")
