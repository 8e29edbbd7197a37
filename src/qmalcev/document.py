"""Bit-exact JSON documents for algebras, forms, operators, and trees.

Scalars are serialized as "num/den" in lowest terms with an explicit
denominator; constant and Gram entries are sorted lexicographically and
must be nonzero, so emitting a parsed document is byte-identical.  Parse
errors are classified: syntax (malformed JSON or schema), grading
violations, and axiom failures are distinct error types.

Reading is one pass: each constants, Gram or operator row is checked and
grouped as it is read, and the constants reach `SuperAlgebra._store` as
(D, ints) at once; tests/test_reader_precedence.py pins which error wins.
"""

from __future__ import annotations

import functools
import json
import re
from decimal import Decimal
from fractions import Fraction

from . import decompose as dc
from . import linalg
from .core import EVEN, ODD, Element, SuperAlgebra, SuperSpace
from .errors import GradingError, InputError
from .extensions import GdeData
from .operators import OperatorMap
from .quadratic import BilinearForm, QuadraticAlgebra

FORMAT_VERSION = 1

# The largest dimension even_dim + odd_dim that a document, a tree node or
# a catalog parameter may declare.  Forms, operators, vectors and basis
# columns keep only their nonzeros, but format 1 writes every vector as n
# scalars, so a tree node's basis or a center is dense only in its text:
# n columns of n scalars.  Without a cap a document of a few bytes could
# ask for output quadratic in any number it names.
MAX_DIM = 1024


class DocumentSyntaxError(InputError):
    """Malformed document text or schema."""


def scalar_text(x: Fraction) -> str:
    try:
        return "%d/%d" % (x.numerator, x.denominator)
    except ValueError:  # past the digit limit of int's str conversion
        return "%s/%s" % (Decimal(x.numerator), Decimal(x.denominator))


_ZERO_TEXT = scalar_text(Fraction(0))


def vector_texts(v, n):
    """The n scalar texts of a vector of F^n, given as a list or as a
    sparse {coordinate: value} dict; every zero shares one text.  This is
    the one printer of dense vectors."""
    if isinstance(v, dict):
        out = [_ZERO_TEXT] * n
        for i, x in v.items():
            out[i] = scalar_text(x)
        return out
    return [scalar_text(x) if x else _ZERO_TEXT for x in v]


# What scalar_text emits: ASCII digits, an optional leading '-', no leading
# zeros; the lowest-terms check in parse_scalar leaves 0/1 the only zero.
_SCALAR = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def parse_scalar(text) -> Fraction:
    """The Fraction that the canonical "num/den" text names.  Short texts
    repeat across a tree's documents and bases, so they are read once and
    kept in a bounded cache; a Fraction is immutable, so the cached value
    can be shared."""
    if isinstance(text, str) and len(text) <= _CACHED_SCALAR_LEN:
        return _parse_short_scalar(text)
    return _parse_scalar(text)


def _parse_scalar(text) -> Fraction:
    match = _SCALAR.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise DocumentSyntaxError("scalar %r is not 'num/den' text" % (text,))
    try:
        num, den = int(match.group(1)), int(match.group(2))
    except ValueError:  # past the digit limit of int's str conversion
        num, den = (int(Decimal(digits)) for digits in match.groups())
    value = Fraction(num, den)
    if value.denominator != den:
        raise DocumentSyntaxError("scalar %r is not in lowest terms"
                                  % (text,))
    return value


# Texts up to this length go through a cache of at most 4096 entries, so
# it holds at most about 1.5 MB; longer texts are parsed each time.
_CACHED_SCALAR_LEN = 64
_parse_short_scalar = functools.lru_cache(maxsize=4096)(_parse_scalar)


def _operator_block(op: OperatorMap):
    """The parity and [r, c, "num/den"] for each nonzero entry, row by row."""
    return {"parity": "even" if op.parity == EVEN else "odd",
            "entries": [[r, c, scalar_text(x)]
                        for (r, c), x in op.entries.items()]}


def _gde_block(g: GdeData):
    return {"d": _operator_block(g.d)["entries"],
            "a0": vector_texts(g.a0.entries, g.a0.dim)}


def document_object(q: QuadraticAlgebra, name=None, operator=None, gde=None):
    alg = q.algebra
    d, pairs = alg.int_table()  # one text per distinct int of the store
    texts = {x: scalar_text(Fraction(x, d))
             for x in {x for vec in pairs.values() for x in vec.values()}}
    constants = [[i, j, k, texts[pairs[(i, j)][k]]]
                 for (i, j) in sorted(pairs) for k in sorted(pairs[(i, j)])]
    doc = {
        "format_version": FORMAT_VERSION,
        "name": name if name is not None else alg.name,
        "even_dim": alg.space.even_dim,
        "odd_dim": alg.space.odd_dim,
        "constants": constants,
        "gram": [[i, j, scalar_text(x)]
                 for (i, j), x in q.form.entries.items()],
    }
    if operator is not None:
        doc["operator"] = _operator_block(operator)
    if gde is not None:
        doc["gde"] = _gde_block(gde)
    return doc


def emit_document(q: QuadraticAlgebra, name=None, operator=None,
                  gde=None) -> str:
    return canonical_json(document_object(q, name=name, operator=operator,
                                          gde=gde))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _expect(cond, msg, *args):
    """Raise a syntax error unless cond; msg % args is formatted only then."""
    if not cond:
        raise DocumentSyntaxError(msg % args)


# What document_object and tree_object emit: for each object, the keys
# emit always writes and the keys it may write, each with its JSON type
# (int excludes true and false).  Nothing else is accepted.
_SCHEMA = {
    "document": ({"format_version": int, "name": str, "even_dim": int,
                  "odd_dim": int, "constants": list, "gram": list},
                 {"operator": dict, "gde": dict}),
    "operator": ({"parity": str, "entries": list}, {}),
    "gde": ({"d": list, "a0": list}, {}),
    "leaf": ({"kind": str, "label": str, "note": str, "document": dict},
             {}),
    "sum": ({"kind": str, "document": dict, "basis": list,
             "exhaustive": bool, "children": list}, {}),
    "odd_gde": ({"kind": str, "document": dict, "basis": list,
                 "gde": dict, "child": dict}, {}),
    "even_de": ({"kind": str, "document": dict, "basis": list,
                 "operator": dict, "child": dict}, {}),
}

_NODE_KINDS = ("leaf", "sum", "odd_gde", "even_de")


def _walk(obj, what, optional=None):
    """Check obj against the schema of `what`: every key emit always
    writes, no other key than emit may write (or than `optional`, where
    given), each of its JSON type."""
    _expect(type(obj) is dict, "%s must be an object", what)
    required, may = _SCHEMA[what]
    if dict(zip(obj, map(type, obj.values()))) == required:
        return  # the common case: exactly the keys emit always writes
    optional = may if optional is None else optional
    for key in required:
        _expect(key in obj, "%s needs %r", what, key)
    for key, value in obj.items():
        kind = required.get(key) or optional.get(key)
        _expect(kind is not None, "%s has unknown key %r", what, key)
        _expect(type(value) is kind, "%s field %r has the wrong type", what,
                key)


def _entries(rows, arity, n, what):
    """{(i_1, .., i_arity-1): {i_arity: x}} from sorted, unique, in-range,
    nonzero rows [i_1, .., i_arity, "num/den"], checked in one pass."""
    out, prev, ints = {}, [-1], [int] * arity
    for row in rows:
        if type(row) is not list or len(row) != arity + 1:
            raise DocumentSyntaxError("%s entry shape" % what)
        key = row[:arity]
        if list(map(type, key)) != ints or min(key) < 0 or max(key) >= n:
            raise DocumentSyntaxError("%s indices must be integers in range"
                                      % what)
        if key <= prev:
            raise DocumentSyntaxError("%s must be sorted and unique" % what)
        if row[arity] == _ZERO_TEXT:
            raise DocumentSyntaxError("%s entries must be nonzero" % what)
        if key[:-1] != prev[:-1]:
            vec = out[tuple(key[:-1])] = {}
        vec[key[-1]] = parse_scalar(row[arity])  # canonical, so nonzero
        prev = key
    return out


def _matrix(cls, rows, n, what, parity=EVEN):
    """The n x n SparseMatrix `cls` whose nonzeros are the checked rows."""
    return cls.__new__(cls)._store(n, {
        (i, j): x for (i,), vec in _entries(rows, 2, n, what).items()
        for j, x in vec.items()}, parity)


def _read_operator(block, space):
    """An operator block acting on `space`."""
    _walk(block, "operator")
    _expect(block["parity"] in ("even", "odd"), "operator parity")
    return _matrix(OperatorMap, block["entries"], space.dim, "operator",
                   EVEN if block["parity"] == "even" else ODD
                   ).validate_parity(space)


def _read_gde(block, space):
    """A gde block acting on `space`, not yet verified."""
    _walk(block, "gde")
    d = _matrix(OperatorMap, block["d"], space.dim, "operator",
                ODD).validate_parity(space)
    _expect(len(block["a0"]) == space.dim,
            "a0 must list one scalar per basis vector")
    return GdeData(d, Element.sparse(space.dim, _nonzeros(block["a0"])))


def _nonzeros(texts):
    """{i: value} for the nonzero scalars: each text but 0/1 is parsed."""
    return {i: parse_scalar(text) for i, text in enumerate(texts)
            if text != _ZERO_TEXT}


def _read_document(obj, blocks=True):
    """A decoded document: schema and grading gates, no axioms.  With
    blocks False, as in a tree node's document, which tree_object writes
    bare, an operator or gde key is unknown."""
    _walk(obj, "document", None if blocks else {})
    _expect(obj["format_version"] == FORMAT_VERSION,
            "unsupported format_version")
    p, qd = obj["even_dim"], obj["odd_dim"]
    _expect(p >= 0 and qd >= 0, "dimensions must be non-negative integers")
    if p + qd > MAX_DIM:
        raise DocumentSyntaxError("dimension %s exceeds the cap of %d"
                                  % (Decimal(p + qd), MAX_DIM))
    space = SuperSpace(p, qd)
    n = space.dim
    pairs = _entries(obj["constants"], 3, n, "constants")
    gram = _matrix(BilinearForm, obj["gram"], n, "gram")
    # grading gates (distinct from syntax): the Gram's evenness, then the
    # constants' grading in the store; D is their lcm, so needs no gcd
    for (i, j) in gram.entries:
        if (i < p) != (j < p):
            raise GradingError("evenness violated at gram entry (%d,%d)"
                               % (i, j))
    algebra = SuperAlgebra.__new__(SuperAlgebra)._store(
        space, *linalg.scaled(pairs), obj["name"])
    q = QuadraticAlgebra(algebra, gram, validated=False)
    operator = (_read_operator(obj["operator"], space)
                if "operator" in obj else None)
    gde = _read_gde(obj["gde"], space) if "gde" in obj else None
    return q, operator, gde


def _load(text, read):
    """read(the decoded text).  This is the one JSON-decoding site: text
    that is not JSON, that holds an integer literal too long for int, or
    that nests deeper than the decoder or the reader can follow, is a
    syntax error."""
    try:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentSyntaxError("not valid JSON: %s" % exc) from exc
        except ValueError as exc:  # past the digit limit of int's conversion
            raise DocumentSyntaxError("integer literal is too long") from exc
        return read(obj)
    except RecursionError:
        raise DocumentSyntaxError("input nests too deeply") from None


def parse_document(text):
    """Syntax, schema, and grading gates; returns raw objects, no axioms.

    Returns (QuadraticAlgebra(validated=False), operator or None,
    GdeData or None).
    """
    return _load(text, _read_document)


def parse_algebra_document(text):
    """Parse and fully validate; the error names the failing axiom."""
    q, operator, gde = parse_document(text)
    validated = QuadraticAlgebra.validate(q.algebra, q.form)
    return validated, operator, gde


# ---------------------------------------------------------------------------
# decomposition trees

def tree_object(node):
    if isinstance(node, dc.DecompositionTree):
        return tree_object(node.root)
    doc = document_object(node.algebra)
    if node.kind == "leaf":
        return {"kind": "leaf", "label": node.label.tag,
                "note": node.note, "document": doc}
    basis = [vector_texts(col, node.algebra.dim) for col in node.basis]
    if node.kind == "sum":
        return {"kind": "sum", "document": doc, "basis": basis,
                "exhaustive": node.exhaustive,
                "children": [tree_object(c) for c in node.children]}
    if node.kind == "odd_gde":
        return {"kind": "odd_gde", "document": doc, "basis": basis,
                "gde": _gde_block(node.gde),
                "child": tree_object(node.child)}
    if node.kind == "even_de":
        return {"kind": "even_de", "document": doc, "basis": basis,
                "operator": _operator_block(node.operator),
                "child": tree_object(node.child)}
    raise InputError("unknown node kind %r" % (node.kind,))


def emit_tree(tree) -> str:
    return canonical_json(tree_object(tree))


def parse_tree(text):
    """Syntax, schema and grading gates on every node; only the leaves'
    documents are validated.  Sum and extension nodes come back with
    unvalidated algebras, which decompose.rebuild certifies against what
    it rebuilds from their children."""
    return _load(text, _read_tree)


def _read_tree(obj):
    _expect(type(obj) is dict, "tree node must be an object")
    kind = obj.get("kind")
    _expect(kind in _NODE_KINDS, "unknown tree node kind %r", kind)
    _walk(obj, kind)
    q, _op, _gde = _read_document(obj["document"], blocks=False)
    if kind == "leaf":
        return dc.Leaf(QuadraticAlgebra.validate(q.algebra, q.form),
                       dc.ULabel(obj["label"]), note=obj["note"])
    cols = obj["basis"]
    n = q.dim
    shaped = len(cols) == n and all(type(c) is list and len(c) == n
                                    for c in cols)
    if not shaped:
        # a document that fails an axiom is named before its basis, as
        # when every node was validated on reading
        QuadraticAlgebra.validate(q.algebra, q.form)
    _expect(shaped, "basis must list %d columns of %d scalars", n, n)
    basis = tuple(map(_nonzeros, cols))
    if kind == "sum":
        _expect(obj["children"], "sum node needs children")
        children = tuple(_read_tree(c) for c in obj["children"])
        return dc.SumNode(q, children, basis, exhaustive=obj["exhaustive"])
    # the stored data acts on the child algebra, not on this node's
    child = _read_tree(obj["child"])
    space = child.algebra.space
    if kind == "odd_gde":
        return dc.OddExtensionNode(q, child, _read_gde(obj["gde"], space),
                                   basis)
    return dc.EvenExtensionNode(q, child,
                                _read_operator(obj["operator"], space), basis)
