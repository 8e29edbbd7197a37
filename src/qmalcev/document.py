"""Bit-exact JSON documents for algebras, forms, operators, and trees.

Scalars are serialized as "num/den" in lowest terms with an explicit
denominator; constant and Gram entries are sorted lexicographically and
must be nonzero, so emitting a parsed document is byte-identical.  Parse
errors are classified: syntax (malformed JSON or schema), grading
violations, and axiom failures are distinct error types.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .core import EVEN, ODD, Element, SuperAlgebra, SuperSpace
from .errors import GradingError, InputError
from .extensions import GdeData
from .linalg import ZERO
from .operators import OperatorMap
from .quadratic import BilinearForm, QuadraticAlgebra

FORMAT_VERSION = 1


class DocumentSyntaxError(InputError):
    """Malformed document text or schema."""


def scalar_text(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


# What scalar_text emits: ASCII digits, an optional leading '-', no leading
# zeros; the lowest-terms check in parse_scalar leaves 0/1 the only zero.
_SCALAR = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def parse_scalar(text) -> Fraction:
    match = _SCALAR.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise DocumentSyntaxError("scalar %r is not 'num/den' text" % (text,))
    den = int(match.group(2))
    value = Fraction(int(match.group(1)), den)
    if value.denominator != den:
        raise DocumentSyntaxError("scalar %r is not in lowest terms"
                                  % (text,))
    return value


def _operator_block(op: OperatorMap):
    entries = []
    for r in range(op.dim):
        for c in range(op.dim):
            if op.matrix[r][c] != 0:
                entries.append([r, c, scalar_text(op.matrix[r][c])])
    entries.sort(key=lambda e: (e[0], e[1]))
    return {"parity": "even" if op.parity == EVEN else "odd",
            "entries": entries}


def _gde_block(g: GdeData):
    block = _operator_block(g.d)
    return {"d": block["entries"],
            "a0": [scalar_text(c) for c in g.a0.coords]}


def document_object(q: QuadraticAlgebra, name=None, operator=None, gde=None):
    alg = q.algebra
    constants = [[i, j, k, scalar_text(c)]
                 for (i, j, k), c in sorted(alg.constants.items())]
    gram = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            v = q.form.gram[i][j]
            if v != 0:
                gram.append([i, j, scalar_text(v)])
    doc = {
        "format_version": FORMAT_VERSION,
        "name": name if name is not None else alg.name,
        "even_dim": alg.space.even_dim,
        "odd_dim": alg.space.odd_dim,
        "constants": constants,
        "gram": gram,
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


def _expect(cond, msg):
    if not cond:
        raise DocumentSyntaxError(msg)


def _is_int(x):
    """A JSON integer; true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _field(obj, key, kind, what):
    """obj[key], which must be present and of the given type."""
    _expect(key in obj, "%s needs %r" % (what, key))
    _expect(isinstance(obj[key], kind), "%s field %r has the wrong type"
            % (what, key))
    return obj[key]


def _parse_operator_entries(entries, space, parity):
    n = space.dim
    m = [[ZERO] * n for _ in range(n)]
    prev = None
    _expect(isinstance(entries, list), "operator entries must be a list")
    for e in entries:
        _expect(isinstance(e, list) and len(e) == 3, "operator entry shape")
        r, c, s = e
        _expect(_is_int(r) and _is_int(c), "operator indices")
        _expect(0 <= r < n and 0 <= c < n, "operator index out of range")
        key = (r, c)
        _expect(prev is None or key > prev, "operator entries must be sorted")
        prev = key
        v = parse_scalar(s)
        _expect(v != 0, "operator entries must be nonzero")
        m[r][c] = v
    op = OperatorMap(m, parity)
    op.validate_parity(space)
    return op


def parse_document(text):
    """Syntax, schema, and grading gates; returns raw objects, no axioms.

    Returns (QuadraticAlgebra(validated=False), operator or None,
    GdeData or None).
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError("not valid JSON: %s" % exc) from exc
    _expect(isinstance(obj, dict), "document must be an object")
    _expect(_is_int(obj.get("format_version"))
            and obj["format_version"] == FORMAT_VERSION,
            "unsupported format_version")
    for key in ("name", "even_dim", "odd_dim", "constants", "gram"):
        _expect(key in obj, "missing field %r" % key)
    name = obj["name"]
    _expect(isinstance(name, str), "name must be text")
    p, qd = obj["even_dim"], obj["odd_dim"]
    _expect(_is_int(p) and _is_int(qd) and p >= 0 and qd >= 0,
            "dimensions must be non-negative integers")
    space = SuperSpace(p, qd)
    n = space.dim

    constants = {}
    prev = None
    _expect(isinstance(obj["constants"], list), "constants must be a list")
    for e in obj["constants"]:
        _expect(isinstance(e, list) and len(e) == 4, "constant entry shape")
        i, j, k, s = e
        _expect(all(_is_int(x) for x in (i, j, k)),
                "constant indices must be integers")
        _expect(0 <= i < n and 0 <= j < n and 0 <= k < n,
                "constant index out of range")
        key = (i, j, k)
        _expect(prev is None or key > prev, "constants must be sorted and "
                                            "unique")
        prev = key
        v = parse_scalar(s)
        _expect(v != 0, "constant entries must be nonzero")
        constants[key] = v

    gram_entries = {}
    prev = None
    _expect(isinstance(obj["gram"], list), "gram must be a list")
    for e in obj["gram"]:
        _expect(isinstance(e, list) and len(e) == 3, "gram entry shape")
        i, j, s = e
        _expect(_is_int(i) and _is_int(j), "gram indices must be integers")
        _expect(0 <= i < n and 0 <= j < n, "gram index out of range")
        key = (i, j)
        _expect(prev is None or key > prev, "gram must be sorted and unique")
        prev = key
        v = parse_scalar(s)
        _expect(v != 0, "gram entries must be nonzero")
        gram_entries[key] = v

    # grading gates (distinct from syntax): constants grading is enforced by
    # the SuperAlgebra constructor; cross-parity gram entries violate
    # evenness
    for (i, j) in gram_entries:
        if space.parity(i) != space.parity(j):
            raise GradingError("evenness violated at gram entry (%d,%d)"
                               % (i, j))
    algebra = SuperAlgebra(space, constants, name=name)
    form = BilinearForm.from_entries(n, gram_entries)
    q = QuadraticAlgebra(algebra, form, validated=False)

    operator = None
    if "operator" in obj:
        block = obj["operator"]
        _expect(isinstance(block, dict), "operator must be an object")
        _expect(block.get("parity") in ("even", "odd"), "operator parity")
        parity = EVEN if block["parity"] == "even" else ODD
        operator = _parse_operator_entries(block.get("entries", []),
                                           space, parity)
    gde = None
    if "gde" in obj:
        block = obj["gde"]
        _expect(isinstance(block, dict), "gde must be an object")
        _expect("d" in block and "a0" in block, "gde needs d and a0")
        d = _parse_operator_entries(block["d"], space, ODD)
        a0_list = block["a0"]
        _expect(isinstance(a0_list, list) and len(a0_list) == n,
                "a0 must list one scalar per basis vector")
        a0 = Element.from_seq([parse_scalar(s) for s in a0_list])
        gde = GdeData(d, a0, verified=False)
    return q, operator, gde


def parse_algebra_document(text):
    """Parse and fully validate; the error names the failing axiom."""
    q, operator, gde = parse_document(text)
    validated = QuadraticAlgebra.validate(q.algebra, q.form)
    return validated, operator, gde


# ---------------------------------------------------------------------------
# decomposition trees

def tree_object(node):
    from . import decompose as dc

    if isinstance(node, dc.DecompositionTree):
        return tree_object(node.root)
    doc = document_object(node.algebra)
    if node.kind == "leaf":
        return {"kind": "leaf", "label": node.label.tag,
                "note": node.note, "document": doc}
    basis = [[scalar_text(x) for x in col] for col in node.basis]
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
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError("not valid JSON: %s" % exc) from exc
    return _parse_tree_object(obj)


def _parse_tree_object(obj):
    from . import decompose as dc

    _expect(isinstance(obj, dict), "tree node must be an object")
    kind = obj.get("kind")
    _expect("document" in obj, "tree node needs its document")
    q, _op, _gde = parse_algebra_document(canonical_json(obj["document"]))
    what = "%s node" % (kind,)
    if kind == "leaf":
        label = dc.ULabel(_field(obj, "label", str, what)
                          if "label" in obj else "not_in_U")
        note = _field(obj, "note", str, what) if "note" in obj else ""
        return dc.Leaf(q, label, note=note)
    cols = _field(obj, "basis", list, what)
    n = q.dim
    _expect(len(cols) == n and all(isinstance(c, list) and len(c) == n
                                   for c in cols),
            "basis must list %d columns of %d scalars" % (n, n))
    basis = tuple(tuple(parse_scalar(x) for x in col) for col in cols)
    if kind == "sum":
        nodes = _field(obj, "children", list, what)
        _expect(nodes, "sum node needs children")
        exhaustive = obj.get("exhaustive", False)
        _expect(isinstance(exhaustive, bool), "exhaustive must be a boolean")
        children = tuple(_parse_tree_object(c) for c in nodes)
        return dc.SumNode(q, children, basis, exhaustive=exhaustive)
    if kind == "odd_gde":
        # the stored data acts on the child algebra, not on this node's
        child = _parse_tree_object(_field(obj, "child", dict, what))
        block = _field(obj, "gde", dict, what)
        space = child.algebra.space
        d = _parse_operator_entries(_field(block, "d", list, "gde"), space,
                                    ODD)
        a0_list = _field(block, "a0", list, "gde")
        _expect(len(a0_list) == space.dim,
                "a0 must list one scalar per basis vector")
        a0 = Element.from_seq([parse_scalar(s) for s in a0_list])
        gde = GdeData(d, a0, verified=False)
        return dc.OddExtensionNode(q, child, gde, basis)
    if kind == "even_de":
        child = _parse_tree_object(_field(obj, "child", dict, what))
        block = _field(obj, "operator", dict, what)
        _expect(block.get("parity") in ("even", "odd"), "operator parity")
        parity = EVEN if block["parity"] == "even" else ODD
        d = _parse_operator_entries(_field(block, "entries", list,
                                           "operator"),
                                    child.algebra.space, parity)
        return dc.EvenExtensionNode(q, child, d, basis)
    raise DocumentSyntaxError("unknown tree node kind %r" % (kind,))
