"""Which error the reader names when a document or tree is broken twice.

Each row breaks a canonical document (`check`) or tree (`rebuild`) twice,
in two places or one place two ways, and pins the exit code and the one
stderr line: the schema's missing key before an unknown key, the first
bad key in document order, a row's index range before its order, its
order before its scalar, a non-canonical zero as a syntax error wherever
it stands (constants, basis columns, a0), syntax before grading, the
Gram's grading before the constants', and a node's failing axiom before
its basis shape.  These are the orders a reader that checks each row in
one pass could change; every row passed before the reader did so.
"""

import json

import pytest

from qmalcev import catalog_get, direct_sum_quadratic, emit_document
from qmalcev import emit_tree, inductive_decompose
from qmalcev.cli import run
from qmalcev.document import canonical_json


def _doc(name, **params):
    entry = catalog_get(name, **params)
    return json.loads(emit_document(entry.algebra, gde=entry.extras))


def _osp():
    """osp(1|2) with an invariant form: (3|2), 18 constants."""
    return _doc("osp12")


def _gde_doc():
    """example_M(1; 1) with its gde block: (1|2)."""
    return _doc("example_M", n=1, m=(1,))


def _operator_doc():
    doc = _doc("abelian", p=2, q=0)
    doc["operator"] = {"parity": "even",
                       "entries": [[0, 1, "-1/1"], [1, 0, "1/1"]]}
    return doc


def _odd_tree():
    """example_gde(1; 2): an odd_gde node over an odd_gde node over a
    leaf."""
    q = catalog_get("example_gde", n=1, m=(2,)).algebra
    return json.loads(emit_tree(inductive_decompose(q)))


def _sum_tree():
    """sl2 + a line: a (4|0) sum of two leaves."""
    q = direct_sum_quadratic(catalog_get("sl2").algebra,
                             catalog_get("abelian", p=1, q=0).algebra)
    return json.loads(emit_tree(inductive_decompose(q)))


def _edits(*edits):
    """Apply each (path, value) in turn; a path is a tuple of keys and
    indices, a value None removes the last key."""
    def mutate(obj):
        for path, value in edits:
            at = obj
            for key in path[:-1]:
                at = at[key]
            if value is None:
                at.pop(path[-1])
            else:
                at[path[-1]] = value
    return mutate


def _insert(path, index, row):
    def mutate(obj):
        at = obj
        for key in path:
            at = at[key]
        at.insert(index, row)
    return mutate


def _both(*mutations):
    def mutate(obj):
        for m in mutations:
            m(obj)
    return mutate


_BROKEN_CHILD = _edits((("child", "document", "constants", 0, 3), "0/1"))
_PARSE, _GRADING, _AXIOM = ("parse error: ", "validation error (grading): ",
                            "validation error (axiom): ")

CASES = {
    # the schema: required keys, then each key in document order
    "missing_and_unknown_key": (
        _osp, _edits((("gram",), None), (("extra",), 1)),
        2, _PARSE + "document needs 'gram'"),
    "unknown_key_before_true": (
        _osp, _edits((("aaa",), 1), (("even_dim",), True)),
        2, _PARSE + "document has unknown key 'aaa'"),
    "true_before_unknown_key": (
        _osp, _edits((("zzz",), 1), (("even_dim",), True)),
        2, _PARSE + "document field 'even_dim' has the wrong type"),
    "true_index_and_zero": (
        _osp, _edits((("constants", 0, 0), True),
                     (("constants", 1, 3), "0/1")),
        2, _PARSE + "constants indices must be integers in range"),
    "true_gram_index_and_grading": (
        _osp, _edits((("constants", 0, 2), 3), (("gram", 0, 1), True)),
        2, _PARSE + "gram indices must be integers in range"),
    "operator_block_type_and_gram_zero": (
        _operator_doc, _edits((("operator",), []), (("gram", 0, 2), "0/1")),
        2, _PARSE + "document field 'operator' has the wrong type"),
    "operator_parity_type_and_zero": (
        _operator_doc, _edits((("operator", "parity"), 0),
                              (("operator", "entries", 0, 2), "0/1")),
        2, _PARSE + "operator field 'parity' has the wrong type"),
    # rows: shape, index range, order, scalar syntax, nonzeroness
    "out_of_range_in_unsorted_row": (
        _osp, _edits((("constants", 1), [0, 0, 9, "1/1"])),
        2, _PARSE + "constants indices must be integers in range"),
    "negative_index_in_unsorted_row": (
        _osp, _edits((("constants", 1), [0, -1, 1, "1/1"])),
        2, _PARSE + "constants indices must be integers in range"),
    "unsorted_zero_row": (
        _osp, _edits((("constants", 1), [0, 0, 1, "0/1"])),
        2, _PARSE + "constants must be sorted and unique"),
    "zero_before_duplicate_row": (
        _osp, _both(_edits((("constants", 0, 3), "0/1")),
                    _insert(("constants",), 2, [0, 2, 2, "-2/1"])),
        2, _PARSE + "constants entries must be nonzero"),
    "zero_then_non_canonical_zero": (
        _osp, _edits((("constants", 0, 3), "0/1"),
                     (("constants", 1, 3), "0/2")),
        2, _PARSE + "constants entries must be nonzero"),
    "constant_0_2": (
        _osp, _edits((("constants", 0, 3), "0/2"),
                     (("constants", 1, 3), "0/1")),
        2, _PARSE + "scalar '0/2' is not in lowest terms"),
    "constant_int_0": (
        _osp, _edits((("constants", 0, 3), 0), (("constants", 1, 3), "0/1")),
        2, _PARSE + "scalar 0 is not 'num/den' text"),
    "constant_minus_0_1": (
        _osp, _edits((("constants", 0, 3), "-0/1"),
                     (("constants", 1, 3), "0/1")),
        2, _PARSE + "scalar '-0/1' is not 'num/den' text"),
    "gram_zero_and_constants_grading": (
        _osp, _edits((("constants", 0, 2), 3), (("gram", 0, 2), "0/1")),
        2, _PARSE + "gram entries must be nonzero"),
    # grading: every syntax error first, then the Gram's, then the
    # constants', then the blocks'
    "constants_grading_and_gram_syntax": (
        _osp, _edits((("constants", 0, 2), 3), (("gram", 0, 2), "2/2")),
        2, _PARSE + "scalar '2/2' is not in lowest terms"),
    "constants_grading_and_cross_parity_gram": (
        _osp, _both(_edits((("constants", 0, 2), 3)),
                    _insert(("gram",), 1, [0, 3, "1/1"])),
        3, _GRADING + "evenness violated at gram entry (0,3)"),
    "two_constants_grading": (
        _osp, _edits((("constants", 0, 2), 3), (("constants", 1, 2), 4)),
        3, _GRADING + "constant (0,1,3) violates the grading"),
    "constants_grading_and_a0_0_2": (
        _gde_doc, _edits((("constants", 2, 2), 1),
                         (("gde", "a0", 1), "0/2")),
        3, _GRADING + "constant (1,1,1) violates the grading"),
    "constants_grading_and_operator_zero": (
        _gde_doc, _edits((("constants", 2, 2), 1),
                         (("gde", "d", 0, 2), "0/1")),
        3, _GRADING + "constant (1,1,1) violates the grading"),
    # a0: its operator d, then its length, then its scalars in order
    "d_zero_and_a0_0_2": (
        _gde_doc, _edits((("gde", "d", 0, 2), "0/1"),
                         (("gde", "a0", 1), "0/2")),
        2, _PARSE + "operator entries must be nonzero"),
    "a0_0_2_and_int_0": (
        _gde_doc, _edits((("gde", "a0", 1), "0/2"), (("gde", "a0", 2), 0)),
        2, _PARSE + "scalar '0/2' is not in lowest terms"),
    "a0_int_0_and_minus_0_1": (
        _gde_doc, _edits((("gde", "a0", 1), 0), (("gde", "a0", 2), "-0/1")),
        2, _PARSE + "scalar 0 is not 'num/den' text"),
    "a0_minus_0_1_and_0_2": (
        _gde_doc, _edits((("gde", "a0", 1), "-0/1"),
                         (("gde", "a0", 2), "0/2")),
        2, _PARSE + "scalar '-0/1' is not 'num/den' text"),
}

TREE_CASES = {
    "node_missing_and_unknown_key": (
        _sum_tree, _edits((("exhaustive",), None), (("extra",), 1)),
        2, _PARSE + "sum needs 'exhaustive'"),
    "node_document_block_and_zero": (
        _sum_tree, _edits((("document", "operator"), {}),
                          (("document", "constants", 0, 3), "0/1")),
        2, _PARSE + "document has unknown key 'operator'"),
    "leaf_true_index_and_axiom": (
        _sum_tree, _edits(
            (("children", 1, "document", "constants", 1, 3), "7/1"),
            (("children", 1, "document", "gram", 0, 0), True)),
        2, _PARSE + "gram indices must be integers in range"),
    "basis_0_2_and_broken_child": (
        _odd_tree, _both(_edits((("basis", 1, 0), "0/2")), _BROKEN_CHILD),
        2, _PARSE + "scalar '0/2' is not in lowest terms"),
    "basis_int_0_and_minus_0_1": (
        _odd_tree, _edits((("basis", 1, 0), 0), (("basis", 1, 1), "-0/1")),
        2, _PARSE + "scalar 0 is not 'num/den' text"),
    "basis_minus_0_1_and_0_2": (
        _odd_tree, _edits((("basis", 0, 1), "-0/1"), (("basis", 1, 0), "0/2")),
        2, _PARSE + "scalar '-0/1' is not 'num/den' text"),
    "sum_basis_0_2_and_leaf_zero": (
        _sum_tree, _edits(
            (("basis", 0, 1), "0/2"),
            (("children", 1, "document", "constants", 0, 3), "0/1")),
        2, _PARSE + "scalar '0/2' is not in lowest terms"),
    "a0_length_and_0_2": (
        _odd_tree, _edits((("gde", "a0"), ["0/2"] * 4)),
        2, _PARSE + "a0 must list one scalar per basis vector"),
    "a0_0_2_and_stored_document": (
        _odd_tree, _edits((("gde", "a0", 1), "0/2"),
                          (("document", "constants", 0, 3), "7/1")),
        2, _PARSE + "scalar '0/2' is not in lowest terms"),
    "broken_child_before_node_gde": (
        _odd_tree, _both(_edits((("gde", "a0", 1), "0/2")), _BROKEN_CHILD),
        2, _PARSE + "constants entries must be nonzero"),
    "unshaped_basis_and_axiom": (
        _sum_tree, _edits((("basis", 0), ["1/1"]),
                          (("document", "constants", 0, 3), "7/1")),
        3, _AXIOM + "form axioms failed: invariant"),
    "short_basis_and_axiom": (
        _odd_tree, _both(_edits((("document", "constants", 0, 3), "7/1")),
                         lambda t: t["basis"].pop()),
        3, _AXIOM + "form axioms failed: invariant"),
    # the control: on a document that validates, the basis shape is named
    "unshaped_basis_alone": (
        _sum_tree, _edits((("basis", 0), ["1/1"])),
        2, _PARSE + "basis must list 4 columns of 4 scalars"),
}


def _stderr(tmp_path, capsys, command, obj):
    path = tmp_path / "input.json"
    path.write_text(canonical_json(obj))
    code = run([command, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_error_precedence(tmp_path, capsys, name):
    make, mutate, code, line = CASES[name]
    doc = make()
    assert _stderr(tmp_path, capsys, "check", doc)[0] == 0
    mutate(doc)
    assert _stderr(tmp_path, capsys, "check", doc) == (code, "", line + "\n")


@pytest.mark.parametrize("name", sorted(TREE_CASES))
def test_tree_error_precedence(tmp_path, capsys, name):
    make, mutate, code, line = TREE_CASES[name]
    tree = make()
    assert _stderr(tmp_path, capsys, "rebuild", tree)[0] == 0
    mutate(tree)
    assert _stderr(tmp_path, capsys, "rebuild", tree) == (code, "",
                                                          line + "\n")
