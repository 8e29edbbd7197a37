"""Documents and trees that are not in canonical form exit 2, not 0 or 1."""

import json

import pytest

from qmalcev import (EVEN, OperatorMap, catalog_get, double_extension_even,
                     emit_document, emit_tree, inductive_decompose)
from qmalcev.cli import run
from qmalcev.document import (DocumentSyntaxError, canonical_json,
                              parse_document, parse_scalar, parse_tree)


def _cli(tmp_path, capsys, command, obj):
    path = tmp_path / "input.json"
    path.write_text(canonical_json(obj))
    code = run([command, str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code


def _operator_doc():
    doc = json.loads(emit_document(catalog_get("abelian", p=2, q=0).algebra))
    doc["operator"] = {"parity": "even",
                       "entries": [[0, 1, "-1/1"], [1, 0, "1/1"]]}
    return doc


@pytest.mark.parametrize("params,mutate", [
    ({"p": 1, "q": 0}, lambda d: d.update(even_dim=True)),
    ({"p": 0, "q": 0}, lambda d: d.update(odd_dim=False)),
    ({"p": 2, "q": 2}, lambda d: d.update(format_version=True)),
    ({"p": 2, "q": 2}, lambda d: d.update(format_version=1.0)),
    ({"p": 2, "q": 2}, lambda d: d["gram"][0].__setitem__(0, False)),
    ({"p": 2, "q": 2}, lambda d: d["gram"][3].__setitem__(1, True)),
], ids=["even_dim", "odd_dim", "format_version", "format_float",
        "gram_row", "gram_column"])
def test_booleans_are_not_integers(tmp_path, capsys, params, mutate):
    doc = json.loads(emit_document(catalog_get("abelian", **params).algebra))
    mutate(doc)
    with pytest.raises(DocumentSyntaxError):
        parse_document(canonical_json(doc))
    assert _cli(tmp_path, capsys, "check", doc) == 2


def test_boolean_constant_index_rejected(tmp_path, capsys):
    doc = json.loads(emit_document(catalog_get("sl2").algebra))
    assert doc["constants"][0][:2] == [0, 1]
    doc["constants"][0][0] = False
    assert _cli(tmp_path, capsys, "check", doc) == 2


def test_boolean_operator_index_rejected(tmp_path, capsys):
    doc = _operator_doc()
    doc["operator"]["entries"][1][0] = True
    assert _cli(tmp_path, capsys, "operator-check", doc) == 2


@pytest.mark.parametrize("text", [
    " 2/1", "2/1 ", "+2/1", "2_0/1", "1/1_0", "٢/1", "-0/1", "02/1",
    "2/01", "0/2", "1/0", "2/-1", "--1/2", "1/2/3", "1 /2"])
def test_non_canonical_scalars_rejected(tmp_path, capsys, text):
    with pytest.raises(DocumentSyntaxError):
        parse_scalar(text)
    doc = json.loads(emit_document(catalog_get("sl2").algebra))
    doc["gram"][0][2] = text
    assert _cli(tmp_path, capsys, "check", doc) == 2


def test_canonical_scalars_accepted():
    assert parse_scalar("0/1") == 0
    assert parse_scalar("-12/35") * 35 == -12


def _odd_tree():
    q = catalog_get("example_gde", n=1, m=(2,)).algebra
    return json.loads(emit_tree(inductive_decompose(q)))


def _even_tree():
    base = catalog_get("abelian", p=2, q=0).algebra
    rot = OperatorMap([[0, -1], [1, 0]], EVEN)
    osc, _ = double_extension_even(base, rot)
    return json.loads(emit_tree(inductive_decompose(osc)))


def _sum_tree():
    q = catalog_get("sl2").algebra
    doc = json.loads(emit_document(q))
    leaf = json.loads(emit_tree(inductive_decompose(q)))
    cols = [["1/1" if r == c else "0/1" for r in range(3)] for c in range(3)]
    return {"kind": "sum", "document": doc, "basis": cols,
            "exhaustive": True, "children": [leaf]}


def test_trees_used_below_rebuild(tmp_path, capsys):
    for tree in (_odd_tree(), _even_tree(), _sum_tree()):
        assert _cli(tmp_path, capsys, "rebuild", tree) == 0
    assert _even_tree()["kind"] == "even_de"


@pytest.mark.parametrize("make,mutate", [
    (_odd_tree, lambda t: t.pop("child")),
    (_odd_tree, lambda t: t.pop("gde")),
    (_odd_tree, lambda t: t.pop("basis")),
    (_odd_tree, lambda t: t.update(basis="1/1")),
    (_odd_tree, lambda t: t["basis"].pop()),
    (_odd_tree, lambda t: t["basis"][0].pop()),
    (_odd_tree, lambda t: t["gde"].pop("a0")),
    (_odd_tree, lambda t: t["gde"]["a0"].pop()),
    (_odd_tree, lambda t: t["gde"].update(d={})),
    (_odd_tree, lambda t: t.update(child=[])),
    (_even_tree, lambda t: t.pop("child")),
    (_even_tree, lambda t: t.pop("operator")),
    (_even_tree, lambda t: t["operator"].pop("parity")),
    (_even_tree, lambda t: t["operator"].update(entries=7)),
    (_sum_tree, lambda t: t.pop("children")),
    (_sum_tree, lambda t: t.update(children={"kind": "leaf"})),
    (_sum_tree, lambda t: t.update(children=[])),
    (_sum_tree, lambda t: t.update(exhaustive="yes")),
    (_sum_tree, lambda t: t["children"][0].update(label=["x"])),
    (_sum_tree, lambda t: t["children"][0].update(note=3)),
])
def test_malformed_tree_nodes_exit_2(tmp_path, capsys, make, mutate):
    tree = make()
    mutate(tree)
    with pytest.raises(DocumentSyntaxError):
        parse_tree(canonical_json(tree))
    assert _cli(tmp_path, capsys, "rebuild", tree) == 2
