"""Documents and trees that are not in canonical form exit 2, not 0 or 1;
trees whose stored documents do not match what they rebuild exit 3."""

import json
import time
from fractions import Fraction

import pytest

from qmalcev import (EVEN, OperatorMap, catalog_get, direct_sum_quadratic,
                     double_extension_even, emit_document, emit_tree,
                     inductive_decompose, rebuild)
from qmalcev import document
from qmalcev.cli import run
from qmalcev.document import (MAX_DIM, DocumentSyntaxError, canonical_json,
                              parse_algebra_document, parse_document,
                              parse_scalar, parse_tree)
from qmalcev.errors import AxiomError


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


@pytest.mark.parametrize("text", [
    "0/1", "-12/35", "7/1", "1" * 62 + "/1", "1" * 63 + "/1",
    "9" * 5000 + "/1", "2/4", "0/2", " 2/1", "٢/1", "", "1" * 70 + "/0",
    None, 3, 2.5, ["1/2"], {"1/2": 1}, b"1/2"])
def test_cached_scalars_read_as_uncached(text):
    """Texts of at most 64 characters are read through a cache, twice
    here so that the second read of a valid one is a hit; longer texts and
    other values bypass it.  Either way every value gives the same Fraction
    or the same DocumentSyntaxError as the uncached reader."""
    def outcome(read):
        try:
            value = read(text)
        except DocumentSyntaxError as exc:
            return "error", str(exc)
        return "value", value, type(value)

    cache = document._parse_short_scalar
    cache.cache_clear()
    expected = outcome(document._parse_scalar)
    assert outcome(parse_scalar) == outcome(parse_scalar) == expected
    if not (isinstance(text, str) and len(text) <= 64):
        calls = (0, 0)  # (hits, misses): the cache is bypassed
    elif expected[0] == "value":
        calls = (1, 1)  # read once, then a hit
    else:
        calls = (0, 2)  # an error is not cached
    assert cache.cache_info()[:2] == calls


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
    (_sum_tree, lambda t: t["children"][0].pop("label")),
    (_sum_tree, lambda t: t["children"][0].pop("note")),
    (_sum_tree, lambda t: t.pop("exhaustive")),
    (_sum_tree, lambda t: t.pop("document")),
    (_sum_tree, lambda t: t.update(kind="document")),
    (_sum_tree, lambda t: t.update(extra=1)),
    (_sum_tree, lambda t: t["children"][0].update(child={})),
    (_sum_tree, lambda t: t["document"].update(extra=1)),
    (_odd_tree, lambda t: t["gde"].update(entries=[])),
    (_even_tree, lambda t: t["operator"].pop("entries")),
    (_even_tree, lambda t: t["operator"].update(d=[])),
    (_even_tree, lambda t: t.update(gde=t["operator"])),
])
def test_malformed_tree_nodes_exit_2(tmp_path, capsys, make, mutate):
    tree = make()
    mutate(tree)
    with pytest.raises(DocumentSyntaxError):
        parse_tree(canonical_json(tree))
    assert _cli(tmp_path, capsys, "rebuild", tree) == 2


def _gde_doc():
    entry = catalog_get("example_M", n=1, m=(1,))
    return json.loads(emit_document(entry.algebra, gde=entry.extras))


@pytest.mark.parametrize("make,mutate", [
    (_operator_doc, lambda d: d.update(extra=1)),
    (_operator_doc, lambda d: d.pop("name")),
    (_operator_doc, lambda d: d.pop("gram")),
    (_operator_doc, lambda d: d.update(name=7)),
    (_operator_doc, lambda d: d["operator"].pop("entries")),
    (_operator_doc, lambda d: d["operator"].pop("parity")),
    (_operator_doc, lambda d: d["operator"].update(parity="none")),
    (_operator_doc, lambda d: d["operator"].update(a0=[])),
    (_operator_doc, lambda d: d.update(operator=[])),
    (_gde_doc, lambda d: d["gde"].pop("d")),
    (_gde_doc, lambda d: d["gde"].pop("a0")),
    (_gde_doc, lambda d: d["gde"].update(parity="odd")),
    (_gde_doc, lambda d: d["gde"]["a0"].pop()),
    (_gde_doc, lambda d: d["gde"].update(d={})),
])
def test_malformed_documents_exit_2(tmp_path, capsys, make, mutate):
    doc = make()
    assert _cli(tmp_path, capsys, "check", doc) == 0
    mutate(doc)
    with pytest.raises(DocumentSyntaxError):
        parse_document(canonical_json(doc))
    assert _cli(tmp_path, capsys, "check", doc) == 2


def _nested_sums(depth):
    """A sum of one sum of ... of one one_dim_lie leaf, `depth` sums deep,
    as JSON text (json.dumps itself would recurse too deeply)."""
    doc = emit_document(catalog_get("one_dim_lie").algebra).strip()
    leaf = ('{"document":%s,"kind":"leaf","label":"one_dim_lie",'
            '"note":""}' % doc)
    return ('{"basis":[["1/1"]],"children":[' * depth + leaf
            + '],"document":%s,"exhaustive":true,"kind":"sum"}' % doc * depth)


@pytest.mark.parametrize("command,text", [
    ("check", "[" * 200000 + "]" * 200000),
    ("rebuild", "[" * 200000 + "]" * 200000),
    ("rebuild", _nested_sums(500)),
], ids=["check_brackets", "rebuild_brackets", "rebuild_500_sums"])
def test_deep_nesting_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run([command, str(path)]) == 2
    assert "nests too deeply" in capsys.readouterr().err
    if command == "rebuild":
        with pytest.raises(DocumentSyntaxError):
            parse_tree(text)
    shallow = tmp_path / "shallow.json"
    shallow.write_text(_nested_sums(50))
    assert run(["rebuild", str(shallow)]) == 0


def _sl2_line_tree():
    """sl2 + a one-dimensional line: a (4|0) sum of two leaves."""
    q = direct_sum_quadratic(catalog_get("sl2").algebra,
                             catalog_get("abelian", p=1, q=0).algebra)
    return json.loads(emit_tree(inductive_decompose(q)))


def _swap_root(tree):
    tree["document"] = json.loads(emit_document(
        catalog_get("abelian", p=4, q=0).algebra))


def _swap_odd_child(tree):
    # the child node of example_gde(1; 2) is (1|2); store abelian(1,2) there
    tree["child"]["document"] = json.loads(emit_document(
        catalog_get("abelian", p=1, q=2).algebra))


@pytest.mark.parametrize("make,mutate", [
    (_sl2_line_tree, _swap_root),
    (_sl2_line_tree, lambda t: t["children"].pop()),
    (_odd_tree, _swap_odd_child),
], ids=["swapped_root", "dropped_child", "swapped_odd_child"])
def test_rebuild_checks_stored_documents(tmp_path, capsys, make, mutate):
    tree = make()
    assert _cli(tmp_path, capsys, "rebuild", tree) == 0
    mutate(tree)
    with pytest.raises(AxiomError, match="does not match its stored"):
        rebuild(parse_tree(canonical_json(tree)))
    assert _cli(tmp_path, capsys, "rebuild", tree) == 3


def _relabel(index, tag):
    def mutate(tree):
        tree["children"][index]["label"] = tag
    return mutate


@pytest.mark.parametrize("mutate", [
    _relabel(0, "zero"), _relabel(0, "simple_lie_superalgebra"),
    _relabel(1, "one_dim_lie"), _relabel(1, "zero"),
], ids=["line_as_zero", "line_as_simple", "sl2_as_line", "sl2_as_zero"])
def test_rebuild_checks_the_tags_a_dimension_decides(tmp_path, capsys,
                                                     mutate):
    tree = _sl2_line_tree()
    assert [c["label"] for c in tree["children"]] == [
        "one_dim_lie", "simple_lie_superalgebra"]
    mutate(tree)
    with pytest.raises(AxiomError, match="is labelled"):
        rebuild(parse_tree(canonical_json(tree)))
    assert _cli(tmp_path, capsys, "rebuild", tree) == 3


@pytest.mark.parametrize("tag", ["one_dim_lie", "not_in_U"])
def test_rebuild_checks_the_zero_leaf_tag(tmp_path, capsys, tag):
    tree = json.loads(emit_tree(inductive_decompose(
        catalog_get("zero").algebra)))
    assert tree["label"] == "zero"
    assert _cli(tmp_path, capsys, "rebuild", tree) == 0
    tree["label"] = tag
    assert _cli(tmp_path, capsys, "rebuild", tree) == 3


@pytest.mark.parametrize("m", [
    "1,abc", "1,1/0", "1,2/00", "0.5,1", "1e2,1", "1,,2", "1,2,", "",
    "+1,2", " 1,2", "1_0,2", "١,2", "1/-2,1", "1/2/3,1", "inf,1"])
def test_catalog_m_must_be_integers_or_fractions(capsys, m):
    assert run(["catalog", "example_gde", "--n", "2", "--m", m]) == 2
    assert "argument --m" in capsys.readouterr().err


@pytest.mark.parametrize("n,m,want", [
    (1, "1", (1,)), (1, "-2", (-2,)), (1, "1/2", (Fraction(1, 2),)),
    (2, "1,2", (1, 2)), (2, "-3/6,01", (Fraction(-1, 2), 1))])
def test_catalog_m_spellings_accepted(capsys, n, m, want):
    assert run(["catalog", "example_gde", "--n", str(n), "--m=" + m]) == 0
    entry = catalog_get("example_gde", n=n, m=want)
    assert capsys.readouterr().out == emit_document(entry.algebra,
                                                    gde=entry.extras)


def _sized_doc(even_dim, odd_dim):
    return {"constants": [], "even_dim": even_dim, "format_version": 1,
            "gram": [], "name": "sized", "odd_dim": odd_dim}


@pytest.mark.parametrize("even_dim,odd_dim", [
    (10 ** 12, 0), (0, 10 ** 12), (MAX_DIM, 1), (MAX_DIM - 1, 2)])
def test_declared_dimension_above_the_cap_exits_2(tmp_path, capsys,
                                                  even_dim, odd_dim):
    doc = _sized_doc(even_dim, odd_dim)
    path = tmp_path / "input.json"
    path.write_text(canonical_json(doc))
    t0 = time.perf_counter()
    assert run(["check", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the cap" in capsys.readouterr().err
    leaf = {"document": doc, "kind": "leaf", "label": "x", "note": ""}
    assert _cli(tmp_path, capsys, "rebuild", leaf) == 2
    tree = _sum_tree()
    tree["children"][0]["document"] = doc
    assert _cli(tmp_path, capsys, "rebuild", tree) == 2


def test_declared_dimension_at_the_cap_is_read():
    q, _op, _gde = parse_document(canonical_json(_sized_doc(MAX_DIM - 2, 2)))
    assert q.dim == MAX_DIM


@pytest.mark.parametrize("argv", [
    ["abelian", "--p", str(10 ** 12), "--q", "0"],
    ["abelian", "--p", "0", "--q", str(10 ** 12)],
    ["abelian", "--p", str(MAX_DIM + 1), "--q", "0"],
    ["example_gde", "--n", str(10 ** 12), "--m", "1"],
    ["abelian", "--p", "1000", "--q", "100"],
    ["example_M", "--n", "512", "--m", "1"],
    ["example_gde", "--n", "511", "--m", "1"],
], ids=["p", "q", "p_cap_plus_1", "n", "p_plus_q", "example_M_dim",
        "example_gde_dim"])
def test_catalog_values_above_the_cap_exit_2(capsys, argv):
    t0 = time.perf_counter()
    assert run(["catalog"] + argv) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the dimension cap" in capsys.readouterr().err


def test_catalog_entry_at_the_cap_is_emitted(capsys):
    assert run(["catalog", "abelian", "--p", "1000", "--q", "24"]) == 0
    q, _op, _gde = parse_document(capsys.readouterr().out)
    assert q.dim == MAX_DIM


def _plane_line_tree():
    """abelian(2,0) + abelian(1,0): a sum node over three lines."""
    q = direct_sum_quadratic(catalog_get("abelian", p=2, q=0).algebra,
                             catalog_get("abelian", p=1, q=0).algebra)
    return json.loads(emit_tree(inductive_decompose(q)))


def _add_block(key, block, where=lambda t: t):
    def mutate(tree):
        where(tree)["document"][key] = block
    return mutate


_ROTATION_BLOCK = {"parity": "even", "entries": [[0, 1, "7/1"]]}


@pytest.mark.parametrize("make,mutate", [
    (_plane_line_tree, _add_block("operator", _ROTATION_BLOCK)),
    (_plane_line_tree, _add_block("operator", _ROTATION_BLOCK,
                                  lambda t: t["children"][0])),
    (_odd_tree, _add_block("gde", {"d": [], "a0": ["0/1"] * 5})),
    (_odd_tree, _add_block("operator", _ROTATION_BLOCK,
                           lambda t: t["child"])),
    (_even_tree, _add_block("operator", _ROTATION_BLOCK)),
], ids=["sum_operator", "leaf_operator", "odd_gde", "odd_child_operator",
        "even_operator"])
def test_blocks_in_tree_node_documents_exit_2(tmp_path, capsys, make,
                                              mutate):
    """tree_object never writes an operator or gde block into a node's
    document, so one there is an unknown key, not a block to drop."""
    tree = make()
    assert _cli(tmp_path, capsys, "rebuild", tree) == 0
    mutate(tree)
    key = "gde" if "gde" in tree["document"] else "operator"
    with pytest.raises(DocumentSyntaxError, match="unknown key %r" % key):
        parse_tree(canonical_json(tree))
    assert _cli(tmp_path, capsys, "rebuild", tree) == 2


def _stderr(tmp_path, capsys, tree, command="rebuild"):
    path = tmp_path / "input.json"
    path.write_text(canonical_json(tree))
    code = run([command, str(path)])
    return code, capsys.readouterr().err


def _set_first_constant(where=lambda t: t):
    def mutate(tree):
        where(tree)["document"]["constants"][0][3] = "7/1"
    return mutate


# parse_tree validates only the leaves' documents; rebuild certifies the
# others and, when one fails, reports what validating it on reading did
@pytest.mark.parametrize("make,mutate,err", [
    (_sl2_line_tree, _set_first_constant(),
     "validation error (axiom): form axioms failed: invariant\n"),
    (_sl2_line_tree, lambda t: t["document"]["gram"].pop(0),
     "validation error (axiom): form axioms failed: nondegenerate, "
     "invariant\n"),
    (_odd_tree, _set_first_constant(lambda t: t["child"]),
     "validation error (axiom): form axioms failed: invariant\n"),
    (_even_tree, _set_first_constant(),
     "validation error (axiom): form axioms failed: invariant\n"),
], ids=["sum_constant", "sum_gram_row", "odd_child_constant",
        "even_constant"])
def test_invalid_non_leaf_documents_exit_3(tmp_path, capsys, make, mutate,
                                           err):
    tree = make()
    assert tree["kind"] != "leaf"
    mutate(tree)
    parse_tree(canonical_json(tree))
    assert _stderr(tmp_path, capsys, tree) == (3, err)


@pytest.mark.parametrize("make,key", [
    (_sl2_line_tree, "even_dim"), (_odd_tree, "odd_dim")])
def test_resized_non_leaf_document_is_named_before_its_basis(
        tmp_path, capsys, make, key):
    """A node document whose dimension no longer fits its basis fails an
    axiom; that is reported, not the basis shape."""
    tree = make()
    tree["document"][key] += 1
    with pytest.raises(AxiomError, match="nondegenerate"):
        parse_tree(canonical_json(tree))
    assert _stderr(tmp_path, capsys, tree) == (
        3, "validation error (axiom): form axioms failed: nondegenerate\n")


def _equal_columns(tree):
    tree["basis"][1] = list(tree["basis"][0])


def _zero_basis(tree):
    tree["basis"] = [["0/1"] * len(col) for col in tree["basis"]]


@pytest.mark.parametrize("make", [_sl2_line_tree, _odd_tree, _even_tree],
                         ids=["sum", "odd_gde", "even_de"])
@pytest.mark.parametrize("mutate", [_equal_columns, _zero_basis],
                         ids=["equal_columns", "zero_basis"])
def test_singular_basis_exits_2(tmp_path, capsys, make, mutate):
    tree = make()
    mutate(tree)
    assert _stderr(tmp_path, capsys, tree) == (
        2, "input error: corrupted witness: singular basis\n")


def _swap_columns(a, b):
    def mutate(tree):
        tree["basis"][a], tree["basis"][b] = tree["basis"][b], tree["basis"][a]
    return mutate


def _set_basis_entry(col, row):
    def mutate(tree):
        tree["basis"][col][row] = "1/1"
    return mutate


# the odd tree's root is (1|4): column 0 is its even basis vector
@pytest.mark.parametrize("mutate,err", [
    (_set_basis_entry(0, 1), "basis column is not parity-homogeneous"),
    (_set_basis_entry(1, 0), "basis column is not parity-homogeneous"),
    (_swap_columns(0, 1), "basis columns must be ordered even-first"),
    (_swap_columns(0, 4), "basis columns must be ordered even-first"),
], ids=["even_column_mixed", "odd_column_mixed", "swap_0_1", "swap_0_4"])
def test_inhomogeneous_basis_exits_3(tmp_path, capsys, mutate, err):
    tree = _odd_tree()
    mutate(tree)
    assert _stderr(tmp_path, capsys, tree) == (
        3, "validation error (grading): %s\n" % err)


# b_0 b_0 = b_1 on the even hyperbolic plane: the four form axioms and the
# Malcev identity hold, but the product is not super-anticommutative
_NOT_ANTICOMMUTATIVE = {
    "constants": [[0, 0, 1, "1/1"]], "even_dim": 2, "format_version": 1,
    "gram": [[0, 1, "1/1"], [1, 0, "1/1"]], "name": "nac", "odd_dim": 0}
_ANTICOMMUTATIVITY_ERR = ("validation error (axiom): super-anticommutativity "
                          "failed with 1 witnesses\n  witness (0, 0)\n")


def test_check_reports_the_anticommutativity_failure(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(canonical_json(_NOT_ANTICOMMUTATIVE))
    assert run(["check", str(path)]) == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [name for name, rep in sorted(checks.items())
            if not rep["passed"]] == ["anticommutativity"]
    with pytest.raises(AxiomError, match="super-anticommutativity"):
        parse_algebra_document(canonical_json(_NOT_ANTICOMMUTATIVE))


@pytest.mark.parametrize("command", ["center", "decompose", "reduce"])
def test_non_anticommutative_document_exits_3(tmp_path, capsys, command):
    assert _stderr(tmp_path, capsys, _NOT_ANTICOMMUTATIVE, command) == (
        3, _ANTICOMMUTATIVITY_ERR)


def test_non_anticommutative_leaf_exits_3(tmp_path, capsys):
    tree = {"kind": "leaf", "label": "not_in_U", "note": "",
            "document": _NOT_ANTICOMMUTATIVE}
    assert _stderr(tmp_path, capsys, tree) == (3, _ANTICOMMUTATIVITY_ERR)
