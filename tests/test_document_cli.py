import hashlib
import io
import json

import pytest

from qmalcev import (catalog_get, cli, document, emit_document, emit_tree,
                     inductive_decompose)
from qmalcev.cli import run
from qmalcev.document import (DocumentSyntaxError, parse_algebra_document,
                              parse_document, parse_scalar, parse_tree)
from qmalcev.errors import AxiomError, GradingError

ENTRIES = [
    ("zero", {}),
    ("one_dim_lie", {}),
    ("abelian", {"p": 1, "q": 2}),
    ("sl2", {}),
    ("m7", {}),
    ("osp12", {}),
    ("example_M", {"n": 2, "m": (1, 2)}),
    ("example_gde", {"n": 2, "m": (1, 2)}),
    ("odd_hyperbolic", {}),
    ("even_hyperbolic", {}),
    ("gde_abelian12", {}),
]


@pytest.mark.parametrize("name,params", ENTRIES)
def test_round_trip_byte_identical(name, params):
    entry = catalog_get(name, **params)
    text = emit_document(entry.algebra, gde=entry.extras)
    q, op, gde = parse_algebra_document(text)
    again = emit_document(q, gde=gde)
    assert again == text


def test_scalar_text_rules():
    from fractions import Fraction

    assert parse_scalar("3/1") == 3
    assert parse_scalar("-4/7") == Fraction(-4, 7)
    for bad in ("0.5", "3", "4/-2", "2/4", "", "a/b"):
        with pytest.raises(DocumentSyntaxError):
            parse_scalar(bad)


def test_cross_parity_gram_is_evenness_violation():
    entry = catalog_get("abelian", p=1, q=2)
    doc = json.loads(emit_document(entry.algebra))
    doc["gram"] = sorted(doc["gram"] + [[0, 1, "1/1"]])
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with pytest.raises(GradingError, match="evenness"):
        parse_document(text)


def test_axiom_failure_named_on_parse():
    entry = catalog_get("m7")
    doc = json.loads(emit_document(entry.algebra))
    doc["constants"] = doc["constants"][1:]  # drop one product
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    # the error names the first failing axiom (here: form invariance)
    with pytest.raises(AxiomError, match="invariant"):
        parse_algebra_document(text)


def test_unsorted_constants_rejected():
    entry = catalog_get("sl2")
    doc = json.loads(emit_document(entry.algebra))
    doc["constants"] = list(reversed(doc["constants"]))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with pytest.raises(DocumentSyntaxError, match="sorted"):
        parse_document(text)


def test_extension_document_dimensions():
    entry = catalog_get("example_gde", n=2, m=(1, 1))
    q, _op, _gde = parse_algebra_document(emit_document(entry.algebra))
    assert q.space.even_dim == 1 and q.space.odd_dim == 6


def test_tree_round_trip(k21):
    tree = inductive_decompose(k21)
    text = emit_tree(tree)
    parsed = parse_tree(text)
    assert emit_tree(parsed) == text
    # every node embeds the full document of its own algebra
    node = json.loads(text)
    while True:
        assert "document" in node
        assert "constants" in node["document"]
        if node["kind"] == "leaf":
            break
        node = node["child"] if "child" in node else node["children"][0]


def test_decompose_is_deterministic(k21):
    assert emit_tree(inductive_decompose(k21)) == \
        emit_tree(inductive_decompose(k21))


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(format_version=2),
    lambda d: d.update(even_dim=-1),
    lambda d: d.update(even_dim="2"),
    lambda d: d.pop("gram"),
    lambda d: d["constants"].append(d["constants"][-1]),  # duplicate entry
    lambda d: d["constants"].append([0, 0, 0, "0/1"]),    # zero scalar
    lambda d: d["constants"].append([0, 0, 99, "1/1"]),   # out of range
])
def test_parser_rejects_bad_schema(mutate):
    doc = json.loads(emit_document(catalog_get("sl2").algebra))
    mutate(doc)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with pytest.raises(DocumentSyntaxError):
        parse_document(text)


def test_parser_rejects_grading_violation_in_constants():
    doc = json.loads(emit_document(catalog_get("abelian", p=1, q=2).algebra))
    doc["constants"] = [[0, 0, 1, "1/1"]]  # even*even -> odd
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with pytest.raises(GradingError):
        parse_document(text)


# ---------------------------------------------------------------------------
# command-line contract

def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_catalog_check_pipe(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "m7")
    assert code == 0
    doc = tmp_path / "m7.json"
    doc.write_text(out)
    code, out, _ = _run(capsys, "check", str(doc))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["checks"]["jacobi"]["passed"] is False  # informational


def test_cli_check_mutated_document(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "m7")
    doc = json.loads(out)
    doc["constants"] = doc["constants"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, sort_keys=True,
                              separators=(",", ":")) + "\n")
    code, out, _ = _run(capsys, "check", str(bad))
    assert code == 3
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"]["malcev"]["failures"] > 0
    assert report["checks"]["malcev"]["witnesses"]


def test_cli_exit_code_matrix(tmp_path, capsys):
    # parse error -> 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert _run(capsys, "check", str(garbage))[0] == 2
    # grading violation -> 3
    entry = catalog_get("abelian", p=1, q=2)
    doc = json.loads(emit_document(entry.algebra))
    doc["gram"] = sorted(doc["gram"] + [[0, 1, "1/1"]])
    graded = tmp_path / "graded.json"
    graded.write_text(json.dumps(doc, sort_keys=True,
                                 separators=(",", ":")) + "\n")
    assert _run(capsys, "check", str(graded))[0] == 3
    # precondition -> 4
    assert _run(capsys, "catalog", "no_such_entry")[0] == 4
    assert _run(capsys, "catalog", "example_M", "--n", "1", "--m", "0")[0] == 4
    # reduce with no central vector -> 4
    code, out, _ = _run(capsys, "catalog", "sl2")
    sl2doc = tmp_path / "sl2.json"
    sl2doc.write_text(out)
    assert _run(capsys, "reduce", str(sl2doc))[0] == 4
    # usage error -> 2
    assert _run(capsys, "frobnicate")[0] == 2


def test_cli_decompose_rebuild_byte_identical(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "example_gde", "--n", "2",
                        "--m", "1,1")
    assert code == 0
    docfile = tmp_path / "k.json"
    docfile.write_text(out)
    code, tree_text, _ = _run(capsys, "decompose", str(docfile))
    assert code == 0
    tree = json.loads(tree_text)
    assert tree["kind"] == "odd_gde"
    treefile = tmp_path / "tree.json"
    treefile.write_text(tree_text)
    code, rebuilt, _ = _run(capsys, "rebuild", str(treefile))
    assert code == 0
    assert rebuilt == out


def test_cli_extend_and_reduce_round_trip(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "example_M", "--n", "1",
                        "--m", "2")
    base = tmp_path / "base.json"
    base.write_text(out)
    code, ext_text, _ = _run(capsys, "extend-odd", str(base))
    assert code == 0
    ext = tmp_path / "ext.json"
    ext.write_text(ext_text)
    code, red_text, _ = _run(capsys, "reduce", str(ext))
    assert code == 0
    red = json.loads(red_text)
    assert red["witness"]["kind"] == "odd"
    assert red["document"]["even_dim"] == 1
    assert red["document"]["odd_dim"] == 2


def test_cli_reduce_extend_chain(tmp_path, capsys):
    """The reduce artifact is complete: extending its document reproduces
    the input in the recorded witness basis."""
    from qmalcev import change_basis_quadratic

    code, out, _ = _run(capsys, "catalog", "gde_abelian12")
    src = tmp_path / "g.json"
    src.write_text(out)
    code, red_text, _ = _run(capsys, "reduce", str(src))
    assert code == 0
    red = json.loads(red_text)
    reduced_doc = tmp_path / "r.json"
    reduced_doc.write_text(json.dumps(red["document"], sort_keys=True,
                                      separators=(",", ":")) + "\n")
    code, ext_text, _ = _run(capsys, "extend-odd", str(reduced_doc))
    assert code == 0
    q_in, _op, _g = parse_algebra_document(out)
    validated = type(q_in).validate(q_in.algebra, q_in.form)
    basis = [[parse_scalar(x) for x in col]
             for col in red["witness"]["basis"]]
    adapted = change_basis_quadratic(validated, basis)
    ext_q, _op2, _g2 = parse_algebra_document(ext_text)
    assert ext_q.algebra.constants == adapted.algebra.constants
    assert ext_q.form == adapted.form


def test_cli_extend_even(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "abelian", "--p", "2", "--q", "0")
    doc = json.loads(out)
    doc["operator"] = {"parity": "even",
                      "entries": [[0, 1, "-1/1"], [1, 0, "1/1"]]}
    opdoc = tmp_path / "rot.json"
    opdoc.write_text(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
    code, out, _ = _run(capsys, "extend-even", str(opdoc))
    assert code == 0
    ext = json.loads(out)
    assert ext["even_dim"] == 4 and ext["odd_dim"] == 0


def test_cli_operator_check(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "example_M", "--n", "1",
                        "--m", "1")
    doc = json.loads(out)
    doc["operator"] = {"parity": "odd", "entries": doc["gde"]["d"]}
    del doc["gde"]
    opdoc = tmp_path / "op.json"
    opdoc.write_text(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
    code, out, _ = _run(capsys, "operator-check", str(opdoc))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_cli_even_reduce_chain(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "abelian", "--p", "2", "--q", "0")
    doc = json.loads(out)
    doc["operator"] = {"parity": "even",
                      "entries": [[0, 1, "-1/1"], [1, 0, "1/1"]]}
    opdoc = tmp_path / "rot.json"
    opdoc.write_text(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
    code, ext_text, _ = _run(capsys, "extend-even", str(opdoc))
    ext = tmp_path / "osc.json"
    ext.write_text(ext_text)
    code, red_text, _ = _run(capsys, "reduce", str(ext))
    assert code == 0
    red = json.loads(red_text)
    assert red["witness"]["kind"] == "even"
    assert "operator" in red["document"]


def test_cli_operator_check_failure_exit(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "sl2")
    doc = json.loads(out)
    doc["operator"] = {"parity": "even", "entries": [[0, 0, "1/1"]]}
    opdoc = tmp_path / "bad_op.json"
    opdoc.write_text(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
    code, out, _ = _run(capsys, "operator-check", str(opdoc))
    assert code == 3
    report = json.loads(out)
    assert report["passed"] is False


def test_cli_misplaced_operator_entry_exits_3(tmp_path, capsys):
    """An even operator with entries across the grading is refused while
    the document is read, naming the first entry in row-major order."""
    code, out, _ = _run(capsys, "catalog", "example_M", "--n", "1",
                        "--m", "1")
    doc = json.loads(out)
    p = doc["even_dim"]
    doc["operator"] = {"parity": "even",
                       "entries": [[0, p, "1/1"], [p, 0, "1/1"]]}
    del doc["gde"]
    opdoc = tmp_path / "misplaced.json"
    opdoc.write_text(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
    code, out, err = _run(capsys, "operator-check", str(opdoc))
    assert (code, out) == (3, "")
    assert err == ("validation error (grading): operator entry (0,%d) "
                   "violates parity even\n" % p)


def test_cli_center(tmp_path, capsys):
    code, out, _ = _run(capsys, "catalog", "example_gde", "--n", "2",
                        "--m", "1,2")
    doc = tmp_path / "k.json"
    doc.write_text(out)
    code, out, _ = _run(capsys, "center", str(doc))
    assert code == 0
    report = json.loads(out)
    assert report["even"] == []
    assert len(report["odd"]) == 3


def test_cli_center_formats_each_nonzero_once(capsys, monkeypatch):
    """The center of abelian(1024, 0) is the whole space: 1024 columns of
    1024 coordinates, one of them nonzero.  Each nonzero is formatted once
    and every zero shares one text, and the bytes are the ones that
    formatting every coordinate gave (the pinned digest)."""
    text = emit_document(catalog_get("abelian", p=1024, q=0).algebra)
    calls = []
    real = document.scalar_text

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(document, "scalar_text", counted)
    monkeypatch.setattr(cli, "scalar_text", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = _run(capsys, "center", "-")
    assert (code, err) == (0, "")
    assert len(calls) <= 1025
    columns = [["1/1" if i == j else "0/1" for i in range(1024)]
               for j in range(1024)]
    assert json.loads(out) == {"name": "abelian(1024,0)", "even": columns,
                               "odd": []}
    assert len(out) == 6293549
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5526a8126fcab8474d85319f16a41845f12937a47929d74921d37623347f4018")


@pytest.mark.parametrize("argv", [
    ["--p", "1_0", "--q", "0"], ["--p", "\u0663", "--q", "0"],
    ["--p", " 4", "--q", "0"], ["--p", "+2", "--q", "0"],
    ["--p", "-3", "--q", "1"], ["--p", "-3", "--q", "2"],
], ids=["underscore", "arabic_indic_digit", "space", "plus", "minus_q1",
        "minus_q2"])
def test_cli_dimensions_must_be_ascii_digits(capsys, argv):
    code, out, err = _run(capsys, "catalog", "abelian", *argv)
    assert (code, out) == (2, "")
    assert "argument --p: %r is not a non-negative integer" % argv[1] in err


def test_cli_determinism(capsys):
    a = _run(capsys, "catalog", "osp12")
    b = _run(capsys, "catalog", "osp12")
    assert a == b


def test_cli_inconclusive_maps_to_exit_5(tmp_path, capsys, monkeypatch):
    import qmalcev.cli as cli
    from qmalcev.errors import InconclusiveError

    def boom(args):
        raise InconclusiveError("search hit its bound")

    monkeypatch.setattr(cli, "_cmd_center", boom)
    parser_entry = tmp_path / "sl2.json"
    code, out, _ = _run(capsys, "catalog", "sl2")
    parser_entry.write_text(out)
    assert _run(capsys, "center", str(parser_entry))[0] == 5


def test_cli_summary_mode(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QMALCEV_REPORT", "summary")
    code, out, _ = _run(capsys, "catalog", "m7")
    doc = json.loads(out)
    doc["constants"] = doc["constants"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, sort_keys=True,
                              separators=(",", ":")) + "\n")
    code, out, _ = _run(capsys, "check", str(bad))
    assert code == 3
    report = json.loads(out)
    assert "witnesses" not in report["checks"]["malcev"]


# ---------------------------------------------------------------------------
# integers past the digit limit of int's str conversion (4300 digits)

def _write(tmp_path, obj):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                    + "\n")
    return path


def _line(gram, constants=(), even_dim=1):
    return {"constants": list(constants), "even_dim": even_dim,
            "format_version": 1, "gram": gram, "name": "x", "odd_dim": 0}


def test_cli_long_gram_scalar_is_read_and_written_back(tmp_path, capsys):
    """A 5000-digit Gram entry: check exits 0, and decompose | rebuild
    gives the document back byte for byte."""
    long = "1" * 5000
    path = _write(tmp_path, _line([[0, 0, long + "/1"]]))
    code, out, err = _run(capsys, "check", str(path))
    assert (code, err) == (0, "") and json.loads(out)["passed"] is True
    code, tree, err = _run(capsys, "decompose", str(path))
    assert (code, err) == (0, "") and long in tree
    treefile = tmp_path / "tree.json"
    treefile.write_text(tree)
    code, rebuilt, err = _run(capsys, "rebuild", str(treefile))
    assert (code, err) == (0, "") and rebuilt == path.read_text()


def test_cli_long_integer_literal_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    text = _write(tmp_path, _line([[0, 0, "1/1"]])).read_text()
    path.write_text(text.replace('"even_dim":1', '"even_dim":' + "1" * 5000))
    assert _run(capsys, "check", str(path)) == (
        2, "", "parse error: integer literal is too long\n")


def test_cli_long_dimension_sum_is_named(tmp_path, capsys):
    """even_dim + odd_dim has 4301 digits, one more than either."""
    doc = _line([], even_dim=int("9" * 4300))
    doc["odd_dim"] = 1
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert _run(capsys, "check", str(path)) == (
        2, "", "parse error: dimension 1%s exceeds the cap of 1024\n"
        % ("0" * 4300))


def test_cli_long_witness_values_are_printed(tmp_path, capsys):
    """With c = 1500 sevens the Malcev witnesses hold c^3, 4500 digits."""
    c = "7" * 1500
    constants = sorted([[0, 1, 1, "1/1"], [1, 0, 1, "-1/1"],
                        [0, 1, 2, c + "/1"], [1, 0, 2, "-%s/1" % c],
                        [0, 2, 1, "-%s/1" % c], [2, 0, 1, c + "/1"],
                        [1, 2, 0, c + "/1"], [2, 1, 0, "-%s/1" % c]])
    path = _write(tmp_path, _line([[i, i, "1/1"] for i in range(3)],
                                  constants, even_dim=3))
    code, out, err = _run(capsys, "check", str(path))
    assert (code, err) == (3, "")
    malcev = json.loads(out)["checks"]["malcev"]
    values = [x for w in malcev["witnesses"] for x in w["lhs"] + w["rhs"]]
    assert any(len(x) > 4300 for x in values)
    assert all(parse_scalar(x) is not None for x in values)
