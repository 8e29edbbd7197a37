"""Mutated documents and trees at the command line's trust boundary.

The inputs are the canonical documents and `decompose` trees of small
catalog entries (dimension <= 6), some with operator or gde blocks, with
one or two mutations each: keys dropped or added, JSON types changed,
scalars made non-canonical or changed, indices pushed out of range,
entries duplicated or reordered, operator parities and node kinds flipped,
and gde blocks perturbed.  Every input goes through every command that
reads a file.  The contract: the exit code is 0, 2, 3, 4 or 5; no
traceback is printed; and an exit-0 output is canonical JSON whose
documents and trees re-parse and re-emit byte for byte.
"""

import contextlib
import copy
import functools
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (EVEN, OperatorMap, catalog_get, direct_sum_quadratic,
                     double_extension_even, emit_document, emit_tree,
                     inductive_decompose)
from qmalcev.cli import FILE_COMMANDS, run
from qmalcev.document import canonical_json, parse_document, parse_tree

EXIT_CODES = {0, 2, 3, 4, 5}


@functools.cache
def bases():
    """Canonical inputs by label; each algebra has dimension <= 6."""
    out = {}
    for name, params in (("zero", {}), ("one_dim_lie", {}),
                         ("abelian", {"p": 2, "q": 2}), ("sl2", {}),
                         ("osp12", {}), ("odd_hyperbolic", {}),
                         ("even_hyperbolic", {}), ("gde_abelian12", {}),
                         ("example_M", {"n": 1, "m": (1,)}),
                         ("example_M", {"n": 2, "m": (1, 2)}),
                         ("example_gde", {"n": 1, "m": (2,)})):
        e = catalog_get(name, **params)
        out["%s%s" % (name, sorted(params.items()))] = emit_document(
            e.algebra, gde=e.extras)
    sl2 = catalog_get("sl2").algebra
    adh = OperatorMap.from_images(3, {1: [0, 2, 0], 2: [0, 0, -2]}, EVEN)
    out["sl2+ad(h)"] = emit_document(sl2, operator=adh)
    plane = catalog_get("abelian", p=2, q=0).algebra
    rot = OperatorMap([[0, -1], [1, 0]], EVEN)
    out["abelian(2,0)+rotation"] = emit_document(plane, operator=rot)
    m1 = catalog_get("example_M", n=1, m=(1,))
    out["example_M(1)+d"] = emit_document(m1.algebra, operator=m1.extras.d)
    osc, _ = double_extension_even(plane, rot)
    for label, q in (("tree:example_gde(1)",
                      catalog_get("example_gde", n=1, m=(2,)).algebra),
                     ("tree:sl2+abelian(1,0)",
                      direct_sum_quadratic(
                          sl2, catalog_get("abelian", p=1, q=0).algebra)),
                     ("tree:oscillator", osc),
                     ("tree:gde_abelian12",
                      catalog_get("gde_abelian12").algebra)):
        out[label] = emit_tree(inductive_decompose(q))
    return out


def _paths(obj, path=()):
    """Every (path, container, key) below obj, the root excluded."""
    items = (obj.items() if isinstance(obj, dict) else enumerate(obj)
             if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,), obj, key
        yield from _paths(value, path + (key,))


JUNK = st.sampled_from([None, True, False, 1.5, "x", [], {}, 0, -1,
                        [0]]).map(copy.deepcopy)
SCALARS = st.sampled_from(["2/4", "+1/1", "1", "-0/1", "0/1", "1/0",
                           " 1/1", "3/2", "-1/1", "1/1", "-2/3"])
INDICES = st.sampled_from([-1, 0, 1, 2, 5, 6, 7, 10 ** 12])
WORDS = st.sampled_from(["even", "odd", "leaf", "sum", "odd_gde", "even_de",
                         "zero", "one_dim_lie", "not_in_U"])


# Where each kind of mutation applies: (path, value) -> bool.
_WHERE = {
    "scalar": lambda path, v: isinstance(v, str),
    "index": lambda path, v: type(v) is int,
    "word": lambda path, v: isinstance(v, str),
    "parity": lambda path, v: path[-1] == "parity",
    "gde": lambda path, v: "gde" in path and isinstance(v, str),
}


def _mutate(draw, obj):
    """Apply one drawn mutation somewhere in obj, in place."""
    kind = draw(st.sampled_from(("drop", "add", "retype", "scalar", "index",
                                 "word", "duplicate", "swap", "parity",
                                 "gde")))
    where = _WHERE.get(kind, lambda path, v: True)
    paths = [p for p in _paths(obj) if where(p[0], p[1][p[2]])]
    kind = {"parity": "word", "gde": "scalar"}.get(kind, kind)
    if not paths:
        return
    _path, parent, key = draw(st.sampled_from(paths))
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "add":
        if isinstance(value, dict):
            value[draw(st.sampled_from(["extra", "kind", "gde",
                                        "operator"]))] = draw(JUNK)
        elif isinstance(value, list):
            value.append(copy.deepcopy(value[-1]) if value else draw(JUNK))
        else:
            parent[key] = [value]
    elif kind == "retype":
        parent[key] = draw(JUNK)
    elif kind == "scalar":
        parent[key] = draw(SCALARS)
    elif kind == "index":
        parent[key] = draw(INDICES)
    elif kind == "word":
        parent[key] = draw(WORDS)
    elif isinstance(parent, list):
        if kind == "duplicate":
            parent.insert(key, copy.deepcopy(value))
        elif key + 1 < len(parent):
            parent[key], parent[key + 1] = parent[key + 1], value


@st.composite
def mutated_inputs(draw):
    obj = json.loads(bases()[draw(st.sampled_from(sorted(bases())))])
    for _ in range(draw(st.integers(1, 2))):
        _mutate(draw, obj)
    return canonical_json(obj)


def _run(command, text):
    """Exit code, standard output and standard error of `qmalcev <command>
    -` on text."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_reemits(text):
    """text is canonical JSON, and each document or tree in it re-parses
    and re-emits byte for byte."""
    obj = json.loads(text)
    assert canonical_json(obj) == text
    if "kind" in obj:
        assert emit_tree(parse_tree(text)) == text
    elif "format_version" in obj:
        q, operator, gde = parse_document(text)
        assert emit_document(q, operator=operator, gde=gde) == text
    elif "document" in obj:
        _assert_reemits(canonical_json(obj["document"]))


def test_bases_pass_the_contract_unmutated():
    for text in bases().values():
        _assert_reemits(text)


@settings(max_examples=300, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_keep_the_exit_contract(text):
    for command in FILE_COMMANDS:
        code, out, err = _run(command, text)
        assert code in EXIT_CODES, (command, code, err)
        assert "Traceback" not in err
        if code == 0:
            _assert_reemits(out)
