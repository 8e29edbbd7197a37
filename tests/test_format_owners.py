"""Only quadratic.py reads a form's dense `gram` or `matrix()`, and only
operators.py reads an operator's dense `matrix`; everything else reads the
sparse entries and columns.  A call `x.matrix()` is a form's view, an
attribute `x.matrix` that is not called is an operator's.
"""

import ast
import pathlib

import qmalcev

SRC = pathlib.Path(qmalcev.__file__).parent

# (module, function) -> the views it may read outside their owner
ALLOWED = {
    # the exact operator/cocycle correspondence inverts the dense Gram
    ("operators.py", "operator_from_cocycle"): {"form"},
}


def _dense_reads(path):
    """(function, view) for each read of a dense view in the module, view
    "form" for .gram and .matrix(), "operator" for an uncalled .matrix."""
    tree = ast.parse(path.read_text())
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr == "gram":
                reads.append((function, "form"))
            elif node.attr == "matrix":
                reads.append((function, "form" if id(node) in called
                              else "operator"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return reads


def test_dense_views_are_read_by_their_owners_only():
    owner = {"form": "quadratic.py", "operator": "operators.py"}
    stray, excused = [], set()
    for path in sorted(SRC.glob("*.py")):
        for function, view in _dense_reads(path):
            key = (path.name, function)
            if view in ALLOWED.get(key, ()):
                excused.add(key)
            elif path.name != owner[view]:
                stray.append((path.name, function, view))
    assert stray == []
    assert excused == set(ALLOWED)  # each exception is still needed
