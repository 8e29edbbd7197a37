"""Only quadratic.py reads a form's dense `gram` or `matrix()`, and only
operators.py reads an operator's dense `matrix`; everything else reads the
sparse entries and columns.  A call `x.matrix()` is a form's view, an
attribute `x.matrix` that is not called is an operator's.  No module
outside linalg.py uses a dense elimination routine of linalg: spans,
ranks and kernels are read off `linalg.Span` and `linalg.sparse_kernel`.
Only the printers, cli.py and document.py, read an Element's dense
`coords`; everything else reads its sparse `entries`.
"""

import ast
import pathlib

import qmalcev

SRC = pathlib.Path(qmalcev.__file__).parent

# (module, function) -> the views it may read outside their owner
ALLOWED = {}


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


# the dense routines of linalg, on lists of rows
DENSE_LINALG = {"kernel", "rref", "rank", "det", "solve", "inverse",
                "mat_mul", "transpose", "mat_vec", "column_echelon_columns"}

# (module, function) -> the dense linalg routines it may use
DENSE_LINALG_ALLOWED = {}


def _dense_linalg_uses(path):
    """(function, routine) for each use of a dense linalg routine in the
    module, as `linalg.<routine>` or as a name imported from .linalg."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "linalg" for alias in node.names}
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = None
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "linalg"):
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = imported.get(node.id)
        if name in DENSE_LINALG:
            uses.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return uses


def test_no_dense_elimination_outside_linalg():
    stray, excused = [], {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for function, name in _dense_linalg_uses(path):
            key = (path.name, function)
            if name in DENSE_LINALG_ALLOWED.get(key, ()):
                excused.setdefault(key, set()).add(name)
            else:
                stray.append((path.name, function, name))
    assert stray == []
    assert excused == DENSE_LINALG_ALLOWED  # each exception is still needed


def _coords_readers(path):
    """The functions of the module that read an attribute `coords`."""
    tree = ast.parse(path.read_text())
    readers = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "coords"
                and isinstance(node.ctx, ast.Load)):
            readers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return readers


def test_dense_coords_are_read_by_the_printers_only():
    readers = {path.name: _coords_readers(path)
               for path in sorted(SRC.glob("*.py"))}
    assert {name for name, fns in readers.items() if fns} == {
        "cli.py", "document.py"}
    assert readers["cli.py"] == {"_value_obj"}
    assert readers["document.py"] == {"_gde_block"}
