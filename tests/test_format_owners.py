"""Forms, operators and cocycles are one `quadratic.SparseMatrix`, which
keeps their nonzeros and owns their one dense view, `matrix` (a form's is
also named `gram`): no module other than quadratic.py reads it, and the
three classes define no reader, store, equality, parity check or dense
view of their own.  No module
outside linalg.py uses a dense routine of linalg: spans, ranks and
kernels are read off `linalg.Span` and `linalg.sparse_kernel`, and no
vector, subspace row or basis column is made dense by `linalg.dense`; the
printers hand the sparse dicts to `document.vector_texts`.  No module
reads an attribute `coords`: an Element keeps only its sparse `entries`;
and none reads an attribute `values` without calling it: a cocycle keeps
only its nonzero `entries`, and `values()` is a dict's.  Extensions and
reductions place e, e* and the base by one layout: no function other than
`extensions.extension_layout` builds an `ExtensionWitness`.  An element of
a matrix algebra is a vector {n*row + column: x} of F^(n^2) in linalg.py
alone: no other module encodes or decodes such a position, and the
Fraction pair-table products `_mul_vv` and `_mul_vb` are gone, every
product reading the int table.  Derived values are kept through one
memo, `core.memo`.
"""

import ast
import pathlib

import qmalcev

SRC = pathlib.Path(qmalcev.__file__).parent

# (module, function) -> the views it may read outside their owner
ALLOWED = {}


# the names of the one dense view of a SparseMatrix
DENSE_VIEWS = {"matrix", "gram"}


def _dense_reads(path):
    """(function, view) for each read of a dense view in the module,
    called or not."""
    tree = ast.parse(path.read_text())
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS
                and isinstance(node.ctx, ast.Load)):
            reads.append((function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return reads


def test_dense_views_are_read_by_their_owners_only():
    stray, excused = [], set()
    for path in sorted(SRC.glob("*.py")):
        for function, view in _dense_reads(path):
            key = (path.name, function)
            if view in ALLOWED.get(key, ()):
                excused.add(key)
            elif path.name != "quadratic.py":
                stray.append((path.name, function, view))
    assert stray == []
    assert excused == set(ALLOWED)  # each exception is still needed


# what the shared base keeps for every n x n matrix of the package
SHARED = {"__init__", "_store", "from_entries", "zero", "validate_parity",
          "__eq__", *DENSE_VIEWS}


def test_matrices_keep_their_values_in_one_base():
    """OperatorMap, BilinearForm and Cocycle inherit every name of SHARED
    from one class of quadratic.py and define none of them themselves."""
    kinds = (qmalcev.OperatorMap, qmalcev.BilinearForm, qmalcev.Cocycle)
    for name in sorted(SHARED):
        owners = {next(base for base in cls.__mro__ if name in vars(base))
                  for cls in kinds}
        assert len(owners) == 1, name
        assert owners.pop().__module__ == "qmalcev.quadratic", name
    assert {cls.__name__: sorted(SHARED & vars(cls).keys())
            for cls in kinds} == {cls.__name__: [] for cls in kinds}


# the dense routines of linalg, on lists of rows, and the densifier
DENSE_LINALG = {"kernel", "rref", "rank", "det", "solve", "inverse",
                "mat_mul", "transpose", "mat_vec", "column_echelon_columns",
                "dense"}

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


def _attribute_readers(path, attr, calls=True):
    """The functions of the module that read an attribute attr; a read
    that is called, x.attr(), counts only when calls is true."""
    tree = ast.parse(path.read_text())
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    readers = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, ast.Load)
                and (calls or id(node) not in called)):
            readers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return readers


def test_dense_coords_are_read_by_the_printers_only():
    readers = {path.name: _attribute_readers(path, "coords")
               for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in readers.items() if fns} == {}


def test_no_dense_cocycle_values():
    """No module reads an attribute `values` other than by calling it, as
    dict.values(): a cocycle keeps only its nonzero `entries`."""
    readers = {path.name: _attribute_readers(path, "values", calls=False)
               for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in readers.items() if fns} == {}


def _callers(path, name):
    """The functions of the module that call `name(...)` or `x.name(...)`,
    each once, in order."""
    tree = ast.parse(path.read_text())
    callers = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            if called == name and function not in callers:
                callers.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return callers


def test_one_function_builds_the_extension_witness():
    builders = {path.name: _callers(path, "ExtensionWitness")
                for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in builders.items() if fns} == {
        "extensions.py": ["extension_layout"]}


# the functions that read and write an element of a matrix algebra as a
# vector {n*row + column: x} of F^(n^2)
FLAT_LAYOUT = {"enveloping_basis", "trace_rows", "radical_image", "commutant"}

# the factors of an index times a dimension
_INDEX = (ast.Name, ast.Subscript, ast.Attribute, ast.BinOp)


def _flat_positions(path):
    """The lines of the module that encode or decode a flat position: a
    call of divmod, or a sum with a term of two index-like factors (names,
    subscripts, attributes or arithmetic), such as n * row + column, whose
    other term is not a call; an accumulation acc.get(k, 0) + c * x is not
    one."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "divmod"):
            lines.add(node.lineno)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for term, other in ((node.left, node.right),
                                (node.right, node.left)):
                if (isinstance(term, ast.BinOp)
                        and isinstance(term.op, ast.Mult)
                        and isinstance(term.left, _INDEX)
                        and isinstance(term.right, _INDEX)
                        and not isinstance(other, ast.Call)):
                    lines.add(node.lineno)
    return sorted(lines)


def test_flat_matrix_layout_is_linalgs_alone():
    """Only linalg.py encodes or decodes a position n*row + column, and
    the four functions of that layout are defined there and nowhere else;
    `_mul_vv` and `_mul_vb` are defined nowhere in the package."""
    stray, defined = {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "linalg.py" and (lines := _flat_positions(path)):
            stray[path.name] = lines
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef) and node.name
                    in FLAT_LAYOUT | {"_mul_vv", "_mul_vb"}):
                defined.setdefault(node.name, []).append(path.name)
    assert stray == {}
    assert defined == {name: ["linalg.py"] for name in FLAT_LAYOUT}
    assert _flat_positions(SRC / "linalg.py")  # the probe sees the layout


def test_derived_values_are_kept_by_one_memo():
    """No function but `DecompositionTree.advisory_reductive`, on a frozen
    dataclass where `core.memo`'s setattr raises, is a
    functools.cached_property, which writes the instance's __dict__ by
    hand and so slows every later attribute read of that object."""
    users = {path.name: _attribute_readers(path, "cached_property")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in users.items() if fns} == {
        "decompose.py": {"advisory_reductive"}}
