"""BilinearForm, OperatorMap and Cocycle keep only their nonzeros.

The dense classes they replaced are copied below as the reference, with a
full-scan check_form and check_skew_supersymmetric and the dense emitter.
Every view, report, error message and emitted byte of the sparse classes
must equal the reference's.  A 1024-dimensional diagonal form is parsed
and checked without anything n x n being allocated.
"""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (BilinearForm, Cocycle, OperatorMap, QuadraticAlgebra,
                     SuperAlgebra, SuperSpace, check_form,
                     check_skew_supersymmetric)
from qmalcev import linalg
from qmalcev.core import EVEN, ODD, Element, Witness, ksign, parity_name
from qmalcev.document import (MAX_DIM, canonical_json, emit_document,
                              parse_document, scalar_text)
from qmalcev.errors import GradingError, InputError
from qmalcev.extensions import GdeData
from qmalcev.linalg import ZERO, frac
from qmalcev.quadratic import FormReport

from references import report, restricted


# ---------------------------------------------------------------------------
# the dense classes and checks, as the reference

class DenseForm:
    def __init__(self, gram):
        self.gram = tuple(tuple(frac(x) for x in row) for row in gram)
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise InputError("Gram matrix must be square")

    @property
    def dim(self):
        return len(self.gram)

    def matrix(self):
        return [list(row) for row in self.gram]

    def restrict(self, columns):
        vecs = [{i: x for i, x in enumerate(c) if x != 0} for c in columns]
        g = self.gram
        return [[sum((x * g[i][j] * y for i, x in u.items()
                      for j, y in v.items()), ZERO) for v in vecs]
                for u in vecs]

    def is_nondegenerate(self):
        return linalg.det(self.matrix()) != 0

    def __eq__(self, other):
        return isinstance(other, DenseForm) and self.gram == other.gram


class DenseOperator:
    def __init__(self, matrix, parity):
        self.matrix = tuple(tuple(frac(x) for x in row) for row in matrix)
        self.parity = parity

    def validate_parity(self, space):
        n = space.dim
        for r in range(n):
            for c in range(n):
                if self.matrix[r][c] == 0:
                    continue
                if (space.parity(c) + self.parity) % 2 != space.parity(r):
                    raise GradingError(
                        "operator entry (%d,%d) violates parity %s"
                        % (r, c, parity_name(self.parity)))
        return self

    @property
    def dim(self):
        return len(self.matrix)

    def column(self, j):
        return {r: self.matrix[r][j] for r in range(self.dim)
                if self.matrix[r][j] != 0}

    def negated(self):
        return DenseOperator([[-x for x in row] for row in self.matrix],
                             self.parity)

    def __eq__(self, other):
        return (isinstance(other, DenseOperator)
                and self.matrix == other.matrix
                and self.parity == other.parity)


class DenseCocycle:
    def __init__(self, values, parity):
        self.matrix = tuple(tuple(frac(x) for x in row) for row in values)
        if any(len(row) != len(self.matrix) for row in self.matrix):
            raise InputError("cocycle value matrix must be square")
        self.parity = parity

    def validate_parity(self, space):
        n = len(self.matrix)
        for i in range(n):
            for j in range(n):
                if (self.matrix[i][j] != 0 and (space.parity(i)
                        + space.parity(j)) % 2 != self.parity):
                    raise GradingError(
                        "cocycle entry (%d,%d) violates parity %s"
                        % (i, j, parity_name(self.parity)))
        return self

    def __eq__(self, other):
        return (isinstance(other, DenseCocycle)
                and self.matrix == other.matrix
                and self.parity == other.parity)


def reference_check_form(a, g):
    """The four axioms by a full scan of the dense Gram g."""
    n = a.dim
    par = [a.space.parity(i) for i in range(n)]
    c = a.constants
    even = [Witness((i, j), g[i][j], ZERO)
            for i, j in itertools.product(range(n), repeat=2)
            if g[i][j] and par[i] != par[j]]
    sym = []
    for i in range(n):
        for j in range(i, n):
            if par[i] == par[j]:
                want = g[j][i] if par[i] == EVEN else -g[j][i]
                if g[i][j] != want:
                    sym.append(Witness((i, j), g[i][j], want))
    nondeg = [Witness(("kernel",), Element(v), Element.zero(n))
              for v in linalg.kernel(g, cols=n)]
    inv = []
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = sum((c.get((i, j, m), ZERO) * g[m][k] for m in range(n)), ZERO)
        rhs = sum((g[i][m] * c.get((j, k, m), ZERO) for m in range(n)), ZERO)
        if lhs != rhs:
            inv.append(Witness((i, j, k), lhs, rhs))
    return FormReport(report(even), report(sym), report(nondeg),
                      report(inv))


def reference_skew(g, f, space):
    """B(f(X), Y) = -(-1)^{alpha x} B(X, f(Y)) by a full scan."""
    n = len(g)
    witnesses = []
    for i, j in itertools.product(range(n), repeat=2):
        lhs = sum((f.matrix[r][i] * g[r][j] for r in range(n)), ZERO)
        rhs = -ksign(f.parity * space.parity(i)) * sum(
            (g[i][r] * f.matrix[r][j] for r in range(n)), ZERO)
        if lhs != rhs:
            witnesses.append(Witness((i, j), lhs, rhs))
    return report(witnesses)


def _matrix_rows(m):
    return [[r, c, scalar_text(v)] for r, row in enumerate(m)
            for c, v in enumerate(row) if v != 0]


def reference_emit(a, form, op, d, a0):
    return canonical_json({
        "format_version": 1, "name": a.name,
        "even_dim": a.space.even_dim, "odd_dim": a.space.odd_dim,
        "constants": [[i, j, k, scalar_text(c)]
                      for (i, j, k), c in sorted(a.constants.items())],
        "gram": _matrix_rows(form.gram),
        "operator": {"parity": "even" if op.parity == EVEN else "odd",
                     "entries": _matrix_rows(op.matrix)},
        "gde": {"d": _matrix_rows(d.matrix),
                "a0": [scalar_text(x) for x in a0]}})


# ---------------------------------------------------------------------------
# strategies

SCALARS = st.sampled_from([Fraction(x) for x in
                           (0, 0, 0, 0, 1, -1, 2, Fraction(1, 2),
                            Fraction(-3, 4))])


@st.composite
def spaces(draw):
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if p + q == 0:
        p = 1
    return SuperSpace(p, q)


def matrices(n):
    return st.lists(st.lists(SCALARS, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def algebras(draw, space):
    n = space.dim
    graded = [(i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
              if (space.parity(i) + space.parity(j)) % 2 == space.parity(k)]
    keys = draw(st.lists(st.sampled_from(graded), max_size=6, unique=True)
                if graded else st.just([]))
    return SuperAlgebra(space, {key: draw(SCALARS) for key in keys},
                        name="a")


@st.composite
def cases(draw):
    space = draw(spaces())
    n = space.dim
    gram = draw(matrices(n))
    # half the time a second Gram equal to the first but for one entry
    other = [list(row) for row in gram]
    if draw(st.booleans()):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        other[r][c] = draw(SCALARS)
    return (space, draw(algebras(space)), gram, other, draw(matrices(n)),
            draw(st.sampled_from((0, 1))), draw(matrices(n)),
            [draw(SCALARS) for _ in range(n)],
            draw(st.lists(st.lists(SCALARS, min_size=n, max_size=n),
                          max_size=n + 1)))


def _sparse_images(m):
    """The columns of m as sparse dicts, zero columns left out."""
    n = len(m)
    return {c: col for c in range(n)
            if (col := {r: m[r][c] for r in range(n) if m[r][c]})}


def _grading(op, space):
    try:
        op.validate_parity(space)
    except GradingError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(cases())
def test_sparse_classes_match_the_dense_reference(case):
    space, alg, gram, other, fm, parity, dm, a0, cols = case
    n = space.dim
    form, ref = BilinearForm(gram), DenseForm(gram)
    assert form.dim == ref.dim and form.gram == ref.gram
    assert form.matrix == ref.gram and form.parity == EVEN
    assert (restricted(form, cols).matrix
            == tuple(map(tuple, ref.restrict(cols))))
    assert form.is_nondegenerate() == ref.is_nondegenerate()
    assert (form == BilinearForm(other)) == (ref == DenseForm(other))
    assert BilinearForm.from_entries(n, {
        (i, j): x for i, row in enumerate(gram)
        for j, x in enumerate(row)}) == form
    assert check_form(alg, form) == reference_check_form(alg, ref.gram)
    assert ((_grading(form, space) is None)
            == check_form(alg, form).even.passed)

    op, rop = OperatorMap(fm, parity), DenseOperator(fm, parity)
    assert op.dim == rop.dim and op.matrix == rop.matrix
    assert all(op.column(j) == rop.column(j) for j in range(n))
    assert op.negated().matrix == rop.negated().matrix
    assert OperatorMap.from_images(n, _sparse_images(fm), parity) == op
    assert OperatorMap.from_images(
        n, {c: [row[c] for row in fm] for c in range(n)}, parity) == op
    for other_m in (fm, dm):
        for other_parity in (0, 1):
            assert ((op == OperatorMap(other_m, other_parity))
                    == (rop == DenseOperator(other_m, other_parity)))
    assert _grading(op, space) == _grading(rop, space)
    assert (check_skew_supersymmetric(form, op, space)
            == reference_skew(ref.gram, rop, space))

    w, rw = Cocycle(fm, parity), DenseCocycle(fm, parity)
    assert w.dim == n and w.matrix == rw.matrix
    assert Cocycle.from_entries(n, {
        (i, j): x for i, row in enumerate(fm)
        for j, x in enumerate(row)}, parity) == w
    for other_m in (fm, dm):
        for other_parity in (0, 1):
            assert ((w == Cocycle(other_m, other_parity))
                    == (rw == DenseCocycle(other_m, other_parity)))
    assert _grading(w, space) == _grading(rw, space)
    # the same nonzeros in another role are another matrix
    assert w != op and form != Cocycle(gram, EVEN)

    d, rd = OperatorMap(dm, 1), DenseOperator(dm, 1)
    q = QuadraticAlgebra(alg, form)
    text = emit_document(q, operator=op, gde=GdeData(d, Element(tuple(a0))))
    assert text == reference_emit(alg, ref, rop, rd, a0)


def test_two_misplaced_entries_name_the_first_in_row_major_order():
    """Column-major order would name (2,0) here, row-major names (0,2)."""
    space = SuperSpace(2, 1)
    m = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    with pytest.raises(GradingError, match=r"entry \(0,2\) violates parity "
                                           r"even"):
        OperatorMap(m, EVEN).validate_parity(space)
    with pytest.raises(GradingError, match=r"entry \(0,2\) violates parity "
                                           r"even"):
        DenseOperator(m, EVEN).validate_parity(space)


def test_two_misplaced_cocycle_entries_name_the_first_in_row_major_order():
    space = SuperSpace(2, 1)
    m = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    for w in (Cocycle(m, EVEN), DenseCocycle(m, EVEN)):
        with pytest.raises(GradingError,
                           match=r"^cocycle entry \(0,2\) violates parity "
                                 r"even$"):
            w.validate_parity(space)


@pytest.mark.parametrize("cls, parity, words", [
    (BilinearForm, (), "Gram matrix"),
    (OperatorMap, (EVEN,), "operator matrix"),
    (Cocycle, (ODD,), "cocycle value matrix")])
def test_a_matrix_that_is_not_square_is_refused(cls, parity, words):
    with pytest.raises(InputError, match="^%s must be square$" % words):
        cls([[1, 0], [0]], *parity)


@pytest.mark.parametrize("cls", [BilinearForm, OperatorMap, Cocycle])
@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_zero_of_each_kind(cls, parity):
    """`zero(n, parity)` is the dense zero matrix of that parity; the
    cocycle's lacked a parity and raised TypeError."""
    z = cls.zero(3, parity)
    assert z.entries == {} and z.parity == parity
    assert z == cls([[0] * 3] * 3, parity)
    assert z.matrix == ((ZERO,) * 3,) * 3


def test_diagonal_form_at_the_cap_allocates_nothing_square():
    """parse_document + check_form on the 1024-dimensional diagonal Gram
    peak below 4 MiB; a dense Gram of Fractions alone is more."""
    n = MAX_DIM
    text = canonical_json({"format_version": 1, "name": "diag",
                           "even_dim": n, "odd_dim": 0, "constants": [],
                           "gram": [[i, i, "1/1"] for i in range(n)]})
    tracemalloc.start()
    try:
        q, _op, _gde = parse_document(text)
        report = check_form(q.algebra, q.form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * 2 ** 20


def test_empty_form_at_the_cap_shares_one_zero():
    """parse_document + check_form on the 1024-dimensional document with no
    Gram entries peak below 12 MiB: its 1024 kernel witnesses share one
    zero rhs, and only their dense lhs remain."""
    n = MAX_DIM
    text = canonical_json({"format_version": 1, "name": "empty",
                           "even_dim": n, "odd_dim": 0, "constants": [],
                           "gram": []})
    tracemalloc.start()
    try:
        q, _op, _gde = parse_document(text)
        report = check_form(q.algebra, q.form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.nondegenerate.witnesses) == n
    assert len({id(w.rhs) for w in report.nondegenerate.witnesses}) == 1
    assert peak < 12 * 2 ** 20
