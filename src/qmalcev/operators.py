"""Homogeneous operators, skew-supersymmetry, and 2-cocycles.

The five-term operator identity is scanned term-wise on the integer kernel
of `core`, as the Malcev identity is: each term is kernel entries times
the operator f scaled once by F, the lcm of its denominators, and is added
into the integer sum of every triple where it occurs.  The identity is
linear in f and quadratic in the constants, so both scaled sides are D^2 F
times the true ones: exact, unequal on the same triples, and divided back
only when a witness is built.

The cocycle identity is one coordinate of a Malcev identity.  On the line
extension a + F c, where c is central and XY becomes XY + w(X, Y) c, every
product with c vanishes.  So (XZ)(YT) there is (XZ)(YT) + w(XZ, YT) c, the
products on the right taken in a, and ((XY)Z)T is ((XY)Z)T + w((XY)Z, T)
c; every chain term goes the same way.  The c coordinate of each side of
the Malcev identity is thus that side of the cocycle identity.
Skew-supersymmetry and the cocycle of an operator read
the sparse form pairing of `quadratic`; one sparse solve on the int Gram
turns cocycles back into operators.  `OperatorMap` and `Cocycle` are
`quadratic.SparseMatrix`es, as the form is: each keeps only its nonzero
entries, its columns `cols` and rows `rows`, and every routine here reads
those; an operator meets a vector through `linalg.combine`.
"""

from __future__ import annotations

import functools

from . import linalg
from .core import (EVEN, ODD, Element, SuperAlgebra, SuperSpace,
                   _scan_kernel, _side_witnesses, _summed, check_malcev,
                   direct_sum_embeddings, ksign)
from .errors import InputError, PreconditionError
from .linalg import ZERO, _add, frac
from .quadratic import (BilinearForm, QuadraticAlgebra, SparseMatrix,
                        _form_pairing, _require_validated)
from .reports import (CheckReport, _mirror_witnesses, _report,
                      _value_witnesses)


class OperatorMap(SparseMatrix):
    """Parity-homogeneous endomorphism, its `SparseMatrix` the matrix whose
    columns `cols` {j: {r: x}} are the images of the basis vectors."""

    _name, _matrix_name = "operator", "operator matrix"

    @classmethod
    def from_images(cls, n, images, parity):
        """images: {column index: coordinate sequence or sparse dict}."""
        return cls.from_entries(n, {
            (r, c): x for c, vec in images.items()
            for r, x in (vec.items() if isinstance(vec, dict)
                         else enumerate(vec))}, parity)

    def negated(self):
        return OperatorMap.from_entries(
            self.dim, {key: -x for key, x in self.entries.items()},
            self.parity)


def split_endomorphism(matrix, space):
    """Split an arbitrary endomorphism into its homogeneous components."""
    n, par = space.dim, space.parity
    entries = ({}, {})
    for r in range(n):
        for c in range(n):
            if v := frac(matrix[r][c]):
                entries[(par(r) + par(c)) % 2][(r, c)] = v
    return tuple(OperatorMap.from_entries(n, entries[p], p)
                 for p in (EVEN, ODD))


def _int_map(images):
    """F, the lcm of the denominators of a linear map given by its sparse
    images {m: {d: x}}, and a function that applies F times the map to a
    sparse int vector, returning only the nonzero coordinates."""
    scale, cols = linalg.scaled(images)
    return scale, functools.partial(linalg.combine, cols)


def check_malcev_operator(a: SuperAlgebra, f: OperatorMap) -> CheckReport:
    """Five-term operator identity on all basis triples.

    phi((XY)Z) = (phi(X)Y)Z - (-1)^{xy} phi(Y)(XZ)
               - (-1)^{z(x+y)} (phi(Z)X)Y - (-1)^{x(y+z)} phi(YZ)X

    (f(b_p) b_q) b_r is (phi(X)Y)Z at (p, q, r) and (phi(Z)X)Y at
    (q, r, p); f(b_j)(b_i b_k) is the sum of c(i, k, m) f(b_j) b_m.
    """
    n = a.dim
    if f.dim != n:
        raise InputError("operator dimension does not match algebra")
    f.validate_parity(a.space)
    kern = _scan_kernel(a)
    par = kern.par
    fscale, fmap = _int_map(f.cols)
    lhs, rhs = {}, {}  # (i, j, k) -> scaled side, summed term by term
    for (i, j), trow in kern.triples.items():
        for k, tv in trow.items():
            _add(lhs, (i, j, k), fmap(tv), 1)
    for p in range(n):
        fprod = kern.right_products(fmap({p: 1}))  # m -> f(b_p) b_m
        for m, u in fprod.items():
            for (i, k), c in kern.columns.get(m, ()):
                _add(rhs, (i, p, k), u, -ksign(par[i] * par[p]) * c)
            for r, v in kern.right_products(u).items():
                _add(rhs, (p, m, r), v, 1)
                _add(rhs, (m, r, p), v, -ksign(par[p] * (par[m] + par[r])))
    for (j, k), vec in kern.pairs.items():
        for i, v in kern.right_products(fmap(vec)).items():
            _add(rhs, (i, j, k), v, -ksign(par[i] * (par[j] + par[k])))
    denom = kern.scale ** 2 * fscale
    return _report(*_side_witnesses(n, lhs, rhs, denom, denom))


def check_skew_supersymmetric(b: BilinearForm, f: OperatorMap,
                              space) -> CheckReport:
    """B(f(X), Y) = -(-1)^{alpha x} B(X, f(Y)) on all basis pairs."""
    n = b.dim
    if f.dim != n:
        raise InputError("operator dimension does not match form")
    left, right = _form_pairing(b, f.cols)
    return _report(*_value_witnesses(left, {
        (i, j): -ksign(f.parity * space.parity(i)) * x
        for (i, j), x in right.items()}))


class Cocycle(SparseMatrix):
    """Scalar-valued bilinear map omega(b_i, b_j) with a declared parity,
    its `SparseMatrix` the value matrix; every method reads the nonzeros
    only.

    The same representation carries cocycles valued in a one-dimensional
    central line.
    """

    _name, _matrix_name = "cocycle", "cocycle value matrix"

    def value(self, x: Element, y: Element):
        return sum((v * y.entries.get(j, 0) for j, v
                    in linalg.combine(self.rows, x.entries).items()), ZERO)

    def graded_skew_report(self, space) -> CheckReport:
        """omega(X,Y) = -(-1)^{xy} omega(Y,X) on basis pairs (X, Y)."""
        return _report(*_mirror_witnesses(self.entries, space.parity, True))


def _line_extension(a: SuperAlgebra, values, parity, name=""):
    """a + F c with b_i b_j + values[(i, j)] c for its products, c a
    central basis vector of the given parity: the central extension of a
    by a cocycle with these nonzero values, laid out as the direct sum of
    a and the line F c, so c is last among the vectors of its parity.
    Returns the algebra, the index map of a into it and c's index."""
    space, (at, (c,)) = direct_sum_embeddings(
        a.space, SuperSpace(1 - parity, parity))
    return _summed(space, [(a, at)], {(at[i], at[j]): {c: x} for (i, j), x
                                      in values.items()}, name), at, c


def check_cocycle(a: SuperAlgebra, w: Cocycle) -> CheckReport:
    """Graded skewness plus the four-variable cocycle identity.

    (-1)^{yz} w(XZ, YT) = w((XY)Z, T) + (-1)^{x(y+z+t)} w((YZ)T, X)
                        + (-1)^{(x+y)(z+t)} w((ZT)X, Y)
                        + (-1)^{t(x+y+z)} w((TX)Y, Z)

    The identity is read off `check_malcev` of the line extension
    a + F c by w: the two sides at a quadruple are the c coordinates of
    the Malcev sides there (see the module docstring), and a quadruple
    holding c has every term 0.  So the witnesses are at the Malcev keys
    whose sides differ at c, each side read as an int vector off the
    report's evaluator, so no Malcev witness is built; the keys are read
    back to a's indices through the layout's index map, after the skewness
    witnesses.  A nonzero w(b_i, b_j) with |i| + |j| other than w's parity
    raises GradingError before the scan.
    """
    if w.dim != a.dim:
        raise InputError("cocycle dimension does not match algebra")
    w.validate_parity(a.space)
    mirror = w.graded_skew_report(a.space).witnesses
    ext, at, c = _line_extension(a, w.entries, w.parity)
    back = {pos: i for i, pos in enumerate(at)}
    lhs, rhs = {}, {}
    malcev = check_malcev(ext).witnesses
    for key in malcev.keys:
        left, right = malcev.witness.sides(key)
        key = tuple(map(back.__getitem__, key))
        lhs[key], rhs[key] = left.get(c, 0), right.get(c, 0)
    keys, value = _value_witnesses(lhs, rhs, _scan_kernel(ext).scale ** 3)
    return _report([*mirror.keys, *keys],  # pairs, then quadruples
                   lambda key: (mirror.witness if len(key) == 2
                                else value)(key),
                   ["graded skew-symmetry fails"] if mirror else [])


def operator_from_cocycle(q: QuadraticAlgebra, w: Cocycle) -> OperatorMap:
    """The unique phi with w(X, Y) = B(phi(X), Y).

    With F the matrix of phi, w = F^T G, so G^T F = w^T.  One `linalg.Span`
    of the rows [E G^T | w^T], E G the int Gram, solves for every column of
    F at once: its reduced echelon form is [I | F / E].
    """
    _require_validated(q)
    n = q.dim
    if w.dim != n:
        raise InputError("cocycle dimension does not match algebra")
    if not q.form.is_nondegenerate():
        raise PreconditionError("form is degenerate")
    gscale, _table, _rows, gcols = q.form.int_gram
    span = linalg.row_span(
        ({**gcols.get(j, {}), **{n + i: x for i, x
                                 in w.cols.get(j, {}).items()}}
         for j in range(n)), 2 * n)
    images = {}
    for r, row in enumerate(span.rows()):  # the pivots are 0..n-1
        for c, x in row.items():
            if c >= n:
                images.setdefault(c - n, {})[r] = gscale * x
    return OperatorMap.from_images(n, images, w.parity)


def cocycle_from_operator(q: QuadraticAlgebra, f: OperatorMap) -> Cocycle:
    """w(X, Y) = B(f(X), Y), read off the nonzeros of f and the form."""
    _require_validated(q)
    n = q.dim
    if f.dim != n:
        raise InputError("operator dimension does not match algebra")
    left, _right = _form_pairing(q.form, f.cols)
    return Cocycle.from_entries(n, left, f.parity)
