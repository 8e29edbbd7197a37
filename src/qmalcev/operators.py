"""Homogeneous operators, skew-supersymmetry, and 2-cocycles.

The five-term operator identity and the cocycle identity are scanned
term-wise on the integer kernel of `core`, as the Malcev identity is: each
term is kernel entries times one linear map (the operator f or the cocycle
w) scaled once by F, the lcm of its denominators, and is added into the
integer sum of every tuple where it occurs.  The operator identity is
linear in f and quadratic in the constants, so both scaled sides are D^2 F
times the true ones: exact, unequal on the same triples, and divided back
only when a witness is built.  Skew-supersymmetry and the cocycle of an
operator read the sparse form pairing of `quadratic`; one sparse solve on
the int Gram turns cocycles back into operators.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .core import (EVEN, ODD, CheckReport, Element, SuperAlgebra, Witness,
                   _add, _chain_keys, _report, _scan_kernel,
                   _side_witnesses, _vadd, ksign, parity_name)
from .errors import GradingError, InputError, PreconditionError
from .linalg import ZERO, frac
from .quadratic import (BilinearForm, QuadraticAlgebra, _form_pairing,
                        _require_validated)


class OperatorMap:
    """Parity-homogeneous endomorphism, stored as its nonzero columns
    `columns` {j: {r: x}}, the images of the basis vectors.  Immutable; the
    dense `matrix` (columns = images) is a derived view."""

    def __init__(self, matrix, parity: int):
        rows = [tuple(frac(x) for x in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("operator matrix must be square")
        self._store(n, dict(enumerate(zip(*rows))), parity)

    def _store(self, n, images, parity):
        self.dim, self.parity, self.columns = n, parity, {}
        for c in sorted(images):
            vec = images[c]
            items = vec.items() if isinstance(vec, dict) else enumerate(vec)
            col = {r: x for r, x in sorted((r, frac(x)) for r, x in items)
                   if x}
            if col:
                self.columns[c] = col
        return self

    def validate_parity(self, space):
        """Entries outside the blocks allowed by the parity must vanish;
        the first offending entry in row-major order is named."""
        bad = [(r, c) for c, col in self.columns.items() for r in col
               if (space.parity(c) + self.parity) % 2 != space.parity(r)]
        if bad:
            raise GradingError("operator entry (%d,%d) violates parity %s"
                               % (*min(bad), parity_name(self.parity)))
        return self

    @classmethod
    def zero(cls, n, parity=EVEN):
        return cls.from_images(n, {}, parity)

    @classmethod
    def from_images(cls, n, images, parity):
        """images: {column index: coordinate sequence or sparse dict}."""
        return cls.__new__(cls)._store(n, images, parity)

    @property
    def matrix(self):
        """The dense matrix as a tuple of row tuples."""
        return tuple(tuple(self.column(c).get(r, ZERO)
                           for c in range(self.dim)) for r in range(self.dim))

    def column(self, j):
        """Sparse image of basis vector j; not to be mutated."""
        return self.columns.get(j, {})

    def apply_vec(self, vec):
        """Apply to a sparse dict vector, returning a sparse dict."""
        out = {}
        for j, c in vec.items():
            _vadd(out, self.column(j), c)
        return out

    def negated(self):
        return OperatorMap.from_images(
            self.dim, {c: {r: -x for r, x in col.items()}
                       for c, col in self.columns.items()}, self.parity)

    def __eq__(self, other):
        return (isinstance(other, OperatorMap) and self.dim == other.dim
                and self.columns == other.columns
                and self.parity == other.parity)

    def __repr__(self):
        return "OperatorMap(dim=%d, parity=%s)" % (self.dim,
                                                   parity_name(self.parity))


def split_endomorphism(matrix, space):
    """Split an arbitrary endomorphism into its homogeneous components."""
    n, par = space.dim, space.parity
    images = ({}, {})
    for r in range(n):
        for c in range(n):
            if v := frac(matrix[r][c]):
                images[(par(r) + par(c)) % 2].setdefault(c, {})[r] = v
    return tuple(OperatorMap.from_images(n, images[p], p) for p in (EVEN, ODD))


def _int_map(images):
    """F, the lcm of the denominators of a linear map given by its sparse
    images {m: {d: x}}, and a function that applies F times the map to a
    sparse int vector, returning only the nonzero coordinates."""
    scale, cols = linalg.scaled(images)

    def apply(vec):
        out = {}
        for m, c in vec.items():
            for d, x in cols.get(m, {}).items():
                out[d] = out.get(d, 0) + c * x
        return {d: x for d, x in out.items() if x}

    return scale, apply


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
    fscale, fmap = _int_map(f.columns)
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
    return _report(_side_witnesses(n, lhs, rhs, denom, denom))


def check_skew_supersymmetric(b: BilinearForm, f: OperatorMap,
                              space) -> CheckReport:
    """B(f(X), Y) = -(-1)^{alpha x} B(X, f(Y)) on all basis pairs."""
    n = b.dim
    if f.dim != n:
        raise InputError("operator dimension does not match form")
    left, right = _form_pairing(b, f.columns)
    witnesses = []
    for i, j in sorted(left.keys() | right.keys()):
        lhs = left.get((i, j), ZERO)
        rhs = -ksign(f.parity * space.parity(i)) * right.get((i, j), ZERO)
        if lhs != rhs:
            witnesses.append(Witness((i, j), lhs, rhs))
    return _report(witnesses)


class Cocycle:
    """Scalar-valued bilinear map omega(b_i, b_j) with a declared parity.

    The same representation carries cocycles valued in a one-dimensional
    central line.
    """

    def __init__(self, values, parity: int):
        self.values = tuple(tuple(frac(x) for x in row) for row in values)
        self.parity = parity
        n = len(self.values)
        for row in self.values:
            if len(row) != n:
                raise InputError("cocycle value matrix must be square")

    @property
    def dim(self):
        return len(self.values)

    def value(self, x: Element, y: Element):
        total = ZERO
        for i, xi in x.entries.items():
            row = self.values[i]
            for j, yj in y.entries.items():
                if row[j]:
                    total += xi * row[j] * yj
        return total

    def validate_parity(self, space):
        for i in range(self.dim):
            for j in range(self.dim):
                if self.values[i][j] == 0:
                    continue
                if (space.parity(i) + space.parity(j)) % 2 != self.parity:
                    raise GradingError(
                        "cocycle entry (%d,%d) violates parity %s"
                        % (i, j, parity_name(self.parity)))
        return self

    def graded_skew_report(self, space) -> CheckReport:
        """omega(X,Y) = -(-1)^{xy} omega(Y,X) on basis pairs."""
        witnesses = []
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                s = -ksign(space.parity(i) * space.parity(j))
                if self.values[i][j] != s * self.values[j][i]:
                    witnesses.append(Witness((i, j), self.values[i][j],
                                             s * self.values[j][i]))
        return _report(witnesses)

    def __eq__(self, other):
        return (isinstance(other, Cocycle) and self.values == other.values
                and self.parity == other.parity)

    def __repr__(self):
        return "Cocycle(dim=%d, parity=%s)" % (self.dim,
                                               parity_name(self.parity))


def check_cocycle(a: SuperAlgebra, w: Cocycle) -> CheckReport:
    """Graded skewness plus the four-variable cocycle identity.

    (-1)^{yz} w(XZ, YT) = w((XY)Z, T) + (-1)^{x(y+z+t)} w((YZ)T, X)
                        + (-1)^{(x+y)(z+t)} w((ZT)X, Y)
                        + (-1)^{t(x+y+z)} w((TX)Y, Z)

    A nonzero w(b_i, b_j) with |i| + |j| other than w's parity raises
    GradingError before the scan.
    """
    n = a.dim
    if w.dim != n:
        raise InputError("cocycle dimension does not match algebra")
    w.validate_parity(a.space)
    kern = _scan_kernel(a)
    par, pairs = kern.par, kern.pairs
    # wmap(vec) is {d: w(vec, b_d)}, scaled by W
    wscale, wmap = _int_map({m: {d: v for d, v in enumerate(row) if v}
                             for m, row in enumerate(w.values)})
    denom = kern.scale ** 2 * wscale

    skew = w.graded_skew_report(a.space)
    witnesses = list(skew.witnesses)
    notes = []
    if not skew.passed:
        notes.append("graded skew-symmetry fails")
    lhs, rhs = {}, {}  # (i, j, k, l) -> scaled side, summed term by term
    for (i, k), u in pairs.items():
        for m, value in wmap(u).items():
            for (j, l), c in kern.columns.get(m, ()):
                key = (i, j, k, l)
                lhs[key] = lhs.get(key, 0) + ksign(par[j] * par[k]) * c * value
    for (p, q), trow in kern.triples.items():
        for r, tv in trow.items():
            for d, value in wmap(tv).items():
                for key, s in _chain_keys(par, p, q, r, d):
                    rhs[key] = rhs.get(key, 0) + s * value
    for key in sorted(lhs.keys() | rhs.keys()):
        left, right = lhs.get(key, 0), rhs.get(key, 0)
        if left != right:
            witnesses.append(Witness(key, Fraction(left, denom),
                                     Fraction(right, denom)))
    return _report(witnesses, notes)


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
        ({**gcols.get(j, {}), **{n + i: x for i, x in enumerate(col)}}
         for j, col in enumerate(zip(*w.values))), 2 * n)
    images = {}
    for r, row in enumerate(span.rows()):  # the pivots are 0..n-1
        for c, x in row.items():
            if c >= n:
                images.setdefault(c - n, {})[r] = gscale * x
    return OperatorMap.from_images(n, images, w.parity)


def cocycle_from_operator(q: QuadraticAlgebra, f: OperatorMap) -> Cocycle:
    """w(X, Y) = B(f(X), Y) as a cocycle-shaped value matrix."""
    _require_validated(q)
    n = q.dim
    if f.dim != n:
        raise InputError("operator dimension does not match algebra")
    left, _right = _form_pairing(q.form, f.columns)
    return Cocycle([[left.get((i, j), ZERO) for j in range(n)]
                    for i in range(n)], f.parity)
