"""Homogeneous operators, skew-supersymmetry, and 2-cocycles.

The operator identity (for phi applied to triple products) is scanned
over basis triples; the four-variable cocycle identity goes through the
integer scan kernel of `core`.  A non-degenerate scalar product turns
scalar-valued cocycles into operators and back, exactly, through the Gram
inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .core import (EVEN, ODD, CheckReport, Element, SuperAlgebra, Witness,
                   _mul_vb, _mul_vv, _report, _scan_kernel, _to_element,
                   _vadd, ksign, parity_name)
from .errors import GradingError, InputError, PreconditionError
from .linalg import ZERO, frac
from .quadratic import BilinearForm, QuadraticAlgebra, _require_validated


class OperatorMap:
    """Parity-homogeneous endomorphism given by its matrix (columns = images)."""

    def __init__(self, matrix, parity: int):
        self.matrix = tuple(tuple(frac(x) for x in row) for row in matrix)
        self.parity = parity
        n = len(self.matrix)
        for row in self.matrix:
            if len(row) != n:
                raise InputError("operator matrix must be square")

    def validate_parity(self, space):
        """Entries outside the blocks allowed by the parity must vanish."""
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

    @classmethod
    def zero(cls, n, parity=EVEN):
        return cls([[ZERO] * n for _ in range(n)], parity)

    @classmethod
    def from_images(cls, n, images, parity):
        """images: {column index: coordinate sequence}."""
        m = [[ZERO] * n for _ in range(n)]
        for c, vec in images.items():
            for r, v in enumerate(vec):
                m[r][c] = frac(v)
        return cls(m, parity)

    @property
    def dim(self):
        return len(self.matrix)

    def column(self, j):
        """Sparse image of basis vector j."""
        return {r: self.matrix[r][j] for r in range(self.dim)
                if self.matrix[r][j] != 0}

    def apply_vec(self, vec):
        """Apply to a sparse dict vector, returning a sparse dict."""
        out = {}
        for j, c in vec.items():
            _vadd(out, self.column(j), c)
        return out

    def negated(self):
        return OperatorMap([[-x for x in row] for row in self.matrix],
                           self.parity)

    def __eq__(self, other):
        return (isinstance(other, OperatorMap)
                and self.matrix == other.matrix
                and self.parity == other.parity)

    def __repr__(self):
        return "OperatorMap(dim=%d, parity=%s)" % (self.dim,
                                                   parity_name(self.parity))


def split_endomorphism(matrix, space):
    """Split an arbitrary endomorphism into its homogeneous components."""
    n = space.dim
    even = [[ZERO] * n for _ in range(n)]
    odd = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            v = frac(matrix[r][c])
            if v == 0:
                continue
            if space.parity(r) == space.parity(c):
                even[r][c] = v
            else:
                odd[r][c] = v
    return OperatorMap(even, EVEN), OperatorMap(odd, ODD)


def check_malcev_operator(a: SuperAlgebra, f: OperatorMap) -> CheckReport:
    """Five-term operator identity on all basis triples.

    phi((XY)Z) = (phi(X)Y)Z - (-1)^{xy} phi(Y)(XZ)
               - (-1)^{z(x+y)} (phi(Z)X)Y - (-1)^{x(y+z)} phi(YZ)X
    """
    n = a.dim
    if f.dim != n:
        raise InputError("operator dimension does not match algebra")
    f.validate_parity(a.space)
    par = [a.space.parity(i) for i in range(n)]
    fm = [list(r) for r in f.matrix]

    def apply_vec(vec):
        out = {}
        for j, c in vec.items():
            col = {r: fm[r][j] for r in range(n) if fm[r][j] != 0}
            _vadd(out, col, c)
        return out

    witnesses = []
    for i in range(n):
        fi = f.column(i)
        for j in range(n):
            fj = f.column(j)
            for k in range(n):
                x, y, z = par[i], par[j], par[k]
                lhs = apply_vec(_mul_vb(a, a.basis_product(i, j), k))
                rhs = _mul_vb(a, _mul_vb(a, fi, j), k)
                _vadd(rhs, _mul_vv(a, fj, a.basis_product(i, k)),
                      frac(-ksign(x * y)))
                _vadd(rhs, _mul_vb(a, _mul_vb(a, f.column(k), i), j),
                      frac(-ksign(z * (x + y))))
                _vadd(rhs, _mul_vb(a, apply_vec(a.basis_product(j, k)), i),
                      frac(-ksign(x * (y + z))))
                if lhs != rhs:
                    witnesses.append(Witness((i, j, k), _to_element(n, lhs),
                                             _to_element(n, rhs)))
    return _report(witnesses)


def check_skew_supersymmetric(b: BilinearForm, f: OperatorMap,
                              space) -> CheckReport:
    """B(f(X), Y) = -(-1)^{alpha x} B(X, f(Y)) on all basis pairs."""
    n = b.dim
    if f.dim != n:
        raise InputError("operator dimension does not match form")
    g = b.matrix()
    fm = [list(r) for r in f.matrix]
    lhs_m = linalg.mat_mul(linalg.transpose(fm), g)  # B(f(b_i), b_j)
    rhs_m = linalg.mat_mul(g, fm)  # B(b_i, f(b_j))
    witnesses = []
    for i in range(n):
        s = frac(-ksign(f.parity * space.parity(i)))
        for j in range(n):
            if lhs_m[i][j] != s * rhs_m[i][j]:
                witnesses.append(Witness((i, j), lhs_m[i][j],
                                         s * rhs_m[i][j]))
    return _report(witnesses)


class Cocycle:
    """Scalar-valued bilinear map omega(b_i, b_j) with a declared parity.

    The same representation carries cocycles valued in a one-dimensional
    central line: the target label is metadata, the matrix is identical.
    """

    def __init__(self, values, parity: int, target: str = "scalar"):
        self.values = tuple(tuple(frac(x) for x in row) for row in values)
        self.parity = parity
        self.target = target
        n = len(self.values)
        for row in self.values:
            if len(row) != n:
                raise InputError("cocycle value matrix must be square")

    @property
    def dim(self):
        return len(self.values)

    def value(self, x: Element, y: Element):
        total = ZERO
        for i, xi in enumerate(x.coords):
            if xi == 0:
                continue
            row = self.values[i]
            for j, yj in enumerate(y.coords):
                if yj != 0 and row[j] != 0:
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
    """
    n = a.dim
    if w.dim != n:
        raise InputError("cocycle dimension does not match algebra")
    kern = _scan_kernel(a)
    par, pairs, triples = kern.par, kern.pairs, kern.triples
    wscale = math.lcm(*(v.denominator for row in w.values for v in row))
    vals = [[v.numerator * (wscale // v.denominator) for v in row]
            for row in w.values]
    denom = kern.scale ** 2 * wscale

    def w_vec_basis(vec, j):
        return sum(c * vals[m][j] for m, c in vec.items())

    skew = w.graded_skew_report(a.space)
    witnesses = list(skew.witnesses)
    notes = []
    if not skew.passed:
        notes.append("graded skew-symmetry fails")
    for i, j, k, l in kern.quadruples():
        x, y, z, t = par[i], par[j], par[k], par[l]
        lhs = 0
        u, v = pairs.get((i, k)), pairs.get((j, l))
        if u and v:
            for m, cu in u.items():
                row = vals[m]
                for m2, cv in v.items():
                    lhs += cu * cv * row[m2]
            lhs *= ksign(y * z)
        rhs = 0
        for key, d, s in (((i, j, k), l, 1),
                          ((j, k, l), i, ksign(x * (y + z + t))),
                          ((k, l, i), j, ksign((x + y) * (z + t))),
                          ((l, i, j), k, ksign(t * (x + y + z)))):
            tv = triples.get(key)
            if tv:
                rhs += s * w_vec_basis(tv, d)
        if lhs != rhs:
            witnesses.append(Witness((i, j, k, l), Fraction(lhs, denom),
                                     Fraction(rhs, denom)))
    return _report(witnesses, notes)


def operator_from_cocycle(q: QuadraticAlgebra, w: Cocycle) -> OperatorMap:
    """The unique phi with w(X, Y) = B(phi(X), Y); exact Gram inverse."""
    _require_validated(q)
    n = q.dim
    if w.dim != n:
        raise InputError("cocycle dimension does not match algebra")
    ginv = linalg.inverse(q.form.matrix())
    if ginv is None:
        raise PreconditionError("form is degenerate")
    wm = [list(r) for r in w.values]
    # w = F^T G  =>  F = (w G^{-1})^T
    ft = linalg.mat_mul(wm, ginv)
    return OperatorMap(linalg.transpose(ft), w.parity)


def cocycle_from_operator(q: QuadraticAlgebra, f: OperatorMap) -> Cocycle:
    """w(X, Y) = B(f(X), Y) as a cocycle-shaped value matrix."""
    _require_validated(q)
    n = q.dim
    if f.dim != n:
        raise InputError("operator dimension does not match algebra")
    fm = [list(r) for r in f.matrix]
    wm = linalg.mat_mul(linalg.transpose(fm), q.form.matrix())
    return Cocycle(wm, f.parity)
