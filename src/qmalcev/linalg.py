"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction, vectors are lists of Fraction.
Everything is dense (dimensions stay small throughout the package) and
every operation is exact; there are no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


def zeros(n):
    return [ZERO] * n


def zero_matrix(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zero_matrix(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def copy_matrix(m):
    return [row[:] for row in m]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def mat_vec(m, v):
    return [sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    bt = transpose(b)
    return [[sum((ra[k] * cb[k] for k in range(len(ra))), ZERO) for cb in bt]
            for ra in a]


def is_zero_vec(u):
    return all(a == 0 for a in u)


def rref(m):
    """Reduced row echelon form. Returns (new matrix, pivot column list)."""
    m = copy_matrix(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m):
    return len(rref(m)[1]) if m else 0


def kernel(m, cols=None):
    """Basis of the right null space, one vector per free column."""
    if not m:
        if cols is None:
            return []
        return [basis_vector(cols, i) for i in range(cols)]
    n = len(m[0])
    red, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = []
    for fc in free:
        v = zeros(n)
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def basis_vector(n, i):
    v = zeros(n)
    v[i] = ONE
    return v


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent."""
    rows = len(m)
    if rows == 0:
        return [] if is_zero_vec(b) else None
    n = len(m[0])
    aug = [m[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = zeros(n)
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def inverse(m):
    n = len(m)
    if n == 0:
        return []
    aug = [m[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def det(m):
    n = len(m)
    if n == 0:
        return ONE
    m = copy_matrix(m)
    d = ONE
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            return ZERO
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        inv = ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def column_echelon_columns(vectors):
    """Deterministic reduced basis of the span of the given vectors.

    Input and output vectors are coordinate lists; the output columns are
    the nonzero rows of the RREF of the stacked input, so pivots appear in
    increasing coordinate order ("first" column = smallest pivot index).
    """
    vs = [v for v in vectors if not is_zero_vec(v)]
    if not vs:
        return []
    red, pivots = rref(vs)
    return [red[i] for i in range(len(pivots))]


class Span:
    """Incrementally maintained reduced span of vectors, exact over Q."""

    def __init__(self, n):
        self.n = n
        self.pivots = {}  # pivot index -> reduced vector with 1 there

    def reduce(self, v):
        v = list(v)
        for p in sorted(self.pivots):
            if v[p] != 0:
                f = v[p]
                w = self.pivots[p]
                v = [a - f * b for a, b in zip(v, w)]
        return v

    def add(self, v):
        """Insert v; True when the span grew."""
        v = self.reduce(v)
        for i in range(self.n):
            if v[i] != 0:
                inv = ONE / v[i]
                v = [a * inv for a in v]
                for p, w in self.pivots.items():
                    if w[i] != 0:
                        f = w[i]
                        self.pivots[p] = [a - f * b for a, b in zip(w, v)]
                self.pivots[i] = v
                return True
        return False

    def contains(self, v):
        return is_zero_vec(self.reduce(v))

    @property
    def dim(self):
        return len(self.pivots)

    def vectors(self):
        return [self.pivots[p] for p in sorted(self.pivots)]
